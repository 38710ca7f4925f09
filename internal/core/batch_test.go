package core

import (
	"sync"
	"testing"

	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// TestWatchBatchMatchesWatch checks the batched front end returns exactly
// the serial verdicts, in input order.
func TestWatchBatchMatchesWatch(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 11)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, len(val))
	want := make([]Verdict, len(val))
	for i, s := range val {
		inputs[i] = s.Input
		want[i] = mon.Watch(net, s.Input)
	}
	got := mon.WatchBatch(net, inputs)
	if len(got) != len(want) {
		t.Fatalf("WatchBatch returned %d verdicts for %d inputs", len(got), len(want))
	}
	for i := range want {
		if got[i].Class != want[i].Class ||
			got[i].Monitored != want[i].Monitored ||
			got[i].OutOfPattern != want[i].OutOfPattern {
			t.Fatalf("verdict %d diverges: batch %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestWatchBatchConcurrent is the read-only-after-build guard: many
// goroutines call WatchBatch against one monitor simultaneously.
// Run under -race (the CI workflow does) this fails if any serving path
// still writes manager state.
func TestWatchBatchConcurrent(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 12)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, len(val))
	for i, s := range val {
		inputs[i] = s.Input
	}
	want := mon.WatchBatch(net, inputs)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := mon.WatchBatch(net, inputs)
				for i := range want {
					if got[i].Class != want[i].Class || got[i].OutOfPattern != want[i].OutOfPattern {
						t.Errorf("verdict %d unstable under concurrency", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWatchBatchEmpty checks the degenerate batch: an empty input must
// yield an empty non-nil slice, on both batch entry points.
func TestWatchBatchEmpty(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 14)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := mon.WatchBatch(net, nil)
	if got == nil {
		t.Fatal("empty batch returned a nil slice, want empty non-nil")
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %d verdicts", len(got))
	}
	if got := mon.WatchBatchPooledTimed(net, nil, nil, nil); got == nil || len(got) != 0 {
		t.Fatalf("empty pooled batch returned %v, want an empty non-nil slice", got)
	}
}

// TestExtractObsOrder pins the ordering contract every evaluator relies
// on: observation i is sample i's, across chunk boundaries, and equals
// the per-sample ForwardCapture path.
func TestExtractObsOrder(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 14)
	neurons := []int{0, 3, 7}
	for i, o := range extractObs(net, layer, neurons, train) {
		logits, acts := net.ForwardCapture(train[i].Input, layer)
		if want := PatternOfSubset(acts, neurons); o.pred != logits.ArgMax() || o.pattern.Key() != want.Key() {
			t.Fatalf("obs %d = (%d, %v), per-sample (%d, %v)", i, o.pred, o.pattern, logits.ArgMax(), want)
		}
	}
}

// TestWatchSplitBalanced is the regression test for the 64/64/52 split:
// for every batch size and worker count the plan covers the batch with
// chunks of at most maxWatchChunk, uses no more runs than workers, and
// hands no worker more than ⌈chunks/workers⌉ chunks.
func TestWatchSplitBalanced(t *testing.T) {
	if chunk, per := watchSplit(180, 2); chunk != 45 || per != 2 {
		t.Fatalf("watchSplit(180, 2) = %d × %d per worker, want 45 × 2", chunk, per)
	}
	for workers := 1; workers <= 4; workers++ {
		for n := 1; n <= 300; n++ {
			chunk, per := watchSplit(n, workers)
			if chunk < 1 || chunk > maxWatchChunk || chunk*per*workers < n {
				t.Fatalf("watchSplit(%d, %d) = chunk %d, %d per worker", n, workers, chunk, per)
			}
			chunks := (n + chunk - 1) / chunk
			runs := (chunks + per - 1) / per
			if fair := (chunks + workers - 1) / workers; runs > workers || per > fair {
				t.Fatalf("watchSplit(%d, %d): %d chunks in %d runs of %d, fair share %d",
					n, workers, chunks, runs, per, fair)
			}
		}
	}
}

// TestWatchConcurrentOnSharedNetwork is the -race guard of the one
// forward path: 8 goroutines call Watch on ONE network (no CloneShared)
// whose convolution is large enough to fan out at width 1, and each must
// get exactly WatchBatch's verdicts.
func TestWatchConcurrentOnSharedNetwork(t *testing.T) {
	r := rng.New(31)
	net := nn.New(
		nn.NewConv2D(8, 1, 5, 5, 1, r), nn.NewReLU(), nn.NewMaxPool(2), nn.NewFlatten(),
		nn.NewDense(8*12*12, 16, r), nn.NewReLU(), // monitored layer: index 5
		nn.NewDense(16, 3, r),
	)
	sample := func() *tensor.Tensor {
		x := tensor.New(1, 28, 28)
		for i := range x.Data() {
			x.Data()[i] = r.Range(-1, 1)
		}
		return x
	}
	train := make([]nn.Sample, 90)
	for i := range train {
		train[i] = nn.Sample{Input: sample(), Label: i % 3}
	}
	mon, err := Build(net, train, Config{Layer: 5, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 24)
	for i := range inputs {
		inputs[i] = sample()
	}
	want := mon.WatchBatch(net, inputs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range inputs {
				if got := mon.Watch(net, x); got.Class != want[i].Class || got.Monitored != want[i].Monitored ||
					got.OutOfPattern != want[i].OutOfPattern || got.Pattern.Key() != want[i].Pattern.Key() {
					t.Errorf("input %d: Watch %+v, WatchBatch %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
