package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// randDenseNet builds a random-depth fully-connected ReLU stack ending in
// a linear classifier, with random widths.
func randDenseNet(r *rng.Source, in int) *Network {
	var layers []Layer
	width := in
	depth := 1 + r.Intn(4)
	for d := 0; d < depth; d++ {
		next := 1 + r.Intn(24)
		layers = append(layers, NewDense(width, next, r), NewReLU())
		width = next
	}
	layers = append(layers, NewDense(width, 3+r.Intn(8), r))
	return New(layers...)
}

// randConvNet builds a conv→BN→ReLU→pool→conv→ReLU→pool→flatten→dense
// network over (2, 12, 12) inputs, exercising every layer kind.
func randConvNet(r *rng.Source) *Network {
	// 2×12×12 → conv(5ch,3×3) → 5×10×10 → BN → ReLU → pool2 → 5×5×5
	// → conv(4ch,2×2) → 4×4×4 → ReLU → pool2 → 4×2×2 → flatten 16
	return New(
		NewConv2D(5, 2, 3, 3, 1, r),
		NewBatchNorm(5),
		NewReLU(),
		NewMaxPool(2),
		NewConv2D(4, 5, 2, 2, 1, r),
		NewReLU(),
		NewMaxPool(2),
		NewFlatten(),
		NewDense(16, 10, r),
		NewReLU(),
		NewDense(10, 4, r),
	)
}

// forEachKernel runs body once per tensor kernel level, as a subtest
// named after the level with the tensor package forced to it. A level
// the host lacks is skipped with the reason.
func forEachKernel(t *testing.T, body func(t *testing.T)) {
	for l := tensor.KernelGo; l <= tensor.KernelAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			restore, err := tensor.ForceKernel(l)
			if err != nil {
				t.Skip(err)
			}
			defer restore()
			body(t)
		})
	}
}

// assertRowsEqual checks that row b of the stacked batch output is
// bit-identical to the reference tensor, counting any NaN equal to any
// NaN (payloads are not part of the contract).
func assertRowsEqual(t *testing.T, tag string, batchOut *tensor.Tensor, b int, want *tensor.Tensor) {
	t.Helper()
	rowLen := want.Len()
	row := batchOut.Data()[b*rowLen : (b+1)*rowLen]
	for i, v := range want.Data() {
		if row[i] != v && !(math.IsNaN(row[i]) && math.IsNaN(v)) {
			t.Fatalf("%s: sample %d element %d: batch %v, reference %v", tag, b, i, row[i], v)
		}
	}
}

// f32Tol bounds how far a float32 inference value may sit from the
// float64 oracle, relative to the largest magnitude in its row: about
// 2¹⁰ float32 ulps, room for the rounding of a few thousand-term dot
// products chained through a dozen layers. The Table I nets land below
// 2⁻¹⁹ of that scale.
const f32Tol = 1.0 / (1 << 13)

// assertRowsClose checks that row b of the stacked float32-computed
// batch output is within f32Tol of the float64 per-sample reference;
// a non-finite reference must be matched exactly in kind.
func assertRowsClose(t *testing.T, tag string, batchOut *tensor.Tensor, b int, ref *tensor.Tensor) {
	t.Helper()
	rowLen := ref.Len()
	row := batchOut.Data()[b*rowLen : (b+1)*rowLen]
	scale := 1.0
	for _, v := range ref.Data() {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	for i, v := range ref.Data() {
		got := row[i]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			if !(got == v || math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("%s: sample %d element %d: batch %v, float64 reference %v", tag, b, i, got, v)
			}
		case math.Abs(got-v) > f32Tol*scale:
			t.Fatalf("%s: sample %d element %d: batch %v, float64 reference %v (row scale %v)", tag, b, i, got, v, scale)
		}
	}
}

// width1 runs the width-1 pass over x: the reference every batched row
// must equal bit for bit.
func width1(net *Network, x *tensor.Tensor, capture int) (logits, captured *tensor.Tensor) {
	if capture < 0 {
		return net.ForwardBatch([]*tensor.Tensor{x}, nil), nil
	}
	return net.ForwardBatchCapture([]*tensor.Tensor{x}, capture, nil)
}

// TestForwardBatchMatchesForwardDense is the randomized property test for
// fully-connected networks: for random architectures, batch sizes and
// inputs, every row of ForwardBatch must equal the width-1 pass over its
// input bit for bit and the float64 Forward within f32Tol, on every
// kernel level.
func TestForwardBatchMatchesForwardDense(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(101)
		for trial := 0; trial < 25; trial++ {
			in := 1 + r.Intn(30)
			net := randDenseNet(r, in)
			bsz := 1 + r.Intn(9)
			inputs := make([]*tensor.Tensor, bsz)
			for i := range inputs {
				inputs[i] = randInput(r, in)
			}
			pool := tensor.NewPool()
			logits := net.ForwardBatch(inputs, pool)
			if logits.Dim(0) != bsz {
				t.Fatalf("trial %d: logits shape %v for batch %d", trial, logits.Shape(), bsz)
			}
			for b, x := range inputs {
				one, _ := width1(net, x, -1)
				assertRowsEqual(t, "dense logits", logits, b, one)
				assertRowsClose(t, "dense logits", logits, b, net.Forward(x))
			}
		}
	})
}

// TestForwardBatchMatchesForwardConv is the conv-net property test: the
// batched conv/BN/pool pipeline must reproduce the width-1 pass
// bit-exactly and the per-sample float64 pipeline within f32Tol, on
// every kernel level.
func TestForwardBatchMatchesForwardConv(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(202)
		for trial := 0; trial < 8; trial++ {
			net := randConvNet(r)
			// Give BatchNorm nontrivial running statistics.
			for warm := 0; warm < 3; warm++ {
				net.forward(randInput(r, 2, 12, 12), true)
			}
			bsz := 1 + r.Intn(7)
			inputs := make([]*tensor.Tensor, bsz)
			for i := range inputs {
				inputs[i] = randInput(r, 2, 12, 12)
			}
			logits := net.ForwardBatch(inputs, tensor.NewPool())
			for b, x := range inputs {
				one, _ := width1(net, x, -1)
				assertRowsEqual(t, "conv logits", logits, b, one)
				assertRowsClose(t, "conv logits", logits, b, net.Forward(x))
			}
		}
	})
}

// TestForwardBatchCaptureMatchesForwardCapture sweeps the capture index
// over every layer — including Dense layers whose following ReLU would
// otherwise be fused, and view-returning Flatten — and checks both the
// captured rows and the logits against the width-1 pass (bit for bit)
// and ForwardCapture (within f32Tol), on every kernel level.
func TestForwardBatchCaptureMatchesForwardCapture(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(303)
		net := randConvNet(r)
		inputs := make([]*tensor.Tensor, 5)
		for i := range inputs {
			inputs[i] = randInput(r, 2, 12, 12)
		}
		pool := tensor.NewPool()
		for capture := 0; capture < net.NumLayers(); capture++ {
			logits, captured := net.ForwardBatchCapture(inputs, capture, pool)
			for b, x := range inputs {
				oneLogits, oneCap := width1(net, x, capture)
				assertRowsEqual(t, "capture logits", logits, b, oneLogits)
				assertRowsEqual(t, "captured acts", captured, b, oneCap)
				wantLogits, wantCap := net.ForwardCapture(x, capture)
				assertRowsClose(t, "capture logits", logits, b, wantLogits)
				assertRowsClose(t, "captured acts", captured, b, wantCap)
			}
		}
	})
}

// tableINet spells out the layer lists of exp.MNISTNetSpecs (network 1)
// and exp.GTSRBNetSpecs (network 2) — nn cannot import exp — with the
// input shape and the monitored layer of each. Network 2 puts batch-norm
// between conv and ReLU, so its convolutions take the bias-only epilogue.
func tableINet(r *rng.Source, network int) (net *Network, shape []int, monitored int) {
	if network == 1 {
		return New(
			NewConv2D(40, 1, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
			NewConv2D(20, 40, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
			NewFlatten(),
			NewDense(320, 320, r), NewReLU(),
			NewDense(320, 160, r), NewReLU(),
			NewDense(160, 80, r), NewReLU(),
			NewDense(80, 40, r), NewReLU(),
			NewDense(40, 10, r),
		), []int{1, 28, 28}, 14
	}
	return New(
		NewConv2D(40, 3, 5, 5, 1, r), NewBatchNorm(40), NewReLU(), NewMaxPool(2),
		NewConv2D(20, 40, 5, 5, 1, r), NewBatchNorm(20), NewReLU(), NewMaxPool(2),
		NewFlatten(),
		NewDense(500, 240, r), NewReLU(),
		NewDense(240, 84, r), NewReLU(),
		NewDense(84, 43, r),
	), []int{3, 32, 32}, 12
}

// TestForwardBatchTableIWidths runs both Table I architectures at every
// batch width where the schedule changes shape — one row, the widths
// the 1-row kernel takes alone (below one 4-row strip), one strip, one
// strip and a row, two strips, two and a row, one short of a full
// chunk, a full chunk, one past it — on one pool,
// against the width-1 pass computed at KernelGo (bit for bit: batch
// width and kernel level change nothing) and per-sample ForwardCapture
// (within f32Tol), on every kernel level.
func TestForwardBatchTableIWidths(t *testing.T) {
	checkTableI(t, 800, 65, nil, []int{1, 2, 3, 4, 5, 8, 9, 63, 64, 65})
}

// TestForwardBatchNonFinite is the Table I parity check on inputs that
// carry NaN, +Inf and -Inf at fixed positions, as a float32 wire payload
// may: the fused epilogues must rectify and pool them exactly as the
// per-sample ReLU and MaxPool layers do.
func TestForwardBatchNonFinite(t *testing.T) {
	nonFinite := func(i int, x []float64) {
		x[(7*i+100)%len(x)] = math.NaN()
		x[(11*i+300)%len(x)] = math.Inf(1)
		x[(13*i+500)%len(x)] = math.Inf(-1)
	}
	checkTableI(t, 820, 64, nonFinite, []int{1, 2, 3, 4, 5, 8, 9, 63, 64})
}

// checkTableI builds both Table I networks (seeded seed+network, with
// nontrivial batch-norm statistics) and n random inputs each, edited by
// poke when it is set, takes the references at KernelGo, and runs
// checkTableIWidths on every kernel level.
func checkTableI(t *testing.T, seed uint64, n int, poke func(i int, x []float64), widths []int) {
	type fixture struct {
		net       *Network
		monitored int
		inputs    []*tensor.Tensor
		refs      tableIRefs
	}
	var nets [2]fixture
	for network := 1; network <= 2; network++ {
		r := rng.New(seed + uint64(network))
		net, shape, monitored := tableINet(r, network)
		for warm := 0; warm < 3; warm++ {
			net.forward(randInput(r, shape...), true)
		}
		inputs := make([]*tensor.Tensor, n)
		for i := range inputs {
			inputs[i] = randInput(r, shape...)
			if poke != nil {
				poke(i, inputs[i].Data())
			}
		}
		nets[network-1] = fixture{net, monitored, inputs, tableIRefsOf(t, net, monitored, inputs)}
	}
	forEachKernel(t, func(t *testing.T) {
		for i, f := range nets {
			checkTableIWidths(t, f.net, i+1, f.monitored, f.inputs, f.refs, widths)
		}
	})
}

// tableIRefs holds, per input, the width-1 pass at KernelGo and the
// float64 ForwardCapture.
type tableIRefs struct {
	logits, captured, logits64, captured64 []*tensor.Tensor
}

func tableIRefsOf(t *testing.T, net *Network, monitored int, inputs []*tensor.Tensor) tableIRefs {
	t.Helper()
	restore, err := tensor.ForceKernel(tensor.KernelGo)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	n := len(inputs)
	refs := tableIRefs{make([]*tensor.Tensor, n), make([]*tensor.Tensor, n), make([]*tensor.Tensor, n), make([]*tensor.Tensor, n)}
	for i, x := range inputs {
		refs.logits[i], refs.captured[i] = width1(net, x, monitored)
		refs.logits64[i], refs.captured64[i] = net.ForwardCapture(x, monitored)
	}
	return refs
}

// checkTableIWidths runs ForwardBatchCapture over inputs[:width] for each
// width on one pool and checks every row against the references.
func checkTableIWidths(t *testing.T, net *Network, network, monitored int, inputs []*tensor.Tensor, refs tableIRefs, widths []int) {
	t.Helper()
	pool := tensor.NewPool()
	for _, width := range widths {
		logits, captured := net.ForwardBatchCapture(inputs[:width], monitored, pool)
		for b := 0; b < width; b++ {
			tag := fmt.Sprintf("network %d width %d", network, width)
			assertRowsEqual(t, tag+" logits", logits, b, refs.logits[b])
			assertRowsEqual(t, tag+" captured", captured, b, refs.captured[b])
			assertRowsClose(t, tag+" logits", logits, b, refs.logits64[b])
			assertRowsClose(t, tag+" captured", captured, b, refs.captured64[b])
		}
		pool.Put(logits)
		pool.Put(captured)
	}
}

// TestForwardBatchAwkwardGeometry sweeps the capture index over every
// layer of two nets built from what the Table I nets do not have: a
// stride-2 convolution, odd maps under a 3×3 pool (nothing to fuse), a
// convolution feeding a pool and one feeding Flatten with no ReLU
// between, channel counts that are not a multiple of the 4-row micro
// tile, and K = 270 > blockK. It runs on every kernel level.
func TestForwardBatchAwkwardGeometry(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(909)
		for _, c := range []struct {
			net   *Network
			shape []int
		}{
			{New( // 2×19×19 → 6×9×9 → 6×3×3
				NewConv2D(6, 2, 3, 3, 2, r), NewReLU(), NewMaxPool(3),
				NewFlatten(), NewDense(54, 7, r),
			), []int{2, 19, 19}},
			{New( // 30×8×8 → 5×6×6 → 5×3×3 → 3×2×2
				NewConv2D(5, 30, 3, 3, 1, r), NewMaxPool(2),
				NewConv2D(3, 5, 2, 2, 1, r), NewFlatten(), NewReLU(), NewDense(12, 4, r),
			), []int{30, 8, 8}},
		} {
			inputs := make([]*tensor.Tensor, 9)
			for i := range inputs {
				inputs[i] = randInput(r, c.shape...)
			}
			pool := tensor.NewPool()
			for capture := 0; capture < c.net.NumLayers(); capture++ {
				for _, width := range []int{1, 3, 9} {
					logits, captured := c.net.ForwardBatchCapture(inputs[:width], capture, pool)
					for b, x := range inputs[:width] {
						tag := fmt.Sprintf("%s capture %d width %d", c.net, capture, width)
						oneLogits, oneCap := width1(c.net, x, capture)
						assertRowsEqual(t, tag+" logits", logits, b, oneLogits)
						assertRowsEqual(t, tag+" captured", captured, b, oneCap)
						wantLogits, wantCap := c.net.ForwardCapture(x, capture)
						assertRowsClose(t, tag+" logits", logits, b, wantLogits)
						assertRowsClose(t, tag+" captured", captured, b, wantCap)
					}
				}
			}
		}
	})
}

// TestObserveMatchesForwardCapture pins dataset-level inference: every
// sample is visited once, in order, across chunk boundaries, with the
// decision and captured row the width-1 pass gives (and the captured
// row within f32Tol of per-sample ForwardCapture); an empty dataset
// visits nothing.
func TestObserveMatchesForwardCapture(t *testing.T) {
	r := rng.New(910)
	net := randConvNet(r)
	samples := make([]Sample, 2*MaxChunk+7)
	for i := range samples {
		samples[i].Input = randInput(r, 2, 12, 12)
	}
	const capture = 9 // ReLU(fc(10))
	next := 0
	net.Observe(samples, capture, func(i, pred int, acts []float64) {
		if i != next {
			t.Fatalf("visited sample %d, want %d", i, next)
		}
		next++
		logits, captured := width1(net, samples[i].Input, capture)
		if pred != logits.ArgMax() {
			t.Fatalf("sample %d: decision %d, width-1 pass %d", i, pred, logits.ArgMax())
		}
		assertRowsEqual(t, "observed acts", tensor.FromSlice(acts, len(acts)), 0, captured)
		_, captured64 := net.ForwardCapture(samples[i].Input, capture)
		assertRowsClose(t, "observed acts", tensor.FromSlice(acts, len(acts)), 0, captured64)
	})
	if next != len(samples) {
		t.Fatalf("visited %d of %d samples", next, len(samples))
	}
	net.Observe(nil, capture, func(int, int, []float64) { t.Fatal("visit on an empty dataset") })
}

// TestForwardBatchCapturePreFlattenNoDoubleFree is the regression test
// for a pool-corruption bug: when the captured layer's output later
// flowed through Flatten (a view sharing its backing array), the view
// was recycled mid-pass even though the caller still held the captured
// tensor — and a caller returning the captured tensor afterwards put the
// same backing array into the pool twice, so two later Gets aliased one
// buffer.
func TestForwardBatchCapturePreFlattenNoDoubleFree(t *testing.T) {
	r := rng.New(707)
	net := randConvNet(r)
	const preFlatten = 6 // the MaxPool feeding Flatten in randConvNet
	if _, ok := net.Layer(preFlatten).(*MaxPool); !ok {
		t.Fatalf("layer %d is %s, expected the pre-Flatten MaxPool", preFlatten, net.Layer(preFlatten).Name())
	}
	inputs := make([]*tensor.Tensor, 3)
	for i := range inputs {
		inputs[i] = randInput(r, 2, 12, 12)
	}
	pool := tensor.NewPool()
	logits, captured := net.ForwardBatchCapture(inputs, preFlatten, pool)
	want := captured.Clone()
	// Return both results the way Monitor.watchChunkPooled does.
	pool.Put(logits)
	pool.Put(captured)
	// The captured backing must now be in the pool exactly once: two
	// Gets of its size must not alias each other.
	a := pool.Get(captured.Shape()...)
	b := pool.Get(captured.Shape()...)
	if &a.Data()[0] == &b.Data()[0] {
		t.Fatal("pool handed out the captured tensor's backing twice (double Put)")
	}
	pool.Put(a)
	pool.Put(b)
	// And a repeat pass on the warm pool must still be correct.
	_, captured2 := net.ForwardBatchCapture(inputs, preFlatten, pool)
	for i, v := range want.Data() {
		if captured2.Data()[i] != v {
			t.Fatalf("captured activations diverged on warm pool at %d", i)
		}
	}
}

// TestForwardBatchPoolWarmsUp checks the allocation-free contract: after
// one warm-up pass, repeated batches of the same shape take every buffer
// from the pool (no new misses) and still produce identical results.
func TestForwardBatchPoolWarmsUp(t *testing.T) {
	r := rng.New(404)
	net := randConvNet(r)
	inputs := make([]*tensor.Tensor, 6)
	for i := range inputs {
		inputs[i] = randInput(r, 2, 12, 12)
	}
	pool := tensor.NewPool()
	first := net.ForwardBatch(inputs, pool).Clone()
	pool.Put(net.ForwardBatch(inputs, pool)) // second pass, then recycle
	_, missesBefore := pool.Stats()
	for rep := 0; rep < 3; rep++ {
		out := net.ForwardBatch(inputs, pool)
		for i, v := range first.Data() {
			if out.Data()[i] != v {
				t.Fatalf("rep %d: output %d diverged on recycled buffers", rep, i)
			}
		}
		pool.Put(out)
	}
	if _, misses := pool.Stats(); misses != missesBefore {
		t.Fatalf("warm pool still allocating: misses %d → %d", missesBefore, misses)
	}
}

// TestForwardBatchConcurrent pins the no-shared-state claim: many
// goroutines run ForwardBatch on the SAME network (no CloneShared), each
// with a private pool. Run under -race this fails if any layer's batched
// path touches per-layer mutable state.
func TestForwardBatchConcurrent(t *testing.T) {
	r := rng.New(505)
	net := randConvNet(r)
	inputs := make([]*tensor.Tensor, 4)
	for i := range inputs {
		inputs[i] = randInput(r, 2, 12, 12)
	}
	want := net.ForwardBatch(inputs, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := tensor.NewPool()
			for rep := 0; rep < 5; rep++ {
				got := net.ForwardBatch(inputs, pool)
				for i, v := range want.Data() {
					if got.Data()[i] != v {
						t.Errorf("concurrent ForwardBatch diverged at %d", i)
						return
					}
				}
				pool.Put(got)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkForwardBatchNet1 is the fast local loop for inference work:
// one ForwardBatchCapture pass of network 1 (untrained — training does
// not change the arithmetic cost) on a warm pool at the widths serving
// sees: 1 (an idle lane, where the dense layers run the 1-row kernel),
// 2 (the same, twice), 4 (one whole 4-row strip), 8, 16 and 64 (a full
// chunk).
func BenchmarkForwardBatchNet1(b *testing.B) {
	r := rng.New(1)
	net, shape, monitored := tableINet(r, 1)
	inputs := make([]*tensor.Tensor, MaxChunk)
	for i := range inputs {
		inputs[i] = randInput(r, shape...)
	}
	for _, width := range []int{1, 2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("b%d", width), func(b *testing.B) {
			pool := tensor.NewPool()
			for i := 0; i < b.N+1; i++ {
				if i == 1 {
					b.ResetTimer() // pass 0 warmed the pool
				}
				logits, captured := net.ForwardBatchCapture(inputs[:width], monitored, pool)
				pool.Put(logits)
				pool.Put(captured)
			}
			b.ReportMetric(float64(width)*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
		})
	}
}

// TestForwardBatchRejectsBadBatch checks the input-validation panics:
// empty batches and shape-mismatched inputs must fail loudly rather than
// corrupt the stacked tensor.
func TestForwardBatchRejectsBadBatch(t *testing.T) {
	r := rng.New(606)
	net := randDenseNet(r, 4)
	assertPanics := func(tag string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", tag)
			}
		}()
		f()
	}
	assertPanics("empty batch", func() { net.ForwardBatch(nil, nil) })
	assertPanics("mismatched shapes", func() {
		net.ForwardBatch([]*tensor.Tensor{randInput(r, 4), randInput(r, 5)}, nil)
	})
	assertPanics("capture out of range", func() {
		net.ForwardBatchCapture([]*tensor.Tensor{randInput(r, 4)}, net.NumLayers(), nil)
	})
}
