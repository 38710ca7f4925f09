package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// toyServerParts trains the small 3-class dense network used across the
// core tests and builds its γ=1 monitor — cheap enough for the race
// detector, real enough that verdicts differ between inputs.
func toyServerParts(t testing.TB, seed uint64) (*nn.Network, *core.Monitor, []*tensor.Tensor) {
	t.Helper()
	r := rng.New(seed)
	centers := [][4]float64{
		{2, 0, -2, 0},
		{-2, 2, 0, -1},
		{0, -2, 2, 1},
	}
	gen := func(n int) []nn.Sample {
		out := make([]nn.Sample, 0, n)
		for i := 0; i < n; i++ {
			label := i % len(centers)
			x := tensor.New(4)
			for j := range x.Data() {
				x.Data()[j] = r.NormScaled(centers[label][j], 0.6)
			}
			out = append(out, nn.Sample{Input: x, Label: label})
		}
		return out
	}
	train := gen(300)
	net := nn.New(
		nn.NewDense(4, 16, r), nn.NewReLU(),
		nn.NewDense(16, 10, r), nn.NewReLU(), // monitored layer: index 3
		nn.NewDense(10, 3, r),
	)
	nn.Train(net, train, nn.TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Seed: seed})
	mon, err := core.Build(net, train, core.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := gen(150)
	inputs := make([]*tensor.Tensor, len(val))
	for i, s := range val {
		inputs[i] = s.Input
	}
	return net, mon, inputs
}

func sameVerdict(a, b core.Verdict) bool {
	return a.Class == b.Class && a.Monitored == b.Monitored && a.OutOfPattern == b.OutOfPattern
}

func shutdownOK(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// holdLanes builds a server whose lanes are held back by the test: the
// coalescer runs, but no lane announces itself idle until release is
// called, so every accepted request parks in the coalescer exactly as it
// does behind lanes stuck mid-batch. That is how these tests build a
// backlog — by holding the lane, not by holding a clock. release is
// idempotent and also runs at cleanup, so a held server can always be
// shut down.
func holdLanes(t *testing.T, net *nn.Network, mon *core.Monitor, cfg Config) (s *Server, release func()) {
	t.Helper()
	s, err := newServer(net, mon, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(s.startLanes) }
	t.Cleanup(release)
	return s, release
}

// TestServeMatchesWatch pins correctness: every future resolves to
// exactly the serial Watch verdict for its input, in submission order.
func TestServeMatchesWatch(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 1)
	want := make([]core.Verdict, len(inputs))
	for i, x := range inputs {
		want[i] = mon.Watch(net, x)
	}
	s, err := New(net, mon, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	futs, err := s.SubmitAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if !sameVerdict(got, want[i]) {
			t.Fatalf("future %d: got %+v, want %+v", i, got, want[i])
		}
	}
	shutdownOK(t, s)
	st := s.Stats()
	if st.Served != uint64(len(inputs)) || st.Submitted != uint64(len(inputs)) {
		t.Fatalf("stats: %+v, want submitted=served=%d", st, len(inputs))
	}
	if st.Batches == 0 || st.MeanBatchSize <= 0 {
		t.Fatalf("stats did not record batches: %+v", st)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("latency percentiles inconsistent: %+v", st)
	}
}

// TestConcurrentSubmitters drives >100 goroutines of concurrent Submit
// traffic through one server (the CI race detector turns any serving-path
// write into a failure), then shuts down cleanly and checks accounting.
func TestConcurrentSubmitters(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 2)
	want := make([]core.Verdict, len(inputs))
	for i, x := range inputs {
		want[i] = mon.Watch(net, x)
	}
	s, err := New(net, mon, Config{MaxBatch: 32, QueueDepth: 64, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 128
	const perG = 5
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := (g*perG + k) % len(inputs)
				f, err := s.Submit(inputs[i])
				if err != nil {
					errCh <- err
					return
				}
				got, err := f.Wait()
				if err != nil {
					errCh <- err
					return
				}
				if !sameVerdict(got, want[i]) {
					errCh <- errors.New("verdict mismatch under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	shutdownOK(t, s)
	st := s.Stats()
	if want := uint64(goroutines * perG); st.Submitted != want || st.Served != want {
		t.Fatalf("stats after concurrent run: %+v, want submitted=served=%d", st, want)
	}
}

// TestSubmitAfterShutdown pins the typed-error contract.
func TestSubmitAfterShutdown(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 3)
	s, err := New(net, mon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shutdownOK(t, s)
	if _, err := s.Submit(inputs[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrServerClosed", err)
	}
	futs, err := s.SubmitAll(inputs[:3])
	if !errors.Is(err, ErrServerClosed) {
		t.Fatalf("SubmitAll after Shutdown = %v, want ErrServerClosed", err)
	}
	for i, f := range futs {
		if _, ferr := f.Wait(); !errors.Is(ferr, ErrServerClosed) {
			t.Fatalf("future %d after closed SubmitAll = %v, want ErrServerClosed", i, ferr)
		}
	}
	if st := s.Stats(); st.Rejected == 0 {
		t.Fatalf("rejected submits not counted: %+v", st)
	}
	// Shutdown is idempotent.
	shutdownOK(t, s)
}

// TestLoneRequestFlush pins the no-clock path: even with a MaxBatch no
// backlog could ever reach, a lone request leaves the coalescer the
// moment the lane is idle — there is nothing else it could be waiting
// for.
func TestLoneRequestFlush(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 4)
	s, err := New(net, mon, Config{MaxBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)
	for rep := 0; rep < 3; rep++ {
		f, err := s.Submit(inputs[rep])
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("lone request never left the coalescer")
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches != 3 || st.MeanBatchSize != 1 {
		t.Fatalf("expected 3 singleton batches, got %+v", st)
	}
}

// TestIdleLaneNoFloor pins the headline property of lane-driven
// dispatch on the default configuration: sequential requests on an idle
// server each ride alone and are answered at inference latency — the
// toy network's is microseconds, so a millisecond bound leaves a wide
// margin and still fails any wait on a timer.
func TestIdleLaneNoFloor(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 14)
	s, err := New(net, mon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)
	const n = 200
	trips := make([]time.Duration, n)
	for i := range trips {
		start := time.Now()
		f, err := s.Submit(inputs[i%len(inputs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		trips[i] = time.Since(start)
	}
	st := s.Stats()
	if st.Batches != n || st.MeanBatchSize != 1 {
		t.Fatalf("sequential requests shared batches: %+v", st)
	}
	slices.Sort(trips)
	if median := trips[n/2]; median >= time.Millisecond {
		t.Fatalf("median round trip on an idle server %v, want < 1ms", median)
	}
}

// TestMaxBatchFlush pins the cap: a backlog built while the lane is held
// leaves in MaxBatch-sized batches once the lane is released, and in one
// batch when the cap is out of reach.
func TestMaxBatchFlush(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 5)
	for _, tc := range []struct {
		maxBatch    int
		wantBatches uint64
		wantMean    float64
	}{
		{4, 2, 4},
		{1 << 20, 1, 8},
	} {
		s, release := holdLanes(t, net, mon, Config{MaxBatch: tc.maxBatch})
		futs, err := s.SubmitAll(inputs[:8])
		if err != nil {
			t.Fatal(err)
		}
		release()
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatalf("MaxBatch %d: future %d: %v", tc.maxBatch, i, err)
			}
		}
		shutdownOK(t, s)
		if st := s.Stats(); st.Batches != tc.wantBatches || st.MeanBatchSize != tc.wantMean {
			t.Fatalf("MaxBatch %d: expected %d batches of %v, got %+v", tc.maxBatch, tc.wantBatches, tc.wantMean, st)
		}
	}
}

// TestShutdownDrains checks the graceful path: everything accepted before
// Shutdown is served with a real verdict, including a backlog still
// parked in the coalescer behind a busy lane when Shutdown begins.
func TestShutdownDrains(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 6)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 1 << 20, QueueDepth: len(inputs)})
	futs, err := s.SubmitAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned %v with the backlog still parked behind a held lane", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("drained future %d failed: %v", i, err)
		}
	}
	if st := s.Stats(); st.Served != uint64(len(inputs)) {
		t.Fatalf("drain lost requests: %+v", st)
	}
}

// TestShutdownAbort checks the expired-context path with the lane held
// (as if stuck mid-batch): the abort fails every parked future with
// ErrServerClosed without waiting for the lane, and Shutdown returns the
// context error once the lane is back.
func TestShutdownAbort(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 7)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 1 << 20, QueueDepth: len(inputs)})
	futs, err := s.SubmitAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := make(chan error, 1)
	go func() { aborted <- s.Shutdown(ctx) }()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("future %d leaked by abort", i)
		}
		if _, err := f.Wait(); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("future %d: %v, want ErrServerClosed", i, err)
		}
	}
	release()
	if err := <-aborted; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Shutdown = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Served != 0 || st.Batches != 0 {
		t.Fatalf("aborted backlog was served: %+v", st)
	}
}

// TestConcurrentShutdownAbortWins checks that a patient Shutdown caller
// is not told the drain was clean when a concurrent caller's expired
// context aborted the server and failed the accepted requests. The lane
// is held until the abort has failed them, so the abort always wins.
func TestConcurrentShutdownAbortWins(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 11)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 1 << 20, QueueDepth: len(inputs)})
	futs, err := s.SubmitAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	patient := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		patient <- s.Shutdown(ctx)
	}()
	aborter := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		aborter <- s.Shutdown(ctx)
	}()
	for i, f := range futs {
		if _, err := f.Wait(); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("future %d: %v, want ErrServerClosed", i, err)
		}
	}
	release()
	if err := <-aborter; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborting Shutdown = %v, want context.Canceled", err)
	}
	if err := <-patient; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("patient Shutdown after concurrent abort = %v, want ErrServerClosed", err)
	}
}

// TestBackpressureQueueFull checks that a full queue blocks Submit rather
// than dropping, and that the blocked submit completes once the pipeline
// drains.
func TestBackpressureQueueFull(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 8)
	// QueueDepth 1: submits contend for one slot.
	s, err := New(net, mon, Config{MaxBatch: 8, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	futs, err := s.SubmitAll(inputs[:32])
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("future %d under backpressure: %v", i, err)
		}
	}
	shutdownOK(t, s)
}

func TestConfigValidate(t *testing.T) {
	net, mon, _ := toyServerParts(t, 9)
	for _, cfg := range []Config{
		{MaxBatch: -1}, {MaxDelay: -time.Second}, {QueueDepth: -1},
		{Lanes: -1},
	} {
		if _, err := New(net, mon, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(nil, mon, Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(net, nil, Config{}); err == nil {
		t.Fatal("nil monitor accepted")
	}
	s, err := New(net, mon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	shutdownOK(t, s)
}

// TestInputShapeGate checks the untrusted-input guard: with InputShape
// set, a mismatched tensor is rejected at Submit instead of panicking
// inside a lane goroutine (which would kill the whole server).
func TestInputShapeGate(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 10)
	s, err := New(net, mon, Config{MaxBatch: 1, InputShape: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)
	if _, err := s.Submit(tensor.New(5)); err == nil {
		t.Fatal("wrong-length input accepted")
	}
	if _, err := s.Submit(tensor.New(2, 2)); err == nil {
		t.Fatal("wrong-rank input accepted despite matching element count")
	}
	f, err := s.Submit(inputs[0])
	if err != nil {
		t.Fatalf("well-shaped input rejected: %v", err)
	}
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStagePercentiles pins the latencyRing-replacement shim: Stats.P50
// and P99 keep their nearest-rank-on-rank semantics, now answered by the
// total-stage histogram within its 1/32 relative error bound.
func TestStagePercentiles(t *testing.T) {
	var st stageStats
	if lat := st.latency(stageTotal); lat.P50 != 0 || lat.P99 != 0 || lat.Count != 0 {
		t.Fatalf("empty stage latency = %+v", lat)
	}
	// Small exact values (below 32ns they land in exact linear buckets).
	for _, d := range []time.Duration{40, 10, 30, 20} {
		st.record(stageTotal, d)
	}
	lat := st.latency(stageTotal)
	// Nearest rank over {10,20,30,40}: p50 → index 2 (30), p99 → index 3.
	if lat.P50 < 30 || lat.P50 > 30+30/32 {
		t.Fatalf("P50 = %v, want ~30", lat.P50)
	}
	if lat.P99 < 40 || lat.P99 > 40+40/32 {
		t.Fatalf("P99 = %v, want ~40", lat.P99)
	}
	if lat.Count != 4 {
		t.Fatalf("Count = %d, want 4", lat.Count)
	}
	// Realistic latency magnitudes stay within the error bound too.
	var st2 stageStats
	for i := 1; i <= 1000; i++ {
		st2.record(stageTotal, time.Duration(i)*time.Microsecond)
	}
	lat = st2.latency(stageTotal)
	exact50, exact99 := 501*time.Microsecond, 991*time.Microsecond
	if lat.P50 < exact50 || lat.P50 > exact50+exact50/32 {
		t.Fatalf("P50 = %v, want [%v, +1/32]", lat.P50, exact50)
	}
	if lat.P99 < exact99 || lat.P99 > exact99+exact99/32 {
		t.Fatalf("P99 = %v, want [%v, +1/32]", lat.P99, exact99)
	}

	// The stage clocks tile a request's life. For lone requests on an
	// idle server one request is one batch, so the per-batch stages line
	// up with the per-request ones and queue + coalesce + dispatch +
	// inference + zone_query must account for total: never more, and
	// short of it only by the lane's own un-clocked bookkeeping.
	net, mon, inputs := toyServerParts(t, 15)
	s, err := New(net, mon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		f, err := s.Submit(inputs[i%len(inputs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)
	var parts int64
	for stage := stageQueue; stage < stageTotal; stage++ {
		snap := s.stages.hist[stage].Snapshot()
		if snap.Count() != n {
			t.Fatalf("stage %s recorded %d observations for %d lone requests", stageNames[stage], snap.Count(), n)
		}
		parts += snap.Sum()
	}
	total := s.stages.hist[stageTotal].Snapshot()
	if gap := total.Sum() - parts; gap < 0 || gap > total.Sum()/4 {
		t.Fatalf("stages sum to %dns of a recorded total of %dns", parts, total.Sum())
	}
}

// TestServeWhileUpdating is the serve-while-retraining regression test:
// submitters hammer the server while a background updater continuously
// publishes new zone epochs through Server.Update. Run under -race in CI.
// Every future must resolve without error across every epoch swap (zero
// dropped requests), the epoch counters must advance, and every verdict
// must carry an epoch some update published.
func TestServeWhileUpdating(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 12)
	srv, err := New(net, mon, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	width := len(mon.Neurons())
	classes := mon.Classes()

	const epochs = 25
	const submitters = 4
	const perSubmitter = 200
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	wg.Add(1)
	go func() { // background updater
		defer wg.Done()
		r := rng.New(77)
		for i := 0; i < epochs; i++ {
			delta := make(map[int][]core.Pattern)
			c := classes[int(r.Uint64()%uint64(len(classes)))]
			p := make(core.Pattern, width)
			for j := range p {
				p[j] = r.Bool(0.5)
			}
			delta[c] = []core.Pattern{p}
			if _, err := srv.Update(delta); err != nil {
				errs <- err
				return
			}
		}
	}()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				fut, err := srv.Submit(inputs[(off+i)%len(inputs)])
				if err != nil {
					errs <- err
					return
				}
				v, err := fut.Wait()
				if err != nil {
					errs <- err
					return
				}
				if v.Epoch < 1 || v.Epoch > 1+epochs {
					errs <- fmt.Errorf("verdict epoch %d outside the published 1..%d", v.Epoch, 1+epochs)
					return
				}
			}
		}(s * 37)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request dropped or errored across epoch swaps: %v", err)
	}
	st := srv.Stats()
	if st.Served != submitters*perSubmitter {
		t.Fatalf("served %d, want %d", st.Served, submitters*perSubmitter)
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected %d requests", st.Rejected)
	}
	if st.Updates != epochs || st.Epoch != 1+epochs {
		t.Fatalf("stats epoch view = (epoch %d, updates %d), want (%d, %d)",
			st.Epoch, st.Updates, 1+epochs, epochs)
	}
	// Every update delta above is one pattern for one class, so no zone's
	// overlay reaches its cap: no swap recompiles a plan, and all 25
	// patterns wait in the serving epoch's overlays.
	if st.Recompiled != 0 || mon.Updater().Pending() != epochs {
		t.Fatalf("recompiled %d zone plans and %d patterns pending across %d one-pattern swaps, want 0 and %d",
			st.Recompiled, mon.Updater().Pending(), epochs, epochs)
	}
	// An update that changes nothing publishes no epoch and counts as
	// no update.
	if e, err := srv.Update(nil); err != nil || e != 1+epochs {
		t.Fatalf("empty update: epoch %d, %v; want %d", e, err, 1+epochs)
	}
	if st := srv.Stats(); st.Updates != epochs {
		t.Fatalf("an empty update moved Stats.Updates to %d, want %d", st.Updates, epochs)
	}
	shutdownOK(t, srv)
}

// TestServeUpdateChangesVerdicts pins the end-to-end effect: a pattern
// that the server flags out-of-pattern stops being flagged after it is
// fed back through Server.Update under its decided class — the /learn
// loop of cmd/napmon-serve.
func TestServeUpdateChangesVerdicts(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 13)
	srv, err := New(net, mon, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, srv)
	// Find a flagged input.
	var flagged *tensor.Tensor
	var verdict core.Verdict
	for _, x := range inputs {
		fut, err := srv.Submit(x)
		if err != nil {
			t.Fatal(err)
		}
		v, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if v.Monitored && v.OutOfPattern {
			flagged, verdict = x, v
			break
		}
	}
	if flagged == nil {
		t.Skip("no out-of-pattern input at this seed")
	}
	if _, err := srv.Update(map[int][]core.Pattern{verdict.Class: {verdict.Pattern}}); err != nil {
		t.Fatal(err)
	}
	fut, err := srv.Submit(flagged)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v.OutOfPattern {
		t.Fatal("absorbed pattern still flagged after the epoch swap")
	}
	if v.Epoch != verdict.Epoch+1 {
		t.Fatalf("post-update verdict epoch %d, want %d", v.Epoch, verdict.Epoch+1)
	}
}
