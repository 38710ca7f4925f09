package napmon_test

// Black-box tests of the public facade: the full workflow a downstream
// user follows, exercised through exported identifiers only.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"napmon"
)

// toyData builds a small separable 3-class problem.
func toyData(seed uint64, n int) []napmon.Sample {
	r := napmon.NewRNG(seed)
	centers := [][]float64{{2, 0, -2}, {-2, 2, 0}, {0, -2, 2}}
	out := make([]napmon.Sample, n)
	for i := range out {
		label := i % 3
		x := napmon.NewTensor(3)
		for j := range x.Data() {
			x.Data()[j] = centers[label][j] + 0.5*r.Norm()
		}
		out[i] = napmon.Sample{Input: x, Label: label}
	}
	return out
}

func toyNet(t *testing.T, seed uint64) *napmon.Network {
	t.Helper()
	net, err := napmon.BuildNetwork([]napmon.LayerSpec{
		{Kind: napmon.KindDense, In: 3, Out: 12},
		{Kind: napmon.KindReLU},
		{Kind: napmon.KindDense, In: 12, Out: 8},
		{Kind: napmon.KindReLU},
		{Kind: napmon.KindDense, In: 8, Out: 3},
	}, napmon.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPublicWorkflow(t *testing.T) {
	train := toyData(1, 300)
	net := toyNet(t, 2)
	stats := napmon.Train(net, train, napmon.TrainConfig{Epochs: 12, BatchSize: 16, LR: 0.05, Seed: 3})
	if len(stats) != 12 {
		t.Fatalf("got %d epoch stats", len(stats))
	}
	if acc := napmon.Accuracy(net, train); acc < 0.9 {
		t.Fatalf("training accuracy %v", acc)
	}

	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := toyData(4, 150)
	m := napmon.EvaluateMonitor(net, mon, val)
	if m.Total != 150 || m.Watched != 150 {
		t.Fatalf("metrics = %+v", m)
	}

	// Gamma sweep through the facade.
	sweep := napmon.GammaSweep(net, mon, val, []int{0, 1, 2})
	if len(sweep) != 3 {
		t.Fatal("sweep length wrong")
	}
	if sweep[2].OutOfPattern > sweep[0].OutOfPattern {
		t.Fatal("sweep not monotone")
	}
}

func TestPublicWatchBatch(t *testing.T) {
	train := toyData(19, 300)
	net := toyNet(t, 20)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Seed: 21})
	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := toyData(22, 120)
	inputs := make([]*napmon.Tensor, len(val))
	serial := make([]napmon.Verdict, len(val))
	for i, s := range val {
		inputs[i] = s.Input
		serial[i] = mon.Watch(net, s.Input)
	}
	batch := napmon.WatchBatch(net, mon, inputs)
	if len(batch) != len(val) {
		t.Fatalf("batch returned %d verdicts for %d inputs", len(batch), len(val))
	}
	for i := range batch {
		if batch[i].Class != serial[i].Class || batch[i].OutOfPattern != serial[i].OutOfPattern {
			t.Fatalf("verdict %d: batch %+v != serial %+v", i, batch[i], serial[i])
		}
	}
}

// TestPublicServe drives the streaming front end through the facade: a
// server built with napmon.Serve must return the same verdicts as serial
// Watch, drain on Shutdown, and then reject new submits with the typed
// error.
func TestPublicServe(t *testing.T) {
	train := toyData(23, 300)
	net := toyNet(t, 24)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Seed: 25})
	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := toyData(26, 90)
	serial := make([]napmon.Verdict, len(val))
	for i, s := range val {
		serial[i] = mon.Watch(net, s.Input)
	}
	srv, err := napmon.Serve(net, mon, napmon.ServerConfig{
		MaxBatch: 16,
		Lanes:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*napmon.Future, len(val))
	for i, s := range val {
		if futs[i], err = srv.Submit(s.Input); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if v.Class != serial[i].Class || v.OutOfPattern != serial[i].OutOfPattern {
			t.Fatalf("verdict %d: serve %+v != serial %+v", i, v, serial[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(val[0].Input); !errors.Is(err, napmon.ErrServerClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrServerClosed", err)
	}
	st := srv.Stats()
	if st.Served != uint64(len(val)) || st.Lanes != 2 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

func TestPublicModelRoundTrip(t *testing.T) {
	train := toyData(5, 120)
	net := toyNet(t, 6)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Seed: 7})

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := napmon.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range train[:20] {
		if loaded.Predict(s.Input) != net.Predict(s.Input) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

func TestPublicMonitorRoundTrip(t *testing.T) {
	train := toyData(8, 200)
	net := toyNet(t, 9)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 10})
	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "toy.monitor")
	if err := mon.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := napmon.LoadMonitorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	val := toyData(11, 100)
	for _, s := range val {
		a, b := mon.Watch(net, s.Input), loaded.Watch(net, s.Input)
		if a.OutOfPattern != b.OutOfPattern {
			t.Fatal("verdict changed after round trip")
		}
	}
}

func TestPublicNeuronSelection(t *testing.T) {
	train := toyData(12, 150)
	net := toyNet(t, 13)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Seed: 14})
	sel, err := napmon.SelectNeurons(net, train[:20], 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 { // ceil(0.5 * 8)
		t.Fatalf("selected %d neurons", len(sel))
	}
	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 0, Neurons: sel})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mon.Neurons()); got != 4 {
		t.Fatalf("monitor has %d neurons", got)
	}
}

func TestPublicInferGamma(t *testing.T) {
	train := toyData(15, 200)
	net := toyNet(t, 16)
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 17})
	mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, history := napmon.InferGamma(net, mon, toyData(18, 100), 0.5, 0.02, 4)
	if g < 0 || g > 4 || len(history) == 0 {
		t.Fatalf("InferGamma = %d with %d levels", g, len(history))
	}
}

func TestPublicDatasets(t *testing.T) {
	ds := napmon.MNISTLike(20, 10, 1)
	if ds.NumClasses != 10 || len(ds.Train) != 20 || len(ds.Val) != 10 {
		t.Fatalf("MNISTLike = %s %d/%d", ds.Name, len(ds.Train), len(ds.Val))
	}
	gs := napmon.GTSRBLike(43, 0, 2)
	if gs.NumClasses != 43 {
		t.Fatal("GTSRBLike class count wrong")
	}
	if napmon.StopSignClass != 14 {
		t.Fatal("stop sign class must be 14")
	}
}

// ExampleMonitor_Update demonstrates the serve-while-retraining loop: a
// monitor serves epoch 1 from the moment it is built, and absorbs a newly
// observed activation pattern by publishing a new serving epoch, without
// a serving gap. The pattern
// string is the wire form the napmon-serve daemon returns from /watch
// and accepts on /learn.
func ExampleMonitor_Update() {
	train := toyData(50, 300)
	net, _ := napmon.BuildNetwork([]napmon.LayerSpec{
		{Kind: napmon.KindDense, In: 3, Out: 12},
		{Kind: napmon.KindReLU},
		{Kind: napmon.KindDense, In: 12, Out: 8},
		{Kind: napmon.KindReLU},
		{Kind: napmon.KindDense, In: 8, Out: 3},
	}, napmon.NewRNG(51))
	napmon.Train(net, train, napmon.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 52})
	mon, _ := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 1})

	fmt.Println("epoch after build:", mon.Epoch()) // zones are immutable

	// The online updater absorbs new patterns by epoch swap. A production
	// loop would feed back patterns from flagged verdicts; here one
	// arrives as the /learn wire form.
	pattern, _ := napmon.ParsePattern("10110101")
	epoch, err := mon.Update(2, pattern)
	if err != nil {
		fmt.Println("update failed:", err)
		return
	}
	fmt.Println("epoch after update:", epoch)
	out, monitored := mon.WatchPattern(2, pattern)
	fmt.Println("absorbed pattern now in its comfort zone:", monitored && !out)
	// Output:
	// epoch after build: 1
	// epoch after update: 2
	// absorbed pattern now in its comfort zone: true
}

// TestPublicServeFleet drives the multi-tenant surface through the
// facade: two tenants served side by side, per-tenant verdicts matching
// serial Watch, pinned lookups surviving an unload of the other tenant,
// and a snapshot + delta-stream replication round trip between two
// registries using exported identifiers only.
func TestPublicServeFleet(t *testing.T) {
	build := func(netSeed, dataSeed uint64) (*napmon.Network, *napmon.Monitor, []napmon.Sample) {
		train := toyData(dataSeed, 300)
		net := toyNet(t, netSeed)
		napmon.Train(net, train, napmon.TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Seed: netSeed + 1})
		mon, err := napmon.BuildMonitor(net, train, napmon.Config{Layer: 3, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		return net, mon, train
	}
	netA, monA, _ := build(30, 31)
	netB, monB, _ := build(32, 33)

	fleet, err := napmon.ServeFleet(napmon.RegistryConfig{}, map[string]napmon.TenantConfig{
		"alpha": {Net: netA, Mon: monA},
		"beta":  {Net: netB, Mon: monB, Serve: napmon.ServerConfig{MaxBatch: 16, Lanes: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer fleet.Close(ctx)

	if n := fleet.Len(); n != 2 {
		t.Fatalf("fleet has %d tenants, want 2", n)
	}
	if _, err := fleet.Acquire("gamma"); !errors.Is(err, napmon.ErrTenantNotFound) {
		t.Fatalf("Acquire(gamma) = %v, want ErrTenantNotFound", err)
	}

	// Per-tenant verdicts match serial Watch against that tenant's model.
	val := toyData(34, 60)
	alpha, err := fleet.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range val {
		fut, err := alpha.Server().Submit(s.Input)
		if err != nil {
			t.Fatal(err)
		}
		v, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := monA.Watch(netA, s.Input)
		if v.Class != want.Class || v.OutOfPattern != want.OutOfPattern {
			t.Fatalf("alpha verdict %+v != serial %+v", v, want)
		}
	}

	// Unloading beta must not disturb the pinned alpha lane.
	if err := fleet.Unload(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
	if fut, err := alpha.Server().Submit(val[0].Input); err != nil {
		t.Fatal(err)
	} else if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	alpha.Release()

	// Replication: snapshot alpha, learn on the leader, stream the
	// deltas into a follower registry, and require epoch convergence.
	leader, err := fleet.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Release()
	var snap bytes.Buffer
	if err := leader.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	followerReg := napmon.NewRegistry(napmon.RegistryConfig{})
	defer followerReg.Close(ctx)
	follower, err := followerReg.LoadSnapshot("alpha", netA, &snap, napmon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := follower.Monitor().Epoch()
	pat, _ := napmon.ParsePattern("10110101")
	if _, err := leader.Learn(map[int][]napmon.Pattern{1: {pat}}); err != nil {
		t.Fatal(err)
	}
	deltas, err := leader.DeltasSince(base)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := napmon.EncodeDeltaStream(len(leader.Monitor().Neurons()), deltas)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := napmon.DecodeDeltaStream(stream, len(follower.Monitor().Neurons()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decoded {
		if err := follower.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	if le, fe := leader.Monitor().Epoch(), follower.Monitor().Epoch(); le != fe {
		t.Fatalf("follower epoch %d != leader epoch %d", fe, le)
	}
	if out, monitored := follower.Monitor().WatchPattern(1, pat); !monitored || out {
		t.Fatal("replicated pattern not in follower comfort zone")
	}
}
