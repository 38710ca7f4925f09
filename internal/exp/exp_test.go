package exp

import (
	"strings"
	"sync"
	"testing"

	"napmon/internal/core"
	"napmon/internal/dataset"
	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

func TestMNISTNetSpecsShape(t *testing.T) {
	specs, layer := MNISTNetSpecs()
	net, err := nn.Build(specs, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, dataset.MNISTImageSize, dataset.MNISTImageSize)
	logits, captured := net.ForwardCapture(x, layer)
	if logits.Len() != 10 {
		t.Fatalf("logits length = %d, want 10", logits.Len())
	}
	if captured.Len() != 40 {
		t.Fatalf("monitored layer width = %d, want 40 (ReLU(fc(40)))", captured.Len())
	}
	// The monitored layer must be a ReLU, per the paper.
	if _, ok := net.Layer(layer).(*nn.ReLU); !ok {
		t.Fatalf("monitored layer %d is %T, want *nn.ReLU", layer, net.Layer(layer))
	}
}

func TestGTSRBNetSpecsShape(t *testing.T) {
	specs, layer := GTSRBNetSpecs()
	net, err := nn.Build(specs, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, dataset.GTSRBImageSize, dataset.GTSRBImageSize)
	logits, captured := net.ForwardCapture(x, layer)
	if logits.Len() != 43 {
		t.Fatalf("logits length = %d, want 43", logits.Len())
	}
	if captured.Len() != 84 {
		t.Fatalf("monitored layer width = %d, want 84 (ReLU(fc(84)))", captured.Len())
	}
	if _, ok := net.Layer(layer).(*nn.ReLU); !ok {
		t.Fatalf("monitored layer %d is %T, want *nn.ReLU", layer, net.Layer(layer))
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(100); got != 50 {
		t.Fatalf("scaled(100) = %d", got)
	}
	if got := o.scaled(1); got != 1 {
		t.Fatalf("scaled floor broken: %d", got)
	}
	o.Scale = 0 // unset means full
	if got := o.scaled(100); got != 100 {
		t.Fatalf("scaled with zero Scale = %d", got)
	}
}

// tinyModels trains both networks once at a very small scale, shared
// across the tests below.
var (
	tinyOnce       sync.Once
	tinyM1, tinyM2 *Model
	tinyErr        error
)

func tinyModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tinyOnce.Do(func() {
		opts := Options{Scale: 0.06, Seed: 3}
		tinyM1, tinyErr = TrainMNIST(opts)
		if tinyErr != nil {
			return
		}
		tinyM2, tinyErr = TrainGTSRB(opts)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyM1, tinyM2
}

func TestTable1RowsAndRender(t *testing.T) {
	m1, m2 := tinyModels(t)
	rows := Table1Rows(m1, m2)
	if len(rows) != 2 || rows[0].ID != 1 || rows[1].ID != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	out := RenderTable1(rows)
	for _, frag := range []string{"TABLE I", "MNIST", "GTSRB", "conv(40)", "fc(43)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table I output missing %q:\n%s", frag, out)
		}
	}
}

func TestTable2MNIST(t *testing.T) {
	m1, _ := tinyModels(t)
	rows, mon, err := Table2ForModel(m1, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Column 4 (out-of-pattern rate) must be non-increasing in gamma.
	for i := 1; i < len(rows); i++ {
		if rows[i].Metrics.OutOfPattern > rows[i-1].Metrics.OutOfPattern {
			t.Fatalf("out-of-pattern counts not monotone: %+v", rows)
		}
	}
	// All 10 classes monitored: watched == total.
	if rows[0].Metrics.Watched != rows[0].Metrics.Total {
		t.Fatal("MNIST monitor must watch every class")
	}
	if mon.Gamma() != 2 {
		t.Fatalf("monitor left at gamma %d, want 2", mon.Gamma())
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "TABLE II") || !strings.Contains(out, "gamma") {
		t.Fatalf("Table II render malformed:\n%s", out)
	}
}

// TestTable2RejectsNegativeGamma: a negative level is an error, not a
// panic inside the sweep, and it is reported before anything is built (the
// model has no network to build from).
func TestTable2RejectsNegativeGamma(t *testing.T) {
	if _, _, err := Table2ForModel(&Model{ID: 1}, []int{2, -1}); err == nil || !strings.Contains(err.Error(), "negative gamma -1") {
		t.Fatalf("Table2ForModel(γ = -1) = %v, want a negative-gamma error", err)
	}
}

func TestTable2GTSRBStopSignOnly(t *testing.T) {
	_, m2 := tinyModels(t)
	rows, mon, err := Table2ForModel(m2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	classes := mon.Classes()
	if len(classes) != 1 || classes[0] != dataset.StopSignClass {
		t.Fatalf("monitored classes = %v, want [14]", classes)
	}
	if got := len(mon.Neurons()); got != 21 { // ceil(0.25 * 84)
		t.Fatalf("monitored neurons = %d, want 21", got)
	}
	// Only stop-sign-predicted images are watched.
	if rows[0].Metrics.Watched > rows[0].Metrics.Total {
		t.Fatal("watched exceeds total")
	}
}

func TestFigure2SweepShape(t *testing.T) {
	m1, _ := tinyModels(t)
	mon, err := core.Build(m1.Net, m1.Data.Train, MNISTMonitorConfig(m1))
	if err != nil {
		t.Fatal(err)
	}
	pts := Figure2Sweep(m1, mon, 6)
	if len(pts) != 7 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OutRate > pts[i-1].OutRate {
			t.Fatal("out-of-pattern rate increased with gamma")
		}
		if pts[i].ZonePatterns < pts[i-1].ZonePatterns {
			t.Fatal("zone size shrank with gamma")
		}
	}
	out := RenderFigure2(pts)
	if !strings.Contains(out, "FIGURE 2") || !strings.Contains(out, "alpha_1") {
		t.Fatalf("Figure 2 render malformed:\n%s", out)
	}
}

// TestVerifyCompiledServing runs the serving referee on both Table II
// monitors (every class; the stop sign alone) after their γ sweeps, and
// checks that it catches a monitor whose zones are not Definition 2's for
// the training set: built from no samples, every zone is empty, while the
// referee's γ = width ball around the recorded patterns holds everything.
func TestVerifyCompiledServing(t *testing.T) {
	m1, m2 := tinyModels(t)
	for _, m := range []*Model{m1, m2} {
		_, mon, err := Table2ForModel(m, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		n, flips, err := VerifyCompiledServing(m, mon)
		if err != nil {
			t.Fatalf("network %d: %v", m.ID, err)
		}
		if n != len(m.Data.Val) {
			t.Fatalf("network %d: checked %d of %d validation inputs", m.ID, n, len(m.Data.Val))
		}
		t.Logf("network %d: %d accepted float32 sign flips", m.ID, flips)
	}

	cfg := MNISTMonitorConfig(m1)
	cfg.Gamma = 40 // every monitored neuron
	empty, err := core.Build(m1.Net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyCompiledServing(m1, empty); err == nil || !strings.Contains(err.Error(), "Definition 2") {
		t.Fatalf("a monitor with empty zones passed the referee: %v", err)
	}
}

// TestFlipWithinEps pins the referee's tolerance for float32 serving: a
// served bit may differ from the float64 one only where the float64
// activation is within servedFlipEps of 0.
func TestFlipWithinEps(t *testing.T) {
	neurons := []int{0, 2, 3}
	acts := []float64{0.5, 7, -servedFlipEps / 2, -0.25}
	ref := core.Pattern{true, false, false}
	if flipped, err := flipWithinEps(core.Pattern{true, false, false}, ref, acts, neurons); flipped || err != nil {
		t.Fatalf("equal patterns: flipped %v, err %v", flipped, err)
	}
	if flipped, err := flipWithinEps(core.Pattern{true, true, false}, ref, acts, neurons); !flipped || err != nil {
		t.Fatalf("a flip within ε: flipped %v, err %v", flipped, err)
	}
	for _, served := range []core.Pattern{{false, false, false}, {true, true, true}, {true, false}} {
		if _, err := flipWithinEps(served, ref, acts, neurons); err == nil {
			t.Fatalf("served %v against %v passed", served, ref)
		}
	}
}

// TestProbeShape checks that the startup probe, which runs the path the
// serving lanes run, accepts the model's input shape and turns every
// mismatch into an error instead of a panic.
func TestProbeShape(t *testing.T) {
	specs, _ := MNISTNetSpecs()
	net, err := nn.Build(specs, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ProbeShape(net, []int{1, 28, 28}); err != nil {
		t.Fatalf("the model's own shape: %v", err)
	}
	for _, shape := range [][]int{{3, 32, 32}, {1, 27, 27}, {784}, {1, 4, 4}} {
		if err := ProbeShape(net, shape); err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("shape %v: err %v", shape, err)
		}
	}
}

func TestFrontCarStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	res, p, err := FrontCarStudy(Options{Scale: 0.15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || res == nil {
		t.Fatal("nil result")
	}
	if res.Shifted.OutOfPatternRate() <= res.InDist.OutOfPatternRate() {
		t.Fatalf("shift not detected: in %.3f vs shifted %.3f",
			res.InDist.OutOfPatternRate(), res.Shifted.OutOfPatternRate())
	}
	out := RenderFrontCar(res)
	if !strings.Contains(out, "FIGURE 3") || !strings.Contains(out, "shifted traffic") {
		t.Fatalf("front-car render malformed:\n%s", out)
	}
}

// TestOnlineStudySmall smoke-runs the online-phase experiment at reduced
// scale: the drift trace must start at the freeze epoch, advance one
// epoch per chunk, absorb a growing pattern count, and — by the
// updater's equivalence property — land exactly on the one-shot
// full-build reference.
func TestOnlineStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	res, err := onlineStudy(Options{Scale: 0.1, Seed: 6}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 { // freeze + 3 chunks
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Epoch != uint64(i+1) {
			t.Fatalf("point %d has epoch %d, want %d", i, p.Epoch, i+1)
		}
		if i > 0 && p.Absorbed < res.Points[i-1].Absorbed {
			t.Fatalf("absorbed count shrank at point %d", i)
		}
	}
	last := res.Points[len(res.Points)-1].Metrics
	if last.OutOfPattern != res.FullBuild.OutOfPattern || last.Watched != res.FullBuild.Watched {
		t.Fatalf("online trace did not converge to the full build: %+v vs %+v",
			last, res.FullBuild)
	}
	out := RenderOnline(res)
	if !strings.Contains(out, "ONLINE PHASE") || !strings.Contains(out, "one-shot") {
		t.Fatalf("online render malformed:\n%s", out)
	}
}
