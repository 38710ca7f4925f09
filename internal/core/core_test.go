package core

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

func TestPatternOf(t *testing.T) {
	acts := tensor.FromSlice([]float64{-1, 0, 0.001, 7}, 4)
	p := PatternOf(acts)
	want := Pattern{false, false, true, true}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PatternOf = %v, want %v", p, want)
		}
	}
}

func TestPatternOfSubset(t *testing.T) {
	acts := tensor.FromSlice([]float64{-1, 2, -3, 4, 5}, 5)
	p := PatternOfSubset(acts, []int{1, 2, 4})
	want := Pattern{true, false, true}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PatternOfSubset = %v, want %v", p, want)
		}
	}
}

func TestPatternOfSubsetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PatternOfSubset(tensor.FromSlice([]float64{1}, 1), []int{1})
}

func TestHamming(t *testing.T) {
	a := Pattern{true, false, true, false}
	b := Pattern{true, true, false, false}
	if d := Hamming(a, b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if d := Hamming(a, a); d != 0 {
		t.Fatalf("Hamming(a,a) = %d, want 0", d)
	}
}

func TestPatternStringAndKey(t *testing.T) {
	p := Pattern{true, false, true}
	if p.String() != "101" {
		t.Fatalf("String = %q", p.String())
	}
	q := Pattern{true, false, true, false}
	if p.Key() == q.Key() {
		t.Fatal("keys of different-length patterns collide")
	}
	if p.Key() != p.Clone().Key() {
		t.Fatal("key not deterministic")
	}
}

func randPattern(r *rng.Source, w int) Pattern {
	p := make(Pattern, w)
	for i := range p {
		p[i] = r.Bool(0.5)
	}
	return p
}

// buildZone builds the zone of pats over width neurons, queried at γ —
// the tests' front door to zoneBuilder.
func buildZone(width, gamma int, pats ...Pattern) *Zone {
	b := newZoneBuilder(width, gamma)
	for _, p := range pats {
		b.insert(p)
	}
	z, _ := b.freeze()
	return z
}

// containsAt reports membership at a cached level other than the zone's
// γ, reading its plan and overlay directly.
func containsAt(t testing.TB, z *Zone, gamma int, p Pattern) bool {
	t.Helper()
	if gamma >= len(z.plans) || len(p) != z.width {
		t.Fatalf("containsAt(γ=%d, width %d) on a zone of %d levels, width %d", gamma, len(p), len(z.plans), z.width)
	}
	return z.plans[gamma].Eval(p) || z.inOverlay(p, gamma)
}

func TestZoneInsertContains(t *testing.T) {
	r := rng.New(1)
	var inserted []Pattern
	for i := 0; i < 20; i++ {
		inserted = append(inserted, randPattern(r, 8))
	}
	z := buildZone(8, 0, inserted...)
	for _, p := range inserted {
		if !z.Contains(p) {
			t.Fatal("zone missing inserted pattern at gamma=0")
		}
	}
	if z.InsertCount() != 20 {
		t.Fatalf("InsertCount = %d", z.InsertCount())
	}
}

func TestZoneGammaMonotone(t *testing.T) {
	// Z⁰ ⊆ Z¹ ⊆ Z² — enlargement never removes patterns.
	r := rng.New(2)
	var pats []Pattern
	for i := 0; i < 10; i++ {
		pats = append(pats, randPattern(r, 10))
	}
	z := buildZone(10, 3, pats...)
	prev := -1.0
	for g := 0; g <= 3; g++ {
		zg, _ := z.cloneAtGamma(g)
		count := zg.PatternCount()
		if count < prev {
			t.Fatalf("zone shrank when enlarging: %v -> %v at gamma %d", prev, count, g)
		}
		prev = count
	}
}

func TestZoneContainsAtDoesNotChangeGamma(t *testing.T) {
	b := newZoneBuilder(4, 0)
	b.insert(Pattern{true, false, false, false})
	b.extendTo(1) // cache Z¹ beside the γ = 0 the zone is queried at
	z, _ := b.freeze()
	p := Pattern{true, true, false, false} // distance 1
	if z.Contains(p) {
		t.Fatal("gamma 0 zone contains distance-1 pattern")
	}
	if !containsAt(t, z, 1, p) {
		t.Fatal("ContainsAt(1) missed distance-1 pattern")
	}
	if z.Gamma() != 0 {
		t.Fatal("ContainsAt changed gamma")
	}
	if z.Contains(p) {
		t.Fatal("gamma changed by ContainsAt")
	}
}

func TestZoneInsertAfterExpandRecomputes(t *testing.T) {
	b := newZoneBuilder(5, 1)
	b.insert(Pattern{true, true, true, true, true})
	b.extendTo(1)
	// Inserting a new pattern must refresh the enlarged level too.
	q := Pattern{false, false, false, false, false}
	b.insert(q)
	z, _ := b.freeze()
	near := Pattern{true, false, false, false, false} // distance 1 from q
	if !z.Contains(near) {
		t.Fatal("enlargement stale after Insert")
	}
}

// TestInsertAtGammaIsLazy: an insert into a builder already enlarged to
// γ > 0 drops the enlarged levels instead of recomputing them, so 400
// inserts after extendTo(2) cost one enlargement (at freeze), not 400. The
// plans equal an insert-then-enlarge build's, and the session's arena is
// no larger than it.
func TestInsertAtGammaIsLazy(t *testing.T) {
	const n, width, gamma = 400, 40, 2
	pats := randomPatterns(rng.New(29), n, width)
	early, late := newZoneBuilder(width, gamma), newZoneBuilder(width, gamma)
	early.extendTo(gamma)
	for _, p := range pats {
		early.insert(p)
		late.insert(p)
	}
	if len(early.roots) != 1 {
		t.Fatalf("inserts at γ=%d left %d levels built, want Z⁰ alone", gamma, len(early.roots))
	}
	ze, se := early.freeze()
	zl, sl := late.freeze()
	if !samePlans(ze, zl) {
		t.Fatal("enlarge-then-insert plans differ from insert-then-enlarge plans")
	}
	t.Logf("build arena: %d nodes inserting at γ=%d, %d enlarging after", se.Nodes, gamma, sl.Nodes)
	if 2*se.Nodes > 3*sl.Nodes {
		t.Fatalf("inserting at γ=%d built %d nodes, more than 1.5 × the %d of enlarging once", gamma, se.Nodes, sl.Nodes)
	}
}

// samePlans reports whether two zones hold the same program at
// every cached level.
func samePlans(a, b *Zone) bool {
	if len(a.plans) != len(b.plans) {
		return false
	}
	for k, pa := range a.plans {
		pb := b.plans[k]
		if pa.Entry() != pb.Entry() || pa.Len() != pb.Len() {
			return false
		}
		for i := 0; i < pa.Len(); i++ {
			if pa.Branch(i) != pb.Branch(i) {
				return false
			}
		}
	}
	return true
}

func TestZonePatternCountGamma0(t *testing.T) {
	seen := map[string]bool{}
	r := rng.New(3)
	var pats []Pattern
	for i := 0; i < 30; i++ {
		p := randPattern(r, 6)
		seen[p.Key()] = true
		pats = append(pats, p)
	}
	z := buildZone(6, 0, pats...)
	if got := z.PatternCount(); got != float64(len(seen)) {
		t.Fatalf("PatternCount = %v, want %d distinct", got, len(seen))
	}
}

// Property: the BDD zone and the exact reference zone agree on membership
// for all γ and random pattern sets — Algorithm 1's enlargement is exactly
// the Hamming ball.
func TestZoneMatchesExactZoneProperty(t *testing.T) {
	check := func(seed uint32, gammaRaw uint8) bool {
		gamma := int(gammaRaw % 4)
		const w = 9
		r := rng.New(uint64(seed))
		e := NewExactZone(w)
		var pats []Pattern
		for i := 0; i < 1+r.Intn(8); i++ {
			p := randPattern(r, w)
			pats = append(pats, p)
			e.Insert(p)
		}
		z := buildZone(w, gamma, pats...)
		e.SetGamma(gamma)
		for i := 0; i < 200; i++ {
			p := randPattern(r, w)
			if z.Contains(p) != e.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExactZoneHammingThreshold(t *testing.T) {
	e := NewExactZone(6)
	p := Pattern{true, true, true, false, false, false}
	e.Insert(p)
	q := p.Clone()
	q[0] = false
	q[3] = true // distance 2
	for g := 0; g < 4; g++ {
		e.SetGamma(g)
		if got, want := e.Contains(q), g >= 2; got != want {
			t.Fatalf("gamma %d: Contains = %v, want %v", g, got, want)
		}
	}
}

// trainedToyNet builds and trains a small fully-connected classifier on
// three Gaussian blobs; monitor tests run against it. Returns the network,
// the monitored layer index (a ReLU layer), and train/validation sets.
func trainedToyNet(t testing.TB, seed uint64) (*nn.Network, int, []nn.Sample, []nn.Sample) {
	t.Helper()
	r := rng.New(seed)
	centers := [][4]float64{
		{2, 0, -2, 0},
		{-2, 2, 0, -1},
		{0, -2, 2, 1},
	}
	gen := func(n int, noise float64) []nn.Sample {
		var out []nn.Sample
		for i := 0; i < n; i++ {
			label := i % len(centers)
			x := tensor.New(4)
			for j := range x.Data() {
				x.Data()[j] = r.NormScaled(centers[label][j], noise)
			}
			out = append(out, nn.Sample{Input: x, Label: label})
		}
		return out
	}
	train := gen(300, 0.6)
	val := gen(150, 0.6)
	net := nn.New(
		nn.NewDense(4, 16, r), nn.NewReLU(),
		nn.NewDense(16, 10, r), nn.NewReLU(), // monitored layer: index 3
		nn.NewDense(10, 3, r),
	)
	nn.Train(net, train, nn.TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Seed: seed})
	if acc := nn.Accuracy(net, train); acc < 0.9 {
		t.Fatalf("toy network underfit: accuracy %v", acc)
	}
	return net, 3, train, val
}

func TestBuildSoundness(t *testing.T) {
	// The paper's "sure guarantee": every correctly classified training
	// sample's pattern must be inside its class zone at every γ.
	net, layer, train, _ := trainedToyNet(t, 1)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g <= 2; g++ {
		if _, err := mon.UpdateGamma(g); err != nil {
			t.Fatal(err)
		}
		for _, s := range train {
			v := mon.Watch(net, s.Input)
			if v.Class != s.Label {
				continue // misclassified samples are not recorded
			}
			if !v.Monitored {
				t.Fatal("monitored class reported unmonitored")
			}
			if v.OutOfPattern {
				t.Fatalf("gamma %d: correctly classified training sample flagged out-of-pattern", g)
			}
		}
	}
}

func TestBuildSkipsMisclassified(t *testing.T) {
	// A network that misclassifies everything must produce empty zones.
	r := rng.New(7)
	net := nn.New(nn.NewDense(2, 4, r), nn.NewReLU(), nn.NewDense(4, 2, r))
	x := tensor.FromSlice([]float64{1, 1}, 2)
	pred := net.Predict(x)
	wrong := 1 - pred
	mon, err := Build(net, []nn.Sample{{Input: x, Label: wrong}}, Config{Layer: 1, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Zone(wrong).InsertCount(); got != 0 {
		t.Fatalf("misclassified sample recorded: %d inserts", got)
	}
	if mon.Zone(pred).InsertCount() != 0 {
		t.Fatal("pattern recorded under predicted class despite wrong label")
	}
}

func TestBuildValidatesConfig(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 2)
	cases := []Config{
		{Layer: -1},
		{Layer: 99},
		{Layer: layer, Gamma: -1},
		{Layer: layer, Classes: []int{5}},
		{Layer: layer, Classes: []int{0, 0}},
		{Layer: layer, Neurons: []int{}},
		{Layer: layer, Neurons: []int{3, 1}},
		{Layer: layer, Neurons: []int{1, 1}},
		{Layer: layer, Neurons: []int{99}},
	}
	for i, cfg := range cases {
		if _, err := Build(net, train[:10], cfg); err == nil {
			t.Fatalf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestMonitorSubsetOfClasses(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 3)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0, Classes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Classes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Classes = %v", got)
	}
	sawUnmonitored := false
	for _, s := range val {
		v := mon.Watch(net, s.Input)
		if v.Class != 1 && v.Monitored {
			t.Fatal("unmonitored class watched")
		}
		if v.Class != 1 {
			sawUnmonitored = true
		}
	}
	if !sawUnmonitored {
		t.Skip("validation set never predicted an unmonitored class")
	}
	m := Evaluate(net, mon, val)
	if m.Watched >= m.Total {
		t.Fatalf("Watched %d should be < Total %d for single-class monitor", m.Watched, m.Total)
	}
}

func TestMonitorNeuronSubset(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 4)
	neurons := []int{0, 2, 5, 7}
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0, Neurons: neurons})
	if err != nil {
		t.Fatal(err)
	}
	if mon.Zone(0).Width() != len(neurons) {
		t.Fatalf("zone width = %d, want %d", mon.Zone(0).Width(), len(neurons))
	}
	v := mon.Watch(net, val[0].Input)
	if len(v.Pattern) != len(neurons) {
		t.Fatalf("verdict pattern width = %d", len(v.Pattern))
	}
	// Soundness still holds on the projected patterns.
	for _, s := range train[:100] {
		v := mon.Watch(net, s.Input)
		if v.Class == s.Label && v.OutOfPattern {
			t.Fatal("projected monitor unsound")
		}
	}
}

func TestGammaSweepMonotoneOutOfPattern(t *testing.T) {
	// Enlarging the abstraction can only reduce out-of-pattern reports —
	// the mechanism behind Figure 2's coarseness dial and Table II's
	// decreasing column 4.
	net, layer, train, val := trainedToyNet(t, 5)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	sweep := GammaSweep(net, mon, val, []int{0, 1, 2, 3})
	for i := 1; i < len(sweep); i++ {
		if sweep[i].OutOfPattern > sweep[i-1].OutOfPattern {
			t.Fatalf("out-of-pattern count increased with gamma: %+v", sweep)
		}
	}
	// At gamma = width the zone covers everything reachable by flipping
	// all monitored bits: nothing can be out of pattern.
	if _, err := mon.UpdateGamma(mon.Zone(0).Width()); err != nil {
		t.Fatal(err)
	}
	full := Evaluate(net, mon, val)
	if full.OutOfPattern != 0 {
		t.Fatalf("gamma=width still flags %d samples", full.OutOfPattern)
	}
}

// TestGammaSweepMatchesFreshBuilds is the sweep's differential check:
// each level it answers from a re-viewed cached plan must give the same
// metrics as a monitor built from scratch at that γ, whatever order the
// levels are asked in.
func TestGammaSweepMatchesFreshBuilds(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 5)
	fresh := make(map[int]Metrics)
	for g := 0; g <= 3; g++ {
		mon, err := Build(net, train, Config{Layer: layer, Gamma: g})
		if err != nil {
			t.Fatal(err)
		}
		fresh[g] = Evaluate(net, mon, val)
	}
	if fresh[0] == fresh[3] {
		t.Fatalf("γ = 0 and γ = 3 give the same metrics %+v: the check cannot tell levels apart", fresh[0])
	}
	for _, gammas := range [][]int{{0, 1, 2, 3}, {3, 0, 2, 1}} {
		mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
		if err != nil {
			t.Fatal(err)
		}
		sweep := GammaSweep(net, mon, val, gammas)
		for i, g := range gammas {
			if sweep[i] != fresh[g] {
				t.Fatalf("sweep %v at γ = %d: %+v, fresh build %+v", gammas, g, sweep[i], fresh[g])
			}
		}
		if last := gammas[len(gammas)-1]; mon.Gamma() != last {
			t.Fatalf("sweep %v left the monitor at γ = %d, want %d", gammas, mon.Gamma(), last)
		}
	}
}

func TestMetricsRatios(t *testing.T) {
	m := Metrics{Total: 200, Misclassified: 10, Watched: 100, OutOfPattern: 20, OutOfPatternMisclassified: 5}
	if m.MisclassificationRate() != 0.05 {
		t.Fatal("misclassification rate wrong")
	}
	if m.OutOfPatternRate() != 0.2 {
		t.Fatal("out-of-pattern rate wrong")
	}
	if m.OutOfPatternPrecision() != 0.25 {
		t.Fatal("precision wrong")
	}
	var zero Metrics
	if zero.MisclassificationRate() != 0 || zero.OutOfPatternRate() != 0 || zero.OutOfPatternPrecision() != 0 {
		t.Fatal("zero metrics must not divide by zero")
	}
}

func TestEvaluateConsistentWithWatch(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 6)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Metrics{Total: len(val)}
	for _, s := range val {
		v := mon.Watch(net, s.Input)
		mis := v.Class != s.Label
		if mis {
			want.Misclassified++
		}
		if v.Monitored {
			want.Watched++
			if v.OutOfPattern {
				want.OutOfPattern++
				if mis {
					want.OutOfPatternMisclassified++
				}
			}
		}
	}
	if got := Evaluate(net, mon, val); got != want {
		t.Fatalf("Evaluate = %+v, want %+v", got, want)
	}
}

func TestWatchPattern(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 7)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0, Classes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	p := make(Pattern, mon.Zone(0).Width())
	_, monitored := mon.WatchPattern(2, p)
	if monitored {
		t.Fatal("unmonitored class reported monitored")
	}
	if _, monitored := mon.WatchPattern(0, p); !monitored {
		t.Fatal("monitored class reported unmonitored")
	}
}

func TestSelectNeuronsByWeight(t *testing.T) {
	r := rng.New(8)
	out := nn.NewDense(6, 3, r)
	w := out.Weights()
	// Craft class-1 weights with known magnitude order.
	for i := 0; i < 6; i++ {
		w.Set(float64(i)-2.5, 1, i) // |w| = 2.5, 1.5, 0.5, 0.5, 1.5, 2.5
	}
	got, err := SelectNeuronsByWeight(out, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// |w| values: idx0=2.5 idx1=1.5 idx2=0.5 idx3=0.5 idx4=1.5 idx5=2.5.
	// ceil(0.5*6)=3 highest with stable tie-break toward lower index:
	// {0, 5, 1}, returned sorted ascending.
	want := []int{0, 1, 5}
	if len(got) != len(want) {
		t.Fatalf("SelectNeuronsByWeight = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectNeuronsByWeight = %v, want %v", got, want)
		}
	}
}

func TestSelectNeuronsByWeightRejectsBadArgs(t *testing.T) {
	out := nn.NewDense(4, 2, rng.New(9))
	if _, err := SelectNeuronsByWeight(out, 5, 0.5); err == nil {
		t.Fatal("bad class accepted")
	}
	if _, err := SelectNeuronsByWeight(out, 0, 0); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := SelectNeuronsByWeight(out, 0, 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestGradientSelectionMatchesWeightsInSpecialCase(t *testing.T) {
	// When the monitored ReLU layer feeds the linear output directly, the
	// gradient of logit c at the monitored layer equals the weight row, so
	// both selection methods must agree (the paper's observation).
	net, layer, train, _ := trainedToyNet(t, 10)
	out := net.Layer(net.NumLayers() - 1).(*nn.Dense)
	const class = 1
	var classSamples []nn.Sample
	for _, s := range train {
		if s.Label == class {
			classSamples = append(classSamples, s)
		}
	}
	byGrad, err := SelectNeuronsForClass(net, classSamples[:10], layer, class, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	byWeight, err := SelectNeuronsByWeight(out, class, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(byGrad) != len(byWeight) {
		t.Fatalf("selection sizes differ: %v vs %v", byGrad, byWeight)
	}
	for i := range byGrad {
		if byGrad[i] != byWeight[i] {
			t.Fatalf("gradient selection %v != weight selection %v", byGrad, byWeight)
		}
	}
}

func TestSelectNeuronsMultiClass(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 11)
	sel, err := SelectNeurons(net, train[:30], layer, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 { // ceil(0.25 * 10)
		t.Fatalf("selected %d neurons, want 3", len(sel))
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] <= sel[i-1] {
			t.Fatal("selection not sorted ascending")
		}
	}
}

func TestSelectNeuronsEmptySamples(t *testing.T) {
	net, layer, _, _ := trainedToyNet(t, 12)
	if _, err := SelectNeurons(net, nil, layer, 0.5); err == nil {
		t.Fatal("empty sample set accepted")
	}
	if _, err := SelectNeuronsForClass(net, nil, layer, 0, 0.5); err == nil {
		t.Fatal("empty sample set accepted")
	}
}

func TestMonitorSaveLoadRoundTrip(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 13)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 2, Neurons: []int{0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Snapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Gamma() != 2 || loaded.LayerWidth() != mon.LayerWidth() || loaded.Config().Layer != layer ||
		!slices.Equal(loaded.Neurons(), mon.Neurons()) {
		t.Fatal("monitor metadata lost in round trip")
	}
	for _, s := range val {
		a := mon.Watch(net, s.Input)
		b := loaded.Watch(net, s.Input)
		if a.OutOfPattern != b.OutOfPattern || a.Monitored != b.Monitored || a.Class != b.Class {
			t.Fatal("verdicts differ after round trip")
		}
	}
	// Metrics must be identical too.
	if a, b := Evaluate(net, mon, val), Evaluate(net, loaded, val); a != b {
		t.Fatalf("metrics differ after round trip: %+v vs %+v", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := LoadSnapshot(bytes.NewReader([]byte("junk\n"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestInferGammaStopsOnPrecision(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 14)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, history := InferGamma(net, mon, val, 0.0, -1, 5)
	// With minPrecision 0 the very first level satisfies the criterion.
	if g != 0 || len(history) != 1 {
		t.Fatalf("InferGamma = %d with %d levels, want 0 with 1", g, len(history))
	}
	if mon.Gamma() != 0 {
		t.Fatal("monitor gamma not left at chosen level")
	}
}

func TestInferGammaCaps(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 15)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, history := InferGamma(net, mon, val, 2.0, -1, 3) // impossible precision
	if g != 3 {
		t.Fatalf("InferGamma = %d, want cap 3", g)
	}
	if len(history) != 4 {
		t.Fatalf("history has %d levels, want 4", len(history))
	}
}

func TestStorageNodesPositive(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 16)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mon.StorageNodes() <= 0 {
		t.Fatal("expected non-empty zones")
	}
}

func BenchmarkWatch(b *testing.B) {
	net, layer, train, val := trainedToyNet(b, 17)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Watch(net, val[i%len(val)].Input)
	}
}

func BenchmarkBuildMonitor(b *testing.B) {
	net, layer, train, _ := trainedToyNet(b, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(net, train, Config{Layer: layer, Gamma: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
