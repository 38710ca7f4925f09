package core

// Tests of the epoch-swap online-update subsystem: the updater-vs-union
// equivalence property, epoch pinning under concurrent update+serve load,
// grace-period drain of retired epochs, and the UpdateGamma semantics.

import (
	"bytes"
	"sync"
	"testing"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// randomPatterns draws n distinct-ish random patterns of the given width.
func randomPatterns(r *rng.Source, n, width int) []Pattern {
	out := make([]Pattern, n)
	for i := range out {
		p := make(Pattern, width)
		for j := range p {
			p[j] = r.Bool(0.5)
		}
		out[i] = p
	}
	return out
}

// flipOne returns a copy of p with bit i flipped.
func flipOne(p Pattern, i int) Pattern {
	q := p.Clone()
	q[i] = !q[i]
	return q
}

// TestZoneCloneWithDeltaEquivalence is the zone-level half of the
// updater's correctness property: for random pattern sets split into a
// build half and an update half, the successor zone must answer
// Contains/Hamming-γ queries identically to a zone built from the union
// in one shot, at every cached enlargement level — both when the update
// folds (k = 0) and when it only appends to the overlay (k =
// overlayCap). This is the distributivity argument (expansion
// distributes over union) checked exhaustively on real BDDs.
func TestZoneCloneWithDeltaEquivalence(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 25; trial++ {
		width := 6 + int(r.Uint64()%8) // 6..13 neurons
		gamma := int(r.Uint64() % 4)   // cached levels 0..3
		nA := 1 + int(r.Uint64()%12)   // build half
		nB := 1 + int(r.Uint64()%12)   // update half
		a := randomPatterns(r, nA, width)
		b := randomPatterns(r, nB, width)

		built := buildZone(width, gamma, a...)
		union := buildZone(width, gamma, append(append([]Pattern{}, a...), b...)...)
		// Query set: both halves, their 1-bit neighbors, and random probes.
		queries := append(append([]Pattern{}, a...), b...)
		for _, p := range [][]Pattern{a, b} {
			for _, q := range p {
				queries = append(queries, flipOne(q, int(r.Uint64()%uint64(width))))
			}
		}
		queries = append(queries, randomPatterns(r, 40, width)...)
		for _, k := range []int{0, overlayCap} {
			updated, _ := built.cloneWithDelta(b, k)
			if folded := updated.pending() == 0; folded != (k == 0) {
				t.Fatalf("trial %d k=%d: %d patterns pending", trial, k, updated.pending())
			}
			if got, want := updated.InsertCount(), union.InsertCount(); got != want {
				t.Fatalf("trial %d k=%d: updated InsertCount %d, union %d", trial, k, got, want)
			}
			for g := 0; g <= gamma; g++ {
				for qi, q := range queries {
					if got, want := containsAt(t, updated, g, q), containsAt(t, union, g, q); got != want {
						t.Fatalf("trial %d k=%d width=%d gamma=%d/%d query %d: updated=%v union=%v",
							trial, k, width, g, gamma, qi, got, want)
					}
				}
			}
		}
	}
}

// TestMonitorUpdateEquivalence is the monitor-level property pinned by
// the issue: build from half the training set, absorb the other half
// through UpdateBatch, and the swapped monitor must answer exactly like a
// monitor built from the union in one shot — for every γ and every
// validation input.
func TestMonitorUpdateEquivalence(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 31)
	const gamma = 2
	half := len(train) / 2

	full, err := Build(net, train, Config{Layer: layer, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Build(net, train[:half], Config{Layer: layer, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	// Absorb the withheld half exactly as Build would have recorded it:
	// correctly classified samples only, keyed by ground-truth class.
	delta := make(map[int][]Pattern)
	for _, s := range train[half:] {
		v := part.Watch(net, s.Input)
		if v.Class != s.Label {
			continue
		}
		delta[s.Label] = append(delta[s.Label], v.Pattern)
	}
	if id, err := part.UpdateBatch(delta); err != nil || id != 2 {
		t.Fatalf("UpdateBatch = (%d, %v), want epoch 2", id, err)
	}

	inputs := make([]*tensor.Tensor, len(val))
	for i, s := range val {
		inputs[i] = s.Input
	}
	for g := 0; g <= gamma; g++ {
		if _, err := part.UpdateGamma(g); err != nil {
			t.Fatal(err)
		}
		if _, err := full.UpdateGamma(g); err != nil {
			t.Fatal(err)
		}
		want := full.WatchBatch(net, inputs)
		got := part.WatchBatch(net, inputs)
		for i := range want {
			if got[i].Class != want[i].Class || got[i].OutOfPattern != want[i].OutOfPattern ||
				got[i].Monitored != want[i].Monitored {
				t.Fatalf("gamma %d verdict %d: updated %+v, one-shot %+v", g, i, got[i], want[i])
			}
		}
	}
	// The zones must agree exactly, not just on the validation inputs:
	// same pattern count and node count per class at the final γ.
	for _, c := range full.Classes() {
		zf, zp := full.Zone(c), part.Zone(c)
		if zf.PatternCount() != zp.PatternCount() {
			t.Fatalf("class %d: pattern count %v (one-shot) vs %v (updated)",
				c, zf.PatternCount(), zp.PatternCount())
		}
	}
}

// TestEpochSwapConsistency is the concurrency regression test of the
// issue: hammer Update and WatchBatch simultaneously for many epochs
// (run under -race in CI) and assert that no batch ever mixes results
// from two epochs, and that every reader observes epoch ids
// monotonically non-decreasing.
func TestEpochSwapConsistency(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 32)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 0, 48)
	for _, s := range val[:48] {
		inputs = append(inputs, s.Input)
	}
	width := len(mon.Neurons())
	classes := mon.Classes()

	const epochs = 30
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // updater: one small delta per epoch
		defer wg.Done()
		defer close(stop)
		r := rng.New(99)
		for i := 0; i < epochs; i++ {
			c := classes[int(r.Uint64()%uint64(len(classes)))]
			if _, err := mon.Update(c, randomPatterns(r, 2, width)...); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			last := uint64(0)
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one final pass after the last update
				default:
				}
				verdicts := mon.WatchBatch(net, inputs)
				e := verdicts[0].Epoch
				for i, v := range verdicts {
					if v.Epoch != e {
						t.Errorf("batch mixes epochs %d and %d (verdict %d)", e, v.Epoch, i)
						return
					}
				}
				if e < last {
					t.Errorf("epoch went backwards: %d after %d", e, last)
					return
				}
				last = e
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := mon.Epoch(); got != 1+epochs {
		t.Fatalf("final epoch %d, want %d", got, 1+epochs)
	}
	if got := mon.Updater().Published(); got != epochs {
		t.Fatalf("published %d epochs, want %d", got, epochs)
	}
}

// TestEpochGracePeriod pins the retire protocol: a reader holding a
// retired epoch keeps answering from that generation's plans, untouched
// zones are shared with the successor, and no epoch, live or retired,
// holds a BDD manager.
func TestEpochGracePeriod(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 33)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	classes := mon.Classes()
	touched, untouched := classes[0], classes[1]
	oldTouched, oldUntouched := mon.Zone(touched), mon.Zone(untouched)

	// Hold epoch 1 like a long-running batch would.
	e := mon.cur.Load()
	if e.id != 1 {
		t.Fatalf("loaded epoch %+v", e)
	}
	// The first pattern outside the touched zone, then learned.
	p := make(Pattern, len(mon.Neurons()))
	for a := 0; oldTouched.Contains(p); a++ {
		if a == 1<<len(p) {
			t.Fatal("the touched zone holds every pattern")
		}
		for v := range p {
			p[v] = a&(1<<v) != 0
		}
	}
	if _, err := mon.Update(touched, p); err != nil {
		t.Fatal(err)
	}
	// The held reader still serves off the retired generation, which
	// has not learned p; the live epoch has.
	if e.zones[touched] != oldTouched || e.zones[touched].Contains(p) {
		t.Fatal("the epoch-1 reader does not see the retired generation")
	}
	if oop, monitored := mon.WatchPattern(touched, p); !monitored || oop {
		t.Fatalf("live epoch: out-of-pattern=%v monitored=%v for the learned pattern", oop, monitored)
	}

	// Nothing tears a retired epoch down: a handle taken from it is
	// plans, and plans keep answering.
	if oldTouched.Contains(p) {
		t.Fatal("retired zone changed its answer after the update")
	}
	if mon.Zone(untouched) != oldUntouched {
		t.Fatal("untouched zone was not shared with the successor epoch")
	}
	for _, z := range []*Zone{oldTouched, oldUntouched, mon.Zone(touched)} {
		if z.view.m != nil {
			t.Fatal("a published zone holds a BDD manager")
		}
	}
}

// TestUpdateGammaManagerSharing pins the re-view optimization. No epoch
// holds a manager to share: what an UpdateGamma to a cached level shares
// across epochs is the plans (nothing copied, nothing rebuilt), a deeper
// level rebuilds, and a reader still holding an earlier epoch answers at
// that epoch's γ whatever its successors share.
func TestUpdateGammaManagerSharing(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 34)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := mon.Classes()[0]
	orig := mon.Zone(c)

	// Hold epoch 1, then publish a re-view epoch 2 (gamma 1, cached):
	// shares every plan with epoch 1.
	e1 := mon.cur.Load()
	if _, err := mon.UpdateGamma(1); err != nil {
		t.Fatal(err)
	}
	if z := mon.Zone(c); &z.plans[0] != &orig.plans[0] || z.view != orig.view {
		t.Fatal("UpdateGamma to a cached level did not share the plans")
	}
	if got := mon.Gamma(); got != 1 {
		t.Fatalf("Gamma = %d after UpdateGamma(1)", got)
	}
	// Publish epoch 3 past the cached levels: every zone is rebuilt.
	if _, err := mon.UpdateGamma(4); err != nil {
		t.Fatal(err)
	}
	if z := mon.Zone(c); len(z.plans) != 5 || &z.plans[0] == &orig.plans[0] {
		t.Fatal("UpdateGamma past the cached levels did not rebuild")
	}
	// The epoch-1 reader still queries at its own γ = 2, on plans epoch 2
	// shared and epoch 3 no longer holds.
	probe := make(Pattern, e1.zones[c].Width())
	if got, want := e1.zones[c].Contains(probe), containsAt(t, orig, 2, probe); e1.gamma != 2 || got != want {
		t.Fatalf("epoch 1: gamma %d, Contains %v, want gamma 2, %v", e1.gamma, got, want)
	}
	// Current epoch (4 levels of expansion) still serves fine.
	verdict := mon.Watch(net, train[0].Input)
	if verdict.Epoch != 3 {
		t.Fatalf("verdict epoch %d, want 3", verdict.Epoch)
	}
}

// TestUpdateValidation pins the updater's error contract: unmonitored
// classes and width-mismatched patterns are rejected without publishing,
// and an empty delta is a no-op returning the current epoch.
func TestUpdateValidation(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 35)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1, Classes: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := len(mon.Neurons())
	if _, err := mon.Update(2, make(Pattern, w)); err == nil {
		t.Fatal("update for unmonitored class did not error")
	}
	if _, err := mon.Update(0, make(Pattern, w+1)); err == nil {
		t.Fatal("width-mismatched pattern did not error")
	}
	if id, err := mon.UpdateBatch(nil); err != nil || id != 1 {
		t.Fatalf("empty delta = (%d, %v), want no-op on epoch 1", id, err)
	}
	if id, err := mon.UpdateBatch(map[int][]Pattern{0: nil}); err != nil || id != 1 {
		t.Fatalf("empty class delta = (%d, %v), want no-op on epoch 1", id, err)
	}
	if got := mon.Epoch(); got != 1 {
		t.Fatalf("failed updates advanced the epoch to %d", got)
	}
	if got := mon.Updater().Absorbed(); got != 0 {
		t.Fatalf("failed updates absorbed %d patterns", got)
	}
}

// TestUpdateSoundness extends the paper's "sure guarantee" to the online
// path: after an update, every absorbed pattern is inside its class's
// zone at every γ, and everything that was in the zone before is still
// there (updates only grow zones).
func TestUpdateSoundness(t *testing.T) {
	r := rng.New(36)
	net, layer, train, _ := trainedToyNet(t, 36)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := len(mon.Neurons())
	c := mon.Classes()[0]
	before := randomPatterns(r, 32, w)
	inBefore := make([]bool, len(before))
	for i, p := range before {
		inBefore[i] = mon.Zone(c).Contains(p)
	}
	added := randomPatterns(r, 8, w)
	if _, err := mon.Update(c, added...); err != nil {
		t.Fatal(err)
	}
	z := mon.Zone(c)
	for g := 0; g <= 2; g++ {
		for i, p := range added {
			if !containsAt(t, z, g, p) {
				t.Fatalf("gamma %d: absorbed pattern %d not in zone", g, i)
			}
		}
	}
	for i, p := range before {
		if inBefore[i] && !z.Contains(p) {
			t.Fatalf("update shrank the zone (pattern %d fell out)", i)
		}
	}
}

// TestMonitorSaveLoadAfterUpdate checks that a snapshot captures the
// updated generation: a monitor that absorbed patterns online round-trips
// through Snapshot/LoadSnapshot with identical zone contents.
func TestMonitorSaveLoadAfterUpdate(t *testing.T) {
	r := rng.New(37)
	net, layer, train, val := trainedToyNet(t, 37)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := mon.Classes()[0]
	if _, err := mon.Update(c, randomPatterns(r, 5, len(mon.Neurons()))...); err != nil {
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
	if got, want := loaded.Zone(c).InsertCount(), mon.Zone(c).InsertCount(); got != want {
		t.Fatalf("loaded InsertCount %d, want %d", got, want)
	}
	for _, s := range val[:40] {
		want := mon.Watch(net, s.Input)
		got := loaded.Watch(net, s.Input)
		if got.Class != want.Class || got.OutOfPattern != want.OutOfPattern {
			t.Fatalf("loaded monitor diverges: %+v vs %+v", got, want)
		}
	}
}

// TestUpdateCounters pins the updater's observability surface.
func TestUpdateCounters(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 38)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Epoch(); got != 1 {
		t.Fatalf("build epoch id %d", got)
	}
	w := len(mon.Neurons())
	for i := 0; i < 3; i++ {
		if _, err := mon.Update(mon.Classes()[0], make(Pattern, w)); err != nil {
			t.Fatal(err)
		}
	}
	u := mon.Updater()
	if u.Published() != 3 {
		t.Fatalf("published %d, want 3", u.Published())
	}
	if u.Absorbed() != 3 {
		t.Fatalf("absorbed %d, want 3", u.Absorbed())
	}
	if mon.Epoch() != 4 {
		t.Fatalf("epoch %d, want 4", mon.Epoch())
	}
}
