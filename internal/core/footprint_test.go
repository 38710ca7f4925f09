package core

// Memory tests for "a frozen zone is its plans": the benchmark reads
// live_heap_mb once per run on whole workloads; these pin the same
// property per operation, on the zone_query shape, with the arithmetic
// visible.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"napmon/internal/rng"
)

// liveHeap returns the heap in use after two collections (the second
// clears what the first left in sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// planBytes sums the compiled plans of every cached level of every zone.
func planBytes(m *Monitor) (total uint64) {
	for _, c := range m.Classes() {
		for _, b := range m.Zone(c).PlanBytes() {
			total += uint64(b)
		}
	}
	return total
}

// TestFrozenZoneFootprint builds the 3-class × 400-pattern × width-40
// γ = 2 monitor and checks what it holds: within 1.2× the bytes of its
// plans — not the 54 MB a zone of this shape kept as an arena, a unique
// table and a computed table. The same after 10 learns (a shadow build
// leaves no manager, view or table behind, and nothing keeps the build's
// generation once every class is replaced) and for a monitor loaded from
// a snapshot.
func TestFrozenZoneFootprint(t *testing.T) {
	const classes, patterns, width, gamma = 3, 400, 40, 2
	r := rng.New(26)
	perClass := make(map[int][]Pattern, classes)
	for c := 0; c < classes; c++ {
		perClass[c] = randomPatterns(r, patterns, width)
	}
	deltas := make([][]Pattern, 10)
	for k := range deltas {
		deltas[k] = randomPatterns(r, 4, width)
	}

	base := liveHeap()
	grown := func(what string, m *Monitor, since uint64) {
		t.Helper()
		held, plans := int64(liveHeap())-int64(since), planBytes(m)
		t.Logf("%s: holds %.2f MB for %.2f MB of plans", what, float64(held)/1e6, float64(plans)/1e6)
		if 5*held > int64(6*plans) {
			t.Fatalf("%s: live heap grew %d B, more than 1.2 × the %d B of plans", what, held, plans)
		}
	}
	mon, err := BuildFromPatterns(width, gamma, perClass)
	if err != nil {
		t.Fatal(err)
	}
	grown("built", mon, base)

	for k, d := range deltas {
		if _, err := mon.UpdateBatch(map[int][]Pattern{k % classes: d}); err != nil {
			t.Fatal(err)
		}
	}
	grown("after 10 learns", mon, base)

	var snap bytes.Buffer
	if err := mon.Snapshot(&snap, nil); err != nil {
		t.Fatal(err)
	}
	base = liveHeap()
	follower, _, err := LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	grown("loaded from a snapshot", follower, base)
	runtime.KeepAlive(mon)
	runtime.KeepAlive(&snap)
}

// TestZoneBuildArena bounds what building one zone_query-shaped zone
// (400 patterns × width 40, γ = 2) leaves in its manager's arena, which
// keeps every node ever made: ≤ 250k nodes. Algorithm 1's literal 2·n·γ
// quantify-and-union loop left 1.03 M, nine tenths of them garbage; the
// one-pass ExpandHamming leaves about 153k.
func TestZoneBuildArena(t *testing.T) {
	b := newZoneBuilder(40, 2)
	for _, p := range randomPatterns(rng.New(30), 400, 40) {
		b.insert(p)
	}
	z, st := b.freeze()
	t.Logf("build arena: %d nodes for %d plan branches at γ=2", st.Nodes, z.NodeCount())
	if st.Nodes > 250_000 {
		t.Fatalf("building the zone left %d nodes in the arena, more than 250k", st.Nodes)
	}
}

// TestLoadSnapshotBuildsNoManager bounds what a decode allocates in total,
// garbage included: within 4× the plan bytes it decodes. A loader that
// rebuilt each level through a manager allocated an arena, a unique table
// and a computed table per class on top of the plans.
func TestLoadSnapshotBuildsNoManager(t *testing.T) {
	r := rng.New(27)
	perClass := map[int][]Pattern{0: randomPatterns(r, 200, 40), 1: randomPatterns(r, 200, 40)}
	mon, err := BuildFromPatterns(40, 2, perClass)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mon.Snapshot(&snap, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	follower, _, err := LoadSnapshot(bytes.NewReader(snap.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated, plans := after.TotalAlloc-before.TotalAlloc, planBytes(follower)
	t.Logf("decoding %d snapshot bytes into %d plan bytes allocated %d B (%.2f×)",
		snap.Len(), plans, allocated, float64(allocated)/float64(plans))
	if allocated > 4*plans {
		t.Fatalf("LoadSnapshot allocated %d B for %d B of plans, more than 4 ×", allocated, plans)
	}
}

// TestFrozenZoneViewConcurrent reaches the diagnostic view of a zone and
// of its γ re-view from several goroutines at once: it is materialised
// once, shared, and read-only afterwards (run under -race).
func TestFrozenZoneViewConcurrent(t *testing.T) {
	r := rng.New(28)
	z := buildZone(16, 1, randomPatterns(r, 12, 16)...)
	review, _ := z.cloneAtGamma(0)
	probes := randomPatterns(r, 64, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		zone := []*Zone{z, review}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range probes {
				if zone.Manager().EvalBits(zone.Root(), p) != zone.Contains(p) {
					t.Errorf("view and plan disagree at gamma %d", zone.Gamma())
					return
				}
			}
		}()
	}
	wg.Wait()
	if z.Manager() != review.Manager() || !z.Manager().Frozen() {
		t.Fatal("a re-view must share the one frozen view")
	}
}
