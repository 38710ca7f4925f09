package core

// Tests of the compiled-query-plan serving path and the sharded
// (per-class parallel) build: compiled and interpreted membership must
// agree bit for bit on every zone and every cached γ, epoch swaps must
// recompile only the zones they touch, and the parallel build must be
// deterministic regardless of worker count.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"napmon/internal/bdd"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// interpretedZone builds a zone from pats at γ and returns it with its
// builder's manager and roots: the interpreted oracle the plans came from.
func interpretedZone(width, gamma int, pats []Pattern) (*Zone, *bdd.Manager, []bdd.Node) {
	b := newZoneBuilder(width, gamma)
	for _, p := range pats {
		b.insert(p)
	}
	z, _ := b.freeze()
	return z, b.m, b.roots
}

// TestCompiledZoneAgreesWithInterpreted pins Contains and containsAt on
// a zone (compiled plans) bit-exact against the interpreted EvalBits walk
// of the manager that built it, for every cached γ: exhaustively for
// narrow zones, with random probes for monitor-width ones.
func TestCompiledZoneAgreesWithInterpreted(t *testing.T) {
	r := rng.New(41)
	for _, width := range []int{4, 8, 12} {
		z, m, roots := interpretedZone(width, 2, randomPatterns(r, 6, width))
		if len(z.plans) != len(roots) {
			t.Fatalf("width %d: %d plans for %d levels", width, len(z.plans), len(roots))
		}
		probe := make(Pattern, width)
		for a := 0; a < 1<<width; a++ {
			for v := 0; v < width; v++ {
				probe[v] = a&(1<<v) != 0
			}
			for g := range roots {
				want := m.EvalBits(roots[g], probe)
				if got := containsAt(t, z, g, probe); got != want {
					t.Fatalf("width %d γ=%d assignment %d: compiled %v, interpreted %v", width, g, a, got, want)
				}
			}
			if got, want := z.Contains(probe), m.EvalBits(roots[z.gamma], probe); got != want {
				t.Fatalf("width %d assignment %d: Contains %v, interpreted %v", width, a, got, want)
			}
			// The diagnostic view re-derived from the plans is the same
			// function again.
			if got, want := z.Manager().EvalBits(z.Root(), probe), m.EvalBits(roots[z.gamma], probe); got != want {
				t.Fatalf("width %d assignment %d: view %v, interpreted %v", width, a, got, want)
			}
		}
	}

	// Monitor-width zone: random probes plus the inserted patterns and
	// their Hamming-1 neighbors (the boundary the enlargement moves).
	const width = 40
	inserted := randomPatterns(r, 60, width)
	z, m, roots := interpretedZone(width, 2, inserted)
	probes := randomPatterns(r, 300, width)
	for _, p := range inserted[:10] {
		probes = append(probes, p)
		for v := 0; v < width; v += 7 {
			n := p.Clone()
			n[v] = !n[v]
			probes = append(probes, n)
		}
	}
	for g := range roots {
		for pi, p := range probes {
			want := m.EvalBits(roots[g], p)
			if got := containsAt(t, z, g, p); got != want {
				t.Fatalf("γ=%d probe %d: compiled %v, interpreted %v", g, pi, got, want)
			}
		}
	}
}

// TestContainsBatchMatchesContains checks the micro-batch entry point
// against per-pattern queries at batch widths on both sides of the
// bit-sliced dispatch threshold and across ragged 64-lane block
// boundaries (1, 63, 64, 65).
func TestContainsBatchMatchesContains(t *testing.T) {
	r := rng.New(17)
	const width = 24
	z := buildZone(width, 1, randomPatterns(r, 20, width)...)
	probes := randomPatterns(r, 97, width)
	batch := make([][]bool, len(probes))
	for i, p := range probes {
		batch[i] = p
	}
	for _, n := range []int{1, 63, 64, 65, len(batch)} {
		out := make([]bool, n)
		z.ContainsBatch(batch[:n], out)
		for i, p := range probes[:n] {
			if want := z.Contains(p); out[i] != want {
				t.Fatalf("n=%d probe %d: batch %v, single %v", n, i, out[i], want)
			}
		}
	}
}

// TestContainsBatchValidatesUpFront pins the batch contract: a short out
// and a mid-batch width mismatch panic with a core:-prefixed message
// before any verdict lands in out — never a bdd:-prefixed panic for short
// outputs, and never after earlier verdicts were already written.
func TestContainsBatchValidatesUpFront(t *testing.T) {
	const width = 12
	z := buildZone(width, 0, make(Pattern, width)) // zone = {all-zeros}
	mustPanicCore := func(name string, f func()) {
		t.Helper()
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatalf("%s did not panic", name)
			}
			if msg, ok := rec.(string); !ok || !strings.HasPrefix(msg, "core:") {
				t.Fatalf("%s panicked with %v, want a core:-prefixed message", name, rec)
			}
		}()
		f()
	}
	good := func() []bool { return make([]bool, width) }
	mustPanicCore("short out", func() {
		z.ContainsBatch([][]bool{good(), good(), good()}, make([]bool, 2))
	})
	// A batch whose every valid pattern is OUTSIDE the zone (bit 0 set)
	// would write false into out; the true sentinels surviving the panic
	// proves validation ran before any verdict.
	bad := make([][]bool, 40)
	for i := range bad {
		p := good()
		p[0] = true
		bad[i] = p
	}
	bad[25] = make([]bool, width-1)
	out := make([]bool, len(bad))
	for i := range out {
		out[i] = true
	}
	mustPanicCore("mid-batch width mismatch", func() { z.ContainsBatch(bad, out) })
	for i, v := range out {
		if !v {
			t.Fatalf("verdict %d written before the whole batch was validated", i)
		}
	}
}

// TestBuildFromPatterns covers the network-free build path: monitored
// membership must match hand-built zones, and the pattern-level serving
// entry points must work.
func TestBuildFromPatterns(t *testing.T) {
	r := rng.New(23)
	const width = 16
	perClass := map[int][]Pattern{
		0: randomPatterns(r, 12, width),
		3: randomPatterns(r, 7, width),
		5: randomPatterns(r, 1, width),
	}
	mon, err := BuildFromPatterns(width, 1, perClass)
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Classes(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("classes = %v", got)
	}
	for c, pats := range perClass {
		ref := buildZone(width, 1, pats...)
		for _, probe := range append(randomPatterns(r, 50, width), pats...) {
			oop, monitored := mon.WatchPattern(c, probe)
			if !monitored {
				t.Fatalf("class %d unmonitored", c)
			}
			if oop == ref.Contains(probe) {
				t.Fatalf("class %d probe %s: monitor oop=%v, reference contains=%v", c, probe, oop, ref.Contains(probe))
			}
		}
	}
	// Online updates work on a pattern-only monitor.
	if _, err := mon.Update(3, randomPatterns(r, 2, width)...); err != nil {
		t.Fatal(err)
	}

	// Input validation.
	if _, err := BuildFromPatterns(0, 1, perClass); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := BuildFromPatterns(width, -1, perClass); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := BuildFromPatterns(width, 1, nil); err == nil {
		t.Fatal("empty class map accepted")
	}
	if _, err := BuildFromPatterns(width, 1, map[int][]Pattern{1: {make(Pattern, width-1)}}); err == nil {
		t.Fatal("width-mismatched pattern accepted")
	}
	if _, err := BuildFromPatterns(width, 1, map[int][]Pattern{-2: nil}); err == nil {
		t.Fatal("negative class accepted")
	}
}

// TestParallelBuildDeterministic pins the manager-sharded build: the
// same patterns produce byte-identical zone stacks (same BDD node
// counts, same membership on exhaustive probes) whatever GOMAXPROCS is.
func TestParallelBuildDeterministic(t *testing.T) {
	r := rng.New(77)
	const width = 12
	perClass := map[int][]Pattern{}
	for c := 0; c < 6; c++ {
		perClass[c] = randomPatterns(r, 10+c*13, width)
	}
	build := func(procs int) *Monitor {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		mon, err := BuildFromPatterns(width, 2, perClass)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	ref := build(1)
	for _, procs := range []int{2, 4, 8} {
		mon := build(procs)
		for c := range perClass {
			zr, zm := ref.Zone(c), mon.Zone(c)
			if zr.NodeCount() != zm.NodeCount() {
				t.Fatalf("procs=%d class %d: %d nodes vs %d sequential", procs, c, zm.NodeCount(), zr.NodeCount())
			}
			if zr.PatternCount() != zm.PatternCount() {
				t.Fatalf("procs=%d class %d: pattern count %v vs %v", procs, c, zm.PatternCount(), zr.PatternCount())
			}
			probe := make(Pattern, width)
			for a := 0; a < 1<<width; a += 5 {
				for v := 0; v < width; v++ {
					probe[v] = a&(1<<v) != 0
				}
				if zr.Contains(probe) != zm.Contains(probe) {
					t.Fatalf("procs=%d class %d assignment %d: membership diverged", procs, c, a)
				}
			}
		}
	}
}

// BenchmarkMonitorBuildParallel measures the manager-sharded zone build
// in isolation (BuildFromPatterns: no inference, pure per-class BDD
// insertion + γ-enlargement) on an 8-class monitor, with GOMAXPROCS
// pinned per sub-benchmark. The 8 per-class managers are independent
// single-writer shards, so on a multi-core host cpu4 should build well
// ahead of cpu1. Nothing gates it: bench/'s setup_s on the zone workloads
// is the end-to-end reading of the same build.
func BenchmarkMonitorBuildParallel(b *testing.B) {
	const width, classes, perClass = 48, 8, 300
	r := rng.New(19)
	pats := make(map[int][]Pattern, classes)
	for c := 0; c < classes; c++ {
		pats[c] = randomPatterns(r, perClass, width)
	}
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("cpu%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				if _, err := BuildFromPatterns(width, 2, pats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZoneBuild times one zone_query-shaped zone from empty to
// compiled plans (400 inserts × width 40 at γ = 2, then freeze) and reports
// the nodes its build session left in the arena. Un-gated, like
// BenchmarkMonitorBuildParallel: bench/'s setup_s on zone_query is the
// end-to-end reading, TestZoneBuildArena the bound.
func BenchmarkZoneBuild(b *testing.B) {
	pats := randomPatterns(rng.New(30), 400, 40)
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zb := newZoneBuilder(40, 2)
		for _, p := range pats {
			zb.insert(p)
		}
		_, session := zb.freeze()
		nodes = session.Nodes
	}
	b.ReportMetric(float64(nodes), "arena_nodes")
}

// TestUpdateRecompilesOnlyTouchedZones asserts, via the compile
// counters, that epoch swaps pay plan compilation only for the zones
// they fold: a learn below the overlay cap compiles nothing (the touched
// zone is replaced but shares its plans), a learn that pushes overlays
// past the cap rebuilds exactly the zones it pushes, untouched classes
// share the predecessor's Zone, and an UpdateGamma re-view to a cached
// level compiles nothing.
func TestUpdateRecompilesOnlyTouchedZones(t *testing.T) {
	r := rng.New(13)
	const width = 14
	perClass := map[int][]Pattern{}
	for c := 0; c < 5; c++ {
		perClass[c] = randomPatterns(r, 8, width)
	}
	mon, err := BuildFromPatterns(width, 2, perClass)
	if err != nil {
		t.Fatal(err)
	}
	upd := mon.Updater()
	if got := upd.Recompiled(); got != 0 {
		t.Fatalf("the build alone recompiled %d zones", got)
	}
	before := map[int]*Zone{}
	for c := 0; c < 5; c++ {
		before[c] = mon.Zone(c)
	}
	compiles := mon.ManagerStatsTotal().Compiles

	// Touch one class below the cap: nothing compiles. The touched zone
	// is a new Zone on the same plans; the other four Zone handles are
	// shared pointers.
	if _, err := mon.Update(2, randomPatterns(r, 3, width)...); err != nil {
		t.Fatal(err)
	}
	if got := upd.Recompiled(); got != 0 {
		t.Fatalf("a learn below the cap recompiled %d zones", got)
	}
	if got := mon.ManagerStatsTotal().Compiles; got != compiles {
		t.Fatalf("a learn below the cap compiled %d plans", got-compiles)
	}
	if got := upd.Pending(); got != 3 {
		t.Fatalf("Pending = %d after a 3-pattern learn, want 3", got)
	}
	for c := 0; c < 5; c++ {
		cur := mon.Zone(c)
		if c == 2 {
			if cur == before[c] || &cur.plans[0] != &before[c].plans[0] {
				t.Fatal("the touched zone was not replaced on the same plans")
			}
			continue
		}
		if cur != before[c] {
			t.Fatalf("untouched class %d zone was replaced", c)
		}
	}

	// One batch pushes class 2 past the cap (3 + 62 > 64), fills class 0
	// to exactly the cap and adds one pattern to class 4: only class 2
	// folds.
	if _, err := mon.UpdateBatch(map[int][]Pattern{
		2: randomPatterns(r, overlayCap-1, width),
		0: randomPatterns(r, overlayCap, width),
		4: randomPatterns(r, 1, width),
	}); err != nil {
		t.Fatal(err)
	}
	if got := upd.Recompiled(); got != 1 {
		t.Fatalf("a batch pushing one zone past the cap recompiled %d zones, want 1", got)
	}
	if got := mon.ManagerStatsTotal().Compiles; got != compiles+3 {
		t.Fatalf("the fold compiled %d plans, want 3", got-compiles)
	}
	if got, want := upd.Pending(), overlayCap+1; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if z := mon.Zone(2); z.pending() != 0 || &z.plans[0] == &before[2].plans[0] {
		t.Fatal("the zone pushed past the cap was not folded into new plans")
	}

	// Re-view at a cached γ: zero recompiles, plans and overlays shared.
	held := mon.Zone(0)
	if _, err := mon.UpdateGamma(1); err != nil {
		t.Fatal(err)
	}
	if got := upd.Recompiled(); got != 1 {
		t.Fatalf("cached-level UpdateGamma recompiled %d-1 zones, want 0", got)
	}
	if z := mon.Zone(0); &z.plans[0] != &held.plans[0] || &z.overlay[0] != &held.overlay[0] {
		t.Fatal("cached-level UpdateGamma did not share the plans and overlay")
	}

	// Deeper γ: every zone is folded, extended and recompiled.
	if _, err := mon.UpdateGamma(4); err != nil {
		t.Fatal(err)
	}
	if got := upd.Recompiled(); got != 1+5 {
		t.Fatalf("deeper UpdateGamma recompiled %d-1 zones, want 5", got)
	}
	if got := upd.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a deeper UpdateGamma folded every zone", got)
	}

	// The cumulative compile counter agrees: one plan per level of every
	// zone built — five at the build and one fold at three levels, then
	// five at the five levels γ = 4 needs.
	if got, want := mon.ManagerStatsTotal().Compiles, uint64(5*3+1*3+5*5); got != want {
		t.Fatalf("%d plans compiled in total, want %d", got, want)
	}
	for c := 0; c < 5; c++ {
		if z := mon.Zone(c); len(z.plans) != 5 {
			t.Fatalf("class %d: %d plans, want 5", c, len(z.plans))
		}
	}
}

// TestWatchBatchGroupedMatchesWatch pins the grouped (per-class
// EvalBatch) serving path against per-sample Watch on a real network:
// same classes, same flags, same patterns, whatever order classes land
// in the batch. A partial-coverage monitor exercises the abstain runs of
// the grouping loop too.
func TestWatchBatchGroupedMatchesWatch(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 11)
	for _, classes := range [][]int{nil, {0, 2}} {
		mon, err := Build(net, train, Config{Layer: layer, Gamma: 1, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]*tensor.Tensor, len(val))
		for i := range val {
			xs[i] = val[i].Input
		}
		batch := mon.WatchBatch(net, xs)
		for i, v := range batch {
			single := mon.Watch(net, xs[i])
			if v.Class != single.Class || v.Monitored != single.Monitored ||
				v.OutOfPattern != single.OutOfPattern || v.Pattern.String() != single.Pattern.String() {
				t.Fatalf("classes %v input %d: batch %+v, single %+v", classes, i, v, single)
			}
		}
	}
}
