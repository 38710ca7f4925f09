package bdd

import (
	"sync"
	"testing"

	"napmon/internal/rng"
)

// TestUniqueTableGrowth forces several unique-table doublings and verifies
// canonicity survives every rehash: re-making any node must return its
// original handle.
func TestUniqueTableGrowth(t *testing.T) {
	m := NewManager(64)
	r := rng.New(11)
	bits := make([]bool, 64)
	var roots []Node
	var pats [][]bool
	for i := 0; i < 300; i++ {
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		roots = append(roots, m.Cube(bits))
		pats = append(pats, append([]bool(nil), bits...))
	}
	if m.Stats().UniqueCap <= initialUniqueSize {
		t.Fatalf("unique table never grew: cap %d", m.Stats().UniqueCap)
	}
	for i, p := range pats {
		if got := m.Cube(p); got != roots[i] {
			t.Fatalf("cube %d lost canonicity after growth: %d != %d", i, got, roots[i])
		}
		if !m.EvalBits(roots[i], p) {
			t.Fatalf("cube %d does not contain its own pattern", i)
		}
	}
}

// TestStatsCounters checks the stats snapshot tracks node creation and
// cache traffic.
func TestStatsCounters(t *testing.T) {
	m := NewManager(8)
	s0 := m.Stats()
	if s0.Nodes != 0 || s0.Frozen {
		t.Fatalf("fresh manager stats = %+v", s0)
	}
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	s1 := m.Stats()
	if s1.Nodes == 0 || s1.UniqueMisses == 0 {
		t.Fatalf("no node creation recorded: %+v", s1)
	}
	if s1.CacheMisses == 0 {
		t.Fatalf("And did not touch the computed table: %+v", s1)
	}
	// Repeating the same operation must be answered from the cache.
	if m.And(a, b) != f {
		t.Fatal("And not deterministic")
	}
	s2 := m.Stats()
	if s2.CacheHits <= s1.CacheHits {
		t.Fatalf("repeated And missed the cache: before %+v after %+v", s1, s2)
	}
	if s2.UniqueCap != len(m.unique) || s2.CacheCap != len(m.cache) {
		t.Fatalf("capacity snapshot wrong: %+v", s2)
	}
}

// TestNotMemoized verifies the opNot computed-table path returns correct,
// canonical complements (including the double-negation identity).
func TestNotMemoized(t *testing.T) {
	m := NewManager(6)
	r := rng.New(5)
	f := randomFunc(m, r, 3)
	n1 := m.Not(f)
	n2 := m.Not(f) // cache hit path
	if n1 != n2 {
		t.Fatal("Not not deterministic")
	}
	if m.Not(n1) != f {
		t.Fatal("double negation broken")
	}
}

// TestFreezePanicsOnMutation locks the manager and checks every mutating
// entry point panics while read paths keep working.
func TestFreezePanicsOnMutation(t *testing.T) {
	m := NewManager(4)
	f := m.And(m.Var(0), m.Not(m.Var(1)))
	m.Freeze()
	if !m.Frozen() || !m.Stats().Frozen {
		t.Fatal("Frozen not reported")
	}
	if !m.EvalBits(f, []bool{true, false, false, false}) {
		t.Fatal("EvalBits wrong after freeze")
	}
	if m.EvalBits(f, []bool{true, true, false, false}) {
		t.Fatal("EvalBits wrong after freeze")
	}
	if m.NodeCount(f) != 2 {
		t.Fatalf("NodeCount after freeze = %d", m.NodeCount(f))
	}
	if st := m.Stats(); st.UniqueCap != 0 || st.CacheCap != 0 || st.Nodes == 0 {
		t.Fatalf("a frozen manager is its arena alone, got %+v", st)
	}
	if got := m.Compile(f)[0].Len(); got != 2 {
		t.Fatalf("Compile after freeze: %d branches, want 2", got)
	}
	mutators := map[string]func(){
		"Var":    func() { m.Var(3) },
		"Cube":   func() { m.Cube([]bool{true, true, true, true}) },
		"And":    func() { m.And(f, m.True()) },    // needs cache traffic
		"Exists": func() { m.Exists(0, f) },        // needs cache traffic
		"Expand": func() { m.ExpandHamming(f, 1) }, // needs cache traffic
		"Not":    func() { m.Not(f) },              // needs cache traffic
		"mk-new": func() { m.NVar(3) },             // needs a fresh node
	}
	for name, fn := range mutators {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on frozen manager", name)
				}
			}()
			fn()
		}()
	}
}

// TestFrozenConcurrentEval hammers EvalBits from many goroutines on a
// frozen manager; run with -race this guards the freeze-then-serve
// invariant at the BDD layer.
func TestFrozenConcurrentEval(t *testing.T) {
	m := NewManager(32)
	r := rng.New(9)
	bits := make([]bool, 32)
	z := m.False()
	var pats [][]bool
	for i := 0; i < 100; i++ {
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		z = m.Or(z, m.Cube(bits))
		pats = append(pats, append([]bool(nil), bits...))
	}
	z = m.ExpandHamming(z, 1)
	m.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for _, p := range pats {
					if !m.EvalBits(z, p) {
						t.Error("inserted pattern missing from enlarged set")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheEvictionIsCorrect builds a workload far larger than a tiny
// computed table so entries are evicted constantly, and cross-checks the
// result against a fresh default-sized manager. Lossy caching must never
// change results, only timings.
func TestCacheEvictionIsCorrect(t *testing.T) {
	small := NewManager(16)
	small.cache = make([]cacheEntry, 4) // force near-permanent eviction
	small.cacheMask = 3
	big := NewManager(16)
	r := rng.New(21)
	bits := make([]bool, 16)
	zs, zb := small.False(), big.False()
	for i := 0; i < 200; i++ {
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		zs = small.Or(zs, small.Cube(bits))
		zb = big.Or(zb, big.Cube(bits))
	}
	zs = small.ExpandHamming(zs, 2)
	zb = big.ExpandHamming(zb, 2)
	if small.NodeCount(zs) != big.NodeCount(zb) {
		t.Fatalf("node counts diverge: %d vs %d", small.NodeCount(zs), big.NodeCount(zb))
	}
	if small.SatCount(zs) != big.SatCount(zb) {
		t.Fatalf("sat counts diverge: %v vs %v", small.SatCount(zs), big.SatCount(zb))
	}
}
