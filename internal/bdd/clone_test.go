package bdd

import (
	"testing"
)

// buildSample constructs a few interrelated diagrams and returns them with
// their manager: f = (x0 ∧ x1) ∨ x2, g = ¬x1, h = f ⊕ g.
func buildSample(t *testing.T) (*Manager, []Node) {
	t.Helper()
	m := NewManager(4)
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	g := m.Not(m.Var(1))
	h := m.Xor(f, g)
	return m, []Node{f, g, h}
}

// allAssignments enumerates every assignment over n vars as bit slices.
func allAssignments(n int) [][]bool {
	out := make([][]bool, 1<<n)
	for a := range out {
		bits := make([]bool, n)
		for v := 0; v < n; v++ {
			bits[v] = a&(1<<v) != 0
		}
		out[a] = bits
	}
	return out
}

// TestCloneCompactMutable: a compact clone of a frozen source is
// independently writable, and mutating it never disturbs the source.
func TestCloneCompactMutable(t *testing.T) {
	m, roots := buildSample(t)
	m.Freeze()
	c, croots := m.CloneCompact(roots)
	if c.Frozen() {
		t.Fatal("clone inherited frozen state")
	}
	// Mutating the clone must not disturb the frozen source.
	grown := c.Or(croots[0], c.Var(3))
	if c.IsFalse(grown) {
		t.Fatal("clone mutation produced false")
	}
	for _, bits := range allAssignments(4) {
		want := m.EvalBits(roots[0], bits) || bits[3]
		if got := c.EvalBits(grown, bits); got != want {
			t.Fatalf("grown clone wrong on %v: got %v want %v", bits, got, want)
		}
		for i := range roots {
			if m.EvalBits(roots[i], bits) != c.EvalBits(croots[i], bits) {
				t.Fatalf("root %d diverges on %v after clone mutation", i, bits)
			}
		}
	}
}

// TestCloneCompactSemantics: the compact clone preserves the functions of
// the requested roots and drops unreachable garbage.
func TestCloneCompactSemantics(t *testing.T) {
	m := NewManager(6)
	// Create garbage: intermediates that no surviving root references.
	var f Node = m.False()
	for v := 0; v < 6; v++ {
		f = m.Or(f, m.And(m.Var(v), m.NVar((v+1)%6)))
	}
	g := m.Exists(2, f)
	m.Freeze()
	c, croots := m.CloneCompact([]Node{f, g})
	if c.Frozen() {
		t.Fatal("compact clone inherited frozen state")
	}
	if c.Size() >= m.Size() {
		t.Fatalf("compact clone did not shrink: %d vs %d nodes", c.Size(), m.Size())
	}
	if want := m.NodeCount(f) + 2; c.Size() > m.NodeCount(f)+m.NodeCount(g)+2 {
		t.Fatalf("compact clone larger than the live sets: %d nodes (f alone is %d)", c.Size(), want)
	}
	for _, bits := range allAssignments(6) {
		if m.EvalBits(f, bits) != c.EvalBits(croots[0], bits) {
			t.Fatalf("f diverges on %v", bits)
		}
		if m.EvalBits(g, bits) != c.EvalBits(croots[1], bits) {
			t.Fatalf("g diverges on %v", bits)
		}
	}
	// Canonicity carries over: same function, same SatCount.
	if m.SatCount(f) != c.SatCount(croots[0]) {
		t.Fatalf("SatCount diverges: %v vs %v", m.SatCount(f), c.SatCount(croots[0]))
	}
	// Shared roots stay shared (f appears twice → same handle twice).
	_, dup := m.CloneCompact([]Node{f, f})
	if dup[0] != dup[1] {
		t.Fatal("identical roots mapped to different handles")
	}
}

// TestCloneCompactTerminalRoots: terminal-only root lists must survive
// compaction (the empty zone's Z⁰ is the false terminal).
func TestCloneCompactTerminalRoots(t *testing.T) {
	m := NewManager(3)
	c, roots := m.CloneCompact([]Node{m.False(), m.True()})
	if !c.IsFalse(roots[0]) || !c.IsTrue(roots[1]) {
		t.Fatalf("terminals remapped to %v", roots)
	}
}

// TestDeriveMatchesCloneCompact holds Derive to its oracle: the manager
// re-derived from a diagram set's plans is the compact clone of that set
// — same live nodes, same functions, same plans when compiled again —
// writable, with its unique table sized once and its computed table
// still at the initial size.
func TestDeriveMatchesCloneCompact(t *testing.T) {
	m := NewManager(12)
	z0 := buildTestDiagram(m, 7)
	roots := []Node{z0, m.ExpandHamming1(z0), m.ExpandHamming1(m.ExpandHamming1(z0))}
	plans := m.Compile(roots...)
	want, wroots := m.CloneCompact(roots)

	d, droots := Derive(plans)
	if d.Frozen() {
		t.Fatal("derived manager is frozen")
	}
	if d.Size() != want.Size() {
		t.Fatalf("derived arena holds %d nodes, compact clone %d", d.Size(), want.Size())
	}
	st := d.Stats()
	if st.CacheCap != initialCacheSize || st.UniqueCap < 2*st.Nodes {
		t.Fatalf("derived tables: computed %d slots (want %d), unique %d slots for %d nodes", st.CacheCap, initialCacheSize, st.UniqueCap, st.Nodes)
	}
	if int(st.UniqueMisses) != st.Nodes {
		t.Fatalf("derive created %d nodes for %d live ones", st.UniqueMisses, st.Nodes)
	}
	again := d.Compile(droots...)
	for k := range plans {
		if !plansEqual(plans[k], again[k]) {
			t.Fatalf("level %d: Compile(Derive(plans)) differs from plans", k)
		}
		if d.SatCount(droots[k]) != want.SatCount(wroots[k]) {
			t.Fatalf("level %d: derived SatCount %v, clone %v", k, d.SatCount(droots[k]), want.SatCount(wroots[k]))
		}
	}
	// Writable: one more level on the derived manager is the one the
	// source manager computes, and a table's worth of misses (here
	// Algorithm 1's 2·NumVars whole-diagram passes) earns the computed
	// table its size back.
	deeper := d.ExpandHamming(droots[0], 3)
	if !plansEqual(d.Compile(deeper)[0], m.Compile(m.ExpandHamming1(roots[2]))[0]) {
		t.Fatal("expansion on the derived manager differs from the source's")
	}
	d.ExpandHamming1(deeper)
	if st := d.Stats(); st.CacheMisses < initialCacheSize || st.CacheCap <= initialCacheSize {
		t.Fatalf("computed table still %d slots after %d misses", st.CacheCap, st.CacheMisses)
	}
}

// plansEqual reports whether two plans are the same program.
func plansEqual(a, b *Compiled) bool {
	if a.NumVars() != b.NumVars() || a.Entry() != b.Entry() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Branch(i) != b.Branch(i) {
			return false
		}
	}
	return true
}
