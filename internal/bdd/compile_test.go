package bdd

import (
	"math"
	"math/rand"
	"testing"
)

// randomDiagram builds a pseudo-random diagram the way the monitor does:
// a union of random cubes, optionally Hamming-expanded, so the compiled
// plans are exercised on exactly the diagram shapes the zones serve.
func randomDiagram(m *Manager, r *rand.Rand, nCubes, expands int) Node {
	nv := m.NumVars()
	f := m.False()
	bits := make([]bool, nv)
	for i := 0; i < nCubes; i++ {
		for v := range bits {
			bits[v] = r.Intn(2) == 1
		}
		f = m.Or(f, m.Cube(bits))
	}
	return m.ExpandHamming(f, expands)
}

// TestCompiledExhaustive pins Compiled.Eval and EvalBatch bit-exact
// against the interpreted EvalBits over every assignment of every
// diagram, for widths small enough to enumerate the full truth table.
func TestCompiledExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, nv := range []int{1, 2, 3, 5, 8, 12} {
		m := NewManager(nv)
		roots := []Node{
			m.False(), m.True(), m.Var(0), m.NVar(nv - 1),
			randomDiagram(m, r, 3, 0),
			randomDiagram(m, r, 5, 1),
			randomDiagram(m, r, 2, 2),
		}
		m.Freeze()
		plans := m.Compile(roots...)
		if len(plans) != len(roots) {
			t.Fatalf("nv=%d: %d plans for %d roots", nv, len(plans), len(roots))
		}
		na := 1 << nv
		patterns := make([][]bool, na)
		for a := 0; a < na; a++ {
			bits := make([]bool, nv)
			for v := 0; v < nv; v++ {
				bits[v] = a&(1<<v) != 0
			}
			patterns[a] = bits
		}
		out := make([]bool, na)
		sliced := make([]bool, na)
		for ri, root := range roots {
			cp := plans[ri]
			if cp.NumVars() != nv {
				t.Fatalf("nv=%d root %d: plan NumVars %d", nv, ri, cp.NumVars())
			}
			if got, want := cp.Len(), m.NodeCount(root); got != want {
				t.Fatalf("nv=%d root %d: plan Len %d, NodeCount %d", nv, ri, got, want)
			}
			cp.EvalBatch(patterns, out)
			cp.EvalBatchSliced(patterns, sliced)
			for a := 0; a < na; a++ {
				want := m.EvalBits(root, patterns[a])
				if got := cp.Eval(patterns[a]); got != want {
					t.Fatalf("nv=%d root %d assignment %d: compiled %v, interpreted %v", nv, ri, a, got, want)
				}
				if out[a] != want {
					t.Fatalf("nv=%d root %d assignment %d: EvalBatch %v, interpreted %v", nv, ri, a, out[a], want)
				}
				if sliced[a] != want {
					t.Fatalf("nv=%d root %d assignment %d: EvalBatchSliced %v, interpreted %v", nv, ri, a, sliced[a], want)
				}
			}
		}
	}
}

// TestCompiledRandomWide cross-checks compiled vs interpreted on
// monitor-sized diagrams (40 variables, too wide to enumerate) with
// random probes.
func TestCompiledRandomWide(t *testing.T) {
	const nv = 40
	r := rand.New(rand.NewSource(7))
	m := NewManager(nv)
	roots := []Node{
		randomDiagram(m, r, 50, 0),
		randomDiagram(m, r, 50, 1),
		randomDiagram(m, r, 20, 2),
	}
	plans := m.Compile(roots...)
	probes := make([][]bool, 512)
	for i := range probes {
		bits := make([]bool, nv)
		for v := range bits {
			bits[v] = r.Intn(2) == 1
		}
		probes[i] = bits
	}
	out := make([]bool, len(probes))
	sliced := make([]bool, len(probes))
	for ri, root := range roots {
		plans[ri].EvalBatch(probes, out)
		plans[ri].EvalBatchSliced(probes, sliced)
		for i, p := range probes {
			want := m.EvalBits(root, p)
			if got := plans[ri].Eval(p); got != want {
				t.Fatalf("root %d probe %d: compiled %v, interpreted %v", ri, i, got, want)
			}
			if out[i] != want {
				t.Fatalf("root %d probe %d: EvalBatch %v, interpreted %v", ri, i, out[i], want)
			}
			if sliced[i] != want {
				t.Fatalf("root %d probe %d: EvalBatchSliced %v, interpreted %v", ri, i, sliced[i], want)
			}
		}
	}
}

// TestCompiledLayout verifies the structural invariants the walk loop
// relies on: variable levels are non-decreasing through the program, and
// every branch target is either a later index (forward edge) or a
// terminal sentinel.
func TestCompiledLayout(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewManager(16)
	root := randomDiagram(m, r, 12, 1)
	cp := m.Compile(root)[0]
	if cp.entry != 0 {
		t.Fatalf("nonterminal root compiled with entry %d, want 0", cp.entry)
	}
	for i, b := range cp.prog {
		if i > 0 && b.va < cp.prog[i-1].va {
			t.Fatalf("branch %d: level %d after level %d — not level-ordered", i, b.va, cp.prog[i-1].va)
		}
		for _, tgt := range []int32{b.lo, b.hi} {
			if tgt >= 0 && tgt <= int32(i) {
				t.Fatalf("branch %d: backward/self edge to %d", i, tgt)
			}
			if tgt < 0 && tgt != compiledFalse && tgt != compiledTrue {
				t.Fatalf("branch %d: bad sentinel %d", i, tgt)
			}
			if tgt >= int32(len(cp.prog)) {
				t.Fatalf("branch %d: target %d out of program (len %d)", i, tgt, len(cp.prog))
			}
		}
	}
}

// TestCompiledConstants covers the terminal-root plans.
func TestCompiledConstants(t *testing.T) {
	m := NewManager(4)
	plans := m.Compile(m.False(), m.True())
	bits := make([]bool, 4)
	if plans[0].Eval(bits) {
		t.Fatal("compiled False evaluated true")
	}
	if !plans[1].Eval(bits) {
		t.Fatal("compiled True evaluated false")
	}
	if plans[0].Len() != 0 || plans[1].Len() != 0 {
		t.Fatal("constant plans should have empty programs")
	}
}

// TestCompileCounter checks the Stats.Compiles bookkeeping.
func TestCompileCounter(t *testing.T) {
	m := NewManager(4)
	f := m.Or(m.Var(0), m.Var(2))
	if got := m.Stats().Compiles; got != 0 {
		t.Fatalf("fresh manager has %d compiles", got)
	}
	m.Compile(f)
	m.Compile(f, m.True())
	if got := m.Stats().Compiles; got != 3 {
		t.Fatalf("3 roots compiled, counter says %d", got)
	}
}

// TestCompiledEvalWidthPanics pins the assignment-width contract of the
// compiled fast path (same contract as EvalBits).
func TestCompiledEvalWidthPanics(t *testing.T) {
	m := NewManager(4)
	cp := m.Compile(m.Var(0))[0]
	defer func() {
		if recover() == nil {
			t.Fatal("compiled Eval on wrong-width assignment did not panic")
		}
	}()
	cp.Eval(make([]bool, 3))
}

// TestCompiledOutlivesManager checks that plans are self-contained: a
// plan keeps answering queries once the manager it was compiled from is
// gone — the only way a frozen zone ever serves.
func TestCompiledOutlivesManager(t *testing.T) {
	m := NewManager(6)
	r := rand.New(rand.NewSource(9))
	root := randomDiagram(m, r, 4, 1)
	want := make([]bool, 1<<6)
	bits := make([]bool, 6)
	for a := range want {
		for v := 0; v < 6; v++ {
			bits[v] = a&(1<<v) != 0
		}
		want[a] = m.EvalBits(root, bits)
	}
	cp := m.Compile(root)[0]
	*m = Manager{} // the manager is gone; only the plan is left
	for a := range want {
		for v := 0; v < 6; v++ {
			bits[v] = a&(1<<v) != 0
		}
		if got := cp.Eval(bits); got != want[a] {
			t.Fatalf("assignment %d: %v without the manager, want %v", a, got, want[a])
		}
	}
}

// TestCompiledSatCountMatchesDiagram holds the plan's one backward pass to
// the interpreted recursion, bit for bit, on every cached level of
// zone-shaped diagrams (400 random patterns, γ = 2) at monitor widths, and
// on the two constants.
func TestCompiledSatCountMatchesDiagram(t *testing.T) {
	for _, nv := range []int{40, 70, 129} {
		m := NewManager(nv)
		z0 := randomDiagram(m, rand.New(rand.NewSource(int64(nv))), 400, 0)
		for k := 0; k <= 2; k++ {
			root := m.ExpandHamming(z0, k)
			got, want := m.Compile(root)[0].SatCount(), m.SatCount(root)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("width %d, γ=%d: compiled SatCount %v, diagram %v", nv, k, got, want)
			}
			t.Logf("width %d, γ=%d: %.0f patterns", nv, k, got)
		}
	}
	m := NewManager(5)
	for _, root := range []Node{m.False(), m.True()} {
		if got, want := m.Compile(root)[0].SatCount(), m.SatCount(root); got != want {
			t.Fatalf("constant %d: compiled SatCount %v, diagram %v", root, got, want)
		}
	}
}
