package bdd

import (
	"math/bits"
	"strings"
	"testing"

	"napmon/internal/rng"
)

// brute evaluates f on all 2^n assignments and returns the truth table,
// for cross-checking BDD operations against exhaustive enumeration.
func brute(m *Manager, f Node) []bool {
	n := m.NumVars()
	table := make([]bool, 1<<n)
	bits := make([]bool, n)
	for a := 0; a < 1<<n; a++ {
		for v := 0; v < n; v++ {
			bits[v] = a&(1<<v) != 0
		}
		table[a] = m.EvalBits(f, bits)
	}
	return table
}

// randomFunc builds a random BDD by combining literals with random ops.
func randomFunc(m *Manager, r *rng.Source, depth int) Node {
	if depth == 0 {
		v := r.Intn(m.NumVars())
		if r.Bool(0.5) {
			return m.Var(v)
		}
		return m.NVar(v)
	}
	a := randomFunc(m, r, depth-1)
	b := randomFunc(m, r, depth-1)
	switch r.Intn(4) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	case 2:
		return m.Xor(a, b)
	default:
		return m.Not(a)
	}
}

func TestTerminals(t *testing.T) {
	m := NewManager(3)
	if !m.IsFalse(m.False()) || !m.IsTrue(m.True()) {
		t.Fatal("terminal predicates wrong")
	}
	if m.EvalBits(m.False(), []bool{true, true, true}) {
		t.Fatal("False evaluated true")
	}
	if !m.EvalBits(m.True(), []bool{false, false, false}) {
		t.Fatal("True evaluated false")
	}
}

func TestVarSemantics(t *testing.T) {
	m := NewManager(3)
	x1 := m.Var(1)
	if !m.EvalBits(x1, []bool{false, true, false}) {
		t.Fatal("Var(1) false when bit 1 set")
	}
	if m.EvalBits(x1, []bool{true, false, true}) {
		t.Fatal("Var(1) true when bit 1 clear")
	}
	n1 := m.NVar(1)
	if m.EvalBits(n1, []bool{false, true, false}) {
		t.Fatal("NVar(1) true when bit 1 set")
	}
}

func TestCanonicity(t *testing.T) {
	m := NewManager(4)
	// x0 ∧ x1 built two different ways must be the identical handle.
	a := m.And(m.Var(0), m.Var(1))
	b := m.Not(m.Or(m.Not(m.Var(0)), m.Not(m.Var(1)))) // De Morgan
	if a != b {
		t.Fatalf("canonicity violated: %d != %d", a, b)
	}
}

func TestReducedness(t *testing.T) {
	m := NewManager(5)
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		randomFunc(m, r, 4)
	}
	// No interior node may have lo == hi, and all triples must be unique.
	seen := map[node]bool{}
	for i := 2; i < m.Size(); i++ {
		nd := m.nodes[i]
		if nd.lo == nd.hi {
			t.Fatalf("node %d has redundant test", i)
		}
		if seen[nd] {
			t.Fatalf("duplicate node triple %+v", nd)
		}
		seen[nd] = true
	}
}

func TestBooleanLawsExhaustive(t *testing.T) {
	m := NewManager(4)
	r := rng.New(2)
	for trial := 0; trial < 25; trial++ {
		a := randomFunc(m, r, 3)
		b := randomFunc(m, r, 3)
		ta, tb := brute(m, a), brute(m, b)

		and, or, xor, diff := brute(m, m.And(a, b)), brute(m, m.Or(a, b)),
			brute(m, m.Xor(a, b)), brute(m, m.Diff(a, b))
		na := brute(m, m.Not(a))
		for i := range ta {
			if and[i] != (ta[i] && tb[i]) {
				t.Fatalf("And truth table wrong at %d", i)
			}
			if or[i] != (ta[i] || tb[i]) {
				t.Fatalf("Or truth table wrong at %d", i)
			}
			if xor[i] != (ta[i] != tb[i]) {
				t.Fatalf("Xor truth table wrong at %d", i)
			}
			if diff[i] != (ta[i] && !tb[i]) {
				t.Fatalf("Diff truth table wrong at %d", i)
			}
			if na[i] != !ta[i] {
				t.Fatalf("Not truth table wrong at %d", i)
			}
		}
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	m := NewManager(6)
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		a := randomFunc(m, r, 3)
		b := randomFunc(m, r, 3)
		c := randomFunc(m, r, 3)
		if m.And(a, b) != m.And(b, a) {
			t.Fatal("And not commutative")
		}
		if m.Or(a, m.Or(b, c)) != m.Or(m.Or(a, b), c) {
			t.Fatal("Or not associative")
		}
		if m.Not(m.Not(a)) != a {
			t.Fatal("double negation not identity")
		}
		if m.And(a, m.Not(a)) != m.False() {
			t.Fatal("a ∧ ¬a != false")
		}
		if m.Or(a, m.Not(a)) != m.True() {
			t.Fatal("a ∨ ¬a != true")
		}
		if m.Xor(a, a) != m.False() {
			t.Fatal("a ⊕ a != false")
		}
		// Distribution.
		if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
			t.Fatal("And does not distribute over Or")
		}
	}
}

func TestITE(t *testing.T) {
	m := NewManager(4)
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		f := randomFunc(m, r, 2)
		g := randomFunc(m, r, 2)
		h := randomFunc(m, r, 2)
		ite := brute(m, m.ITE(f, g, h))
		tf, tg, th := brute(m, f), brute(m, g), brute(m, h)
		for i := range ite {
			want := th[i]
			if tf[i] {
				want = tg[i]
			}
			if ite[i] != want {
				t.Fatalf("ITE wrong at assignment %d", i)
			}
		}
	}
}

func TestImplies(t *testing.T) {
	m := NewManager(3)
	a, b := m.Var(0), m.Var(1)
	imp := brute(m, m.Implies(a, b))
	ta, tb := brute(m, a), brute(m, b)
	for i := range imp {
		if imp[i] != (!ta[i] || tb[i]) {
			t.Fatalf("Implies wrong at %d", i)
		}
	}
}

func TestExistsMatchesCofactorDisjunction(t *testing.T) {
	m := NewManager(5)
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		f := randomFunc(m, r, 4)
		for v := 0; v < 5; v++ {
			want := m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
			if got := m.Exists(v, f); got != want {
				t.Fatalf("Exists(%d) != lo∨hi cofactors", v)
			}
		}
	}
}

func TestExistsRemovesFromSupport(t *testing.T) {
	m := NewManager(4)
	f := m.And(m.Var(0), m.And(m.Var(1), m.Var(3)))
	g := m.Exists(1, f)
	for _, v := range m.Support(g) {
		if v == 1 {
			t.Fatal("Exists left variable in support")
		}
	}
}

func TestCubeEncodesSinglePattern(t *testing.T) {
	m := NewManager(6)
	bits := []bool{true, false, true, true, false, false}
	c := m.Cube(bits)
	if got := m.SatCount(c); got != 1 {
		t.Fatalf("cube SatCount = %v, want 1", got)
	}
	if !m.EvalBits(c, bits) {
		t.Fatal("cube does not contain its own pattern")
	}
	flipped := append([]bool(nil), bits...)
	flipped[3] = !flipped[3]
	if m.EvalBits(c, flipped) {
		t.Fatal("cube contains a different pattern")
	}
}

func TestCubeSparse(t *testing.T) {
	m := NewManager(5)
	c := m.CubeSparse([]int{1, 3}, []bool{true, false})
	if got := m.SatCount(c); got != 8 { // 3 free vars
		t.Fatalf("sparse cube SatCount = %v, want 8", got)
	}
	if !m.EvalBits(c, []bool{false, true, true, false, true}) {
		t.Fatal("sparse cube rejects a matching pattern")
	}
	if m.EvalBits(c, []bool{false, false, true, false, true}) {
		t.Fatal("sparse cube accepts a non-matching pattern")
	}
}

func TestCubeSparsePanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(5).CubeSparse([]int{3, 1}, []bool{true, false})
}

func TestSatCountMatchesBrute(t *testing.T) {
	m := NewManager(6)
	r := rng.New(6)
	for trial := 0; trial < 30; trial++ {
		f := randomFunc(m, r, 4)
		tt := brute(m, f)
		want := 0
		for _, b := range tt {
			if b {
				want++
			}
		}
		if got := m.SatCount(f); got != float64(want) {
			t.Fatalf("SatCount = %v, want %d", got, want)
		}
	}
}

func TestAnySat(t *testing.T) {
	m := NewManager(5)
	r := rng.New(7)
	for trial := 0; trial < 30; trial++ {
		f := randomFunc(m, r, 3)
		bits, ok := m.AnySat(f)
		if f == m.False() {
			if ok {
				t.Fatal("AnySat found model of false")
			}
			continue
		}
		if !ok {
			t.Fatal("AnySat failed on satisfiable function")
		}
		if !m.EvalBits(f, bits) {
			t.Fatal("AnySat returned non-model")
		}
	}
}

func TestAllSatEnumerates(t *testing.T) {
	m := NewManager(4)
	f := m.Or(m.Cube([]bool{true, false, false, true}), m.Cube([]bool{false, true, true, false}))
	var got [][]bool
	m.AllSat(f, func(bits []bool) bool {
		got = append(got, append([]bool(nil), bits...))
		return true
	})
	if len(got) != 2 {
		t.Fatalf("AllSat found %d models, want 2", len(got))
	}
	for _, bits := range got {
		if !m.EvalBits(f, bits) {
			t.Fatal("AllSat emitted non-model")
		}
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := NewManager(4)
	calls := 0
	m.AllSat(m.True(), func([]bool) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("AllSat made %d calls after early stop, want 3", calls)
	}
}

func TestExpandHamming1SmallExample(t *testing.T) {
	// The paper's example: Z = {001}; exists over each variable yields
	// {-01},{0-1},{00-} whose union is patterns at Hamming distance <= 1.
	m := NewManager(3)
	z := m.Cube([]bool{false, false, true}) // pattern 001 (x2 is the '1')
	z1 := m.ExpandHamming1(z)
	if m.ExpandHamming(z, 1) != z1 {
		t.Fatal("ExpandHamming(z, 1) differs from Algorithm 1's round")
	}
	if got := m.SatCount(z1); got != 4 { // 001 plus its 3 neighbours
		t.Fatalf("expanded zone has %v patterns, want 4", got)
	}
	neighbours := [][]bool{
		{false, false, true},  // distance 0
		{true, false, true},   // flip x0
		{false, true, true},   // flip x1
		{false, false, false}, // flip x2
	}
	for _, p := range neighbours {
		if !m.EvalBits(z1, p) {
			t.Fatalf("pattern %v missing from Hamming-1 ball", p)
		}
	}
	if m.EvalBits(z1, []bool{true, true, true}) {
		t.Fatal("distance-2 pattern wrongly included")
	}
}

func TestExpandHammingEqualsBallProperty(t *testing.T) {
	// Property (Definition 2, the core of Algorithm 1's correctness):
	// ExpandHamming(S, k) is exactly { p : ∃ s∈S, H(p,s) ≤ k } —
	// exhaustively over every assignment, for every width ≤ 10 and every
	// k ≤ width.
	r := rng.New(29)
	for nv := 1; nv <= 10; nv++ {
		assigns := allAssignments(nv)
		for trial := 0; trial < 4; trial++ {
			m := NewManager(nv)
			// Trial 0 is the empty zone; the others hold 1..6 patterns.
			n := 0
			if trial > 0 {
				n = 1 + r.Intn(6)
			}
			var seeds []int
			z := m.False()
			for s := 0; s < n; s++ {
				a := r.Intn(1 << nv)
				seeds = append(seeds, a)
				z = m.Or(z, m.Cube(assigns[a]))
			}
			// dist[a]: distance from a to the nearest seed (nv+1 = none).
			dist := make([]int, 1<<nv)
			for a := range dist {
				dist[a] = nv + 1
				for _, s := range seeds {
					dist[a] = min(dist[a], bits.OnesCount(uint(a^s)))
				}
			}
			for k := 0; k <= nv; k++ {
				ball := m.ExpandHamming(z, k)
				for a, d := range dist {
					if got := m.EvalBits(ball, assigns[a]); got != (d <= k) {
						t.Fatalf("nv=%d seeds=%v k=%d assignment %d: in ball %v, nearest seed at %d", nv, seeds, k, a, got, d)
					}
				}
			}
		}
	}
}

// TestExpandHammingMatchesAlgorithm1 holds the one-pass enlargement to its
// oracle, Algorithm 1's lines 9-14 applied literally (ExpandHamming1, k
// rounds of ⋃_j ∃x_j), on independent managers and on the zone shapes the
// monitor serves: every level compiles to the same plan, branch for
// branch.
func TestExpandHammingMatchesAlgorithm1(t *testing.T) {
	for _, c := range []struct{ patterns, width, gamma int }{
		{400, 40, 2}, {50, 64, 1}, {30, 12, 3},
	} {
		r := rng.New(uint64(c.patterns*c.width + c.gamma))
		got, want := NewManager(c.width), NewManager(c.width)
		zg, zw := got.False(), want.False()
		p := make([]bool, c.width)
		for i := 0; i < c.patterns; i++ {
			for v := range p {
				p[v] = r.Bool(0.5)
			}
			zg = got.Or(zg, got.Cube(p))
			zw = want.Or(zw, want.Cube(p))
		}
		for k := 0; k <= c.gamma; k++ {
			if !plansEqual(got.Compile(got.ExpandHamming(zg, k))[0], want.Compile(zw)[0]) {
				t.Fatalf("%d × %d, k=%d: ExpandHamming's plan differs from Algorithm 1's", c.patterns, c.width, k)
			}
			zw = want.ExpandHamming1(zw)
		}
	}
}

// TestExpandHammingIdentities checks two laws of Hamming balls on
// arbitrary functions, as handle equality (canonicity): balls compose,
// B(B(f,a),b) = B(f,a+b), and distribute over union,
// B(f∨g,k) = B(f,k) ∨ B(g,k) — the law cloneWithDelta's fold rests on.
func TestExpandHammingIdentities(t *testing.T) {
	const nv = 12
	m := NewManager(nv)
	r := rng.New(31)
	assigns := allAssignments(nv)
	for trial := 0; trial < 30; trial++ {
		f, g := randomFunc(m, r, 3), randomFunc(m, r, 3)
		if trial%2 == 0 { // sparse sets, the zone shape
			f, g = m.False(), m.False()
			for i := 0; i < 5; i++ {
				f = m.Or(f, m.Cube(assigns[r.Intn(1<<nv)]))
				g = m.Or(g, m.Cube(assigns[r.Intn(1<<nv)]))
			}
		}
		a, b, k := r.Intn(4), r.Intn(4), r.Intn(5)
		if m.ExpandHamming(m.ExpandHamming(f, a), b) != m.ExpandHamming(f, a+b) {
			t.Fatalf("trial %d: B(B(f,%d),%d) != B(f,%d)", trial, a, b, a+b)
		}
		if m.ExpandHamming(m.Or(f, g), k) != m.Or(m.ExpandHamming(f, k), m.ExpandHamming(g, k)) {
			t.Fatalf("trial %d: B(f∨g,%d) != B(f,%d) ∨ B(g,%d)", trial, k, k, k)
		}
	}
}

func TestSupport(t *testing.T) {
	m := NewManager(6)
	f := m.And(m.Var(1), m.Or(m.Var(4), m.NVar(2)))
	got := m.Support(f)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestNodeCount(t *testing.T) {
	m := NewManager(3)
	if m.NodeCount(m.True()) != 0 || m.NodeCount(m.False()) != 0 {
		t.Fatal("terminals must count 0 nodes")
	}
	if got := m.NodeCount(m.Var(0)); got != 1 {
		t.Fatalf("NodeCount(Var) = %d, want 1", got)
	}
	c := m.Cube([]bool{true, true, true})
	if got := m.NodeCount(c); got != 3 {
		t.Fatalf("NodeCount(cube) = %d, want 3", got)
	}
}

func TestEvalLinearMembership(t *testing.T) {
	// Eval must walk at most NumVars nodes regardless of diagram size.
	m := NewManager(8)
	r := rng.New(9)
	z := m.False()
	for i := 0; i < 50; i++ {
		bits := make([]bool, 8)
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		z = m.Or(z, m.Cube(bits))
	}
	steps := 0
	m.Eval(z, func(v int) bool {
		steps++
		return v%2 == 0
	})
	if steps > 8 {
		t.Fatalf("Eval consulted %d variables, want <= 8", steps)
	}
}

func TestDotOutput(t *testing.T) {
	m := NewManager(2)
	d := m.Dot(m.And(m.Var(0), m.Var(1)), "and")
	for _, frag := range []string{"digraph", "x0", "x1", "style=dashed"} {
		if !strings.Contains(d, frag) {
			t.Fatalf("Dot output missing %q:\n%s", frag, d)
		}
	}
}

func TestVarPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(3).Var(3)
}

func BenchmarkCubeInsert64(b *testing.B) {
	m := NewManager(64)
	r := rng.New(1)
	bits := make([]bool, 64)
	z := m.False()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		z = m.Or(z, m.Cube(bits))
	}
	_ = z
}

func BenchmarkMembership64(b *testing.B) {
	m := NewManager(64)
	r := rng.New(2)
	bits := make([]bool, 64)
	z := m.False()
	for i := 0; i < 500; i++ {
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		z = m.Or(z, m.Cube(bits))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalBits(z, bits)
	}
}
