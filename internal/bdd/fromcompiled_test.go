package bdd

import (
	"math/rand"
	"strings"
	"testing"
)

// buildTestDiagram constructs a deterministic non-trivial diagram: a
// union of cubes derived from a seed, Hamming-expanded once — the same
// shape a comfort zone has.
func buildTestDiagram(m *Manager, seed uint64) Node {
	nv := m.NumVars()
	f := m.False()
	s := seed
	for c := 0; c < 4; c++ {
		bits := make([]bool, nv)
		for i := range bits {
			s = s*6364136223846793005 + 1442695040888963407
			bits[i] = s>>63 == 1
		}
		f = m.Or(f, m.Cube(bits))
	}
	return m.ExpandHamming(f, 1)
}

// TestCompiledExportRoundTrip pins the serialization hooks: a compiled
// plan exported through Entry/Branch and reconstructed with NewCompiled
// answers identically, FromCompiled rebuilds the exact canonical
// diagram, and recompiling the rebuilt diagram reproduces the original
// program branch for branch — the invariant the snapshot codec's
// bit-for-bit replication rests on.
func TestCompiledExportRoundTrip(t *testing.T) {
	const nv = 6
	for seed := uint64(1); seed <= 5; seed++ {
		m := NewManager(nv)
		root := buildTestDiagram(m, seed)
		plan := m.Compile(root)[0]

		branches := make([]PlanBranch, plan.Len())
		for i := range branches {
			branches[i] = plan.Branch(i)
		}
		rebuilt, err := NewCompiled(plan.NumVars(), plan.Entry(), branches)
		if err != nil {
			t.Fatalf("seed %d: NewCompiled: %v", seed, err)
		}

		m2 := NewManager(nv)
		root2, err := m2.FromCompiled(rebuilt)
		if err != nil {
			t.Fatalf("seed %d: FromCompiled: %v", seed, err)
		}
		if !plansEqual(m2.Compile(root2)[0], plan) {
			t.Fatalf("seed %d: recompiled plan differs from the original", seed)
		}

		// Exhaustive agreement across the full assignment space.
		bits := make([]bool, nv)
		for a := 0; a < 1<<nv; a++ {
			for i := range bits {
				bits[i] = a>>i&1 == 1
			}
			want := m.EvalBits(root, bits)
			if got := rebuilt.Eval(bits); got != want {
				t.Fatalf("seed %d: NewCompiled plan disagrees at %06b: %v != %v", seed, a, got, want)
			}
			if got := m2.EvalBits(root2, bits); got != want {
				t.Fatalf("seed %d: FromCompiled diagram disagrees at %06b: %v != %v", seed, a, got, want)
			}
		}
	}
}

// TestCompiledExportTerminals covers the constant diagrams.
func TestCompiledExportTerminals(t *testing.T) {
	m := NewManager(3)
	for _, root := range []Node{m.False(), m.True()} {
		plan := m.Compile(root)[0]
		rebuilt, err := NewCompiled(plan.NumVars(), plan.Entry(), nil)
		if err != nil {
			t.Fatalf("NewCompiled(terminal): %v", err)
		}
		m2 := NewManager(3)
		got, err := m2.FromCompiled(rebuilt)
		if err != nil {
			t.Fatalf("FromCompiled(terminal): %v", err)
		}
		if got != root {
			t.Fatalf("terminal round trip: got node %d, want %d", got, root)
		}
	}
}

// TestNewCompiledRejectsCorrupt exercises the validator against the
// malformations a hostile snapshot stream could carry.
func TestNewCompiledRejectsCorrupt(t *testing.T) {
	ok := []PlanBranch{
		{Va: 0, Lo: TerminalFalse, Hi: 1},
		{Va: 1, Lo: TerminalFalse, Hi: TerminalTrue},
	}
	cases := []struct {
		name     string
		numVars  int
		entry    int32
		branches []PlanBranch
	}{
		{"zero vars", 0, TerminalFalse, nil},
		{"terminal entry with program", 2, TerminalTrue, ok},
		{"entry out of range", 2, 2, ok},
		{"non-terminal entry empty program", 2, 0, nil},
		{"var out of range", 1, 0, ok},
		{"level order broken", 2, 0, []PlanBranch{
			{Va: 1, Lo: TerminalFalse, Hi: 1},
			{Va: 0, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
		{"redundant branch", 2, 0, []PlanBranch{
			{Va: 0, Lo: TerminalTrue, Hi: TerminalTrue},
		}},
		{"backward target", 2, 0, []PlanBranch{
			{Va: 0, Lo: 0, Hi: TerminalTrue},
		}},
		{"target out of range", 2, 0, []PlanBranch{
			{Va: 0, Lo: 7, Hi: TerminalTrue},
		}},
		{"target level not later", 2, 0, []PlanBranch{
			{Va: 1, Lo: TerminalFalse, Hi: 1},
			{Va: 1, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
	}
	for _, c := range cases {
		if _, err := NewCompiled(c.numVars, c.entry, c.branches); err == nil {
			t.Errorf("%s: NewCompiled accepted a corrupt plan", c.name)
		}
	}
	if _, err := NewCompiled(2, 0, ok); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestNewCompiledRejectsNonCanonical feeds NewCompiled programs that are
// well-formed and evaluate correctly, but are not the program Compile
// emits for their function. A loader that keeps what it reads must
// refuse them: replicas are compared by their plans' bytes.
func TestNewCompiledRejectsNonCanonical(t *testing.T) {
	// x0 ? (x1 ? x2 : ¬x2) : (x1 ? ¬x2 : x2) over three variables, as
	// Compile lays it out: lo subgraph first within each level.
	canonical := []PlanBranch{
		{Va: 0, Lo: 1, Hi: 2},
		{Va: 1, Lo: 3, Hi: 4},
		{Va: 1, Lo: 4, Hi: 3},
		{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
		{Va: 2, Lo: TerminalTrue, Hi: TerminalFalse},
	}
	cases := []struct {
		name     string
		branches []PlanBranch
	}{
		{"unreachable branch", []PlanBranch{
			{Va: 0, Lo: TerminalFalse, Hi: 1},
			{Va: 1, Lo: TerminalFalse, Hi: TerminalTrue},
			{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
		{"unreachable branch mid-level", []PlanBranch{
			{Va: 0, Lo: TerminalFalse, Hi: 2},
			{Va: 1, Lo: TerminalTrue, Hi: TerminalFalse},
			{Va: 1, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
		{"duplicate branch", []PlanBranch{
			{Va: 0, Lo: 1, Hi: 2},
			{Va: 1, Lo: 3, Hi: 4},
			{Va: 1, Lo: 4, Hi: 3},
			{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
			{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
		{"swapped same-level siblings", []PlanBranch{
			{Va: 0, Lo: 2, Hi: 1},
			{Va: 1, Lo: 4, Hi: 3},
			{Va: 1, Lo: 3, Hi: 4},
			{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
			{Va: 2, Lo: TerminalTrue, Hi: TerminalFalse},
		}},
		{"swapped lower level", []PlanBranch{
			{Va: 0, Lo: 1, Hi: 2},
			{Va: 1, Lo: 4, Hi: 3},
			{Va: 1, Lo: 3, Hi: 4},
			{Va: 2, Lo: TerminalTrue, Hi: TerminalFalse},
			{Va: 2, Lo: TerminalFalse, Hi: TerminalTrue},
		}},
	}
	for _, c := range cases {
		_, err := NewCompiled(3, 0, c.branches)
		if err == nil {
			t.Errorf("%s: NewCompiled accepted a non-canonical plan", c.name)
		} else if !strings.HasPrefix(err.Error(), "bdd: ") {
			t.Errorf("%s: error %q lacks the bdd: prefix", c.name, err)
		}
	}
	plan, err := NewCompiled(3, 0, canonical)
	if err != nil {
		t.Fatalf("canonical plan rejected: %v", err)
	}
	m := NewManager(3)
	root, err := m.FromCompiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(m.Compile(root)[0], plan) {
		t.Fatal("Compile(FromCompiled(plan)) differs from an accepted plan")
	}
}

// TestNewCompiledKeepsOnlyWhatCompileEmits is the loader's oracle as a
// property: perturb real plans — swap two branches of a level and fix up
// every reference (same function, different program), or retarget one
// edge (a different, possibly unreduced function) — and whatever
// NewCompiled still accepts must be the fixed point of rebuilding and
// recompiling. The re-ordered programs must all be refused.
func TestNewCompiledKeepsOnlyWhatCompileEmits(t *testing.T) {
	const nv = 8
	r := rand.New(rand.NewSource(26))
	accepted, refused := 0, 0
	for trial := 0; trial < 400; trial++ {
		m := NewManager(nv)
		plan := m.Compile(randomDiagram(m, r, 1+r.Intn(5), r.Intn(2)))[0]
		branches := make([]PlanBranch, plan.Len())
		for i := range branches {
			branches[i] = plan.Branch(i)
		}
		reordered := false
		if i := r.Intn(len(branches)); trial%2 == 0 && i+1 < len(branches) && branches[i].Va == branches[i+1].Va {
			branches[i], branches[i+1] = branches[i+1], branches[i]
			for k := range branches {
				for _, tgt := range []*int32{&branches[k].Lo, &branches[k].Hi} {
					switch *tgt {
					case int32(i):
						*tgt = int32(i + 1)
					case int32(i + 1):
						*tgt = int32(i)
					}
				}
			}
			reordered = true
		} else {
			b := &branches[r.Intn(len(branches))]
			b.Lo = int32(r.Intn(len(branches)+2)) - 2 // a terminal or any index
		}
		kept, err := NewCompiled(nv, 0, branches)
		if err != nil {
			refused++
			continue
		}
		if reordered {
			t.Fatalf("trial %d: a re-ordered program was accepted", trial)
		}
		accepted++
		m2 := NewManager(nv)
		root, err := m2.FromCompiled(kept)
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(m2.Compile(root)[0], kept) {
			t.Fatalf("trial %d: accepted plan is not what Compile emits for its diagram", trial)
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("the perturbations never reached both outcomes: %d accepted, %d refused", accepted, refused)
	}
}
