package core

import (
	"fmt"
	"sync"

	"napmon/internal/bdd"
)

// Zone is the γ-comfort zone of one class (Definition 2): the set of
// activation patterns visited by correctly classified training inputs,
// enlarged with every pattern within Hamming distance γ of a visited one.
// The set is stored as one compiled BDD query plan per enlargement level,
// so the deployment-time membership query costs at most one branch per
// monitored neuron regardless of how many patterns the zone holds.
//
// A Zone is finished when it exists: its width, γ, insert count and plans
// never change, so any number of goroutines may query it. The BDD manager
// that built it belonged to a zoneBuilder and is gone; growing a zone is a
// new build session on a manager re-derived from the plans
// (cloneWithDelta, cloneAtGamma).
type Zone struct {
	width int
	gamma int // query level, an index into plans
	base  int // number of inserted patterns (with duplicates)

	// plans[i] is the compiled query plan of Z^i. Epoch re-views at a
	// cached γ share the slice, and the view.
	plans []*bdd.Compiled
	view  *zoneView
}

// zoneView is a frozen manager derived from the plans on the first call
// to Manager or Root. Every product read goes through the plans; the view
// is left for the benchmark harness, whose referee walks it with EvalBits.
type zoneView struct {
	once  sync.Once
	m     *bdd.Manager
	roots []bdd.Node
}

// zoneBuilder is one zone's build session (Algorithm 1): a BDD manager and
// a root per cached enlargement level, roots[k] = Zᵏ. freeze compiles the
// levels into the finished Zone; the manager goes with the builder.
type zoneBuilder struct {
	width int
	gamma int // the finished zone's query level
	base  int // number of inserted patterns (with duplicates)
	m     *bdd.Manager
	roots []bdd.Node
}

// newZoneBuilder starts an empty zone over width monitored neurons, to be
// queried at γ once frozen.
func newZoneBuilder(width, gamma int) *zoneBuilder {
	m := bdd.NewManager(width)
	return &zoneBuilder{width: width, gamma: gamma, m: m, roots: []bdd.Node{m.False()}}
}

// builder re-opens the zone for a shadow build queried at γ, on a manager
// derived from the plans with every cached level as a root.
func (z *Zone) builder(gamma int) *zoneBuilder {
	m, roots := bdd.Derive(z.plans)
	return &zoneBuilder{width: z.width, gamma: gamma, base: z.base, m: m, roots: roots}
}

// Width returns the number of monitored neurons.
func (z *Zone) Width() int { return z.width }

// Gamma returns the Hamming enlargement level used by Contains.
func (z *Zone) Gamma() int { return z.gamma }

// InsertCount returns how many patterns have been inserted (counting
// duplicates).
func (z *Zone) InsertCount() int { return z.base }

// insert adds a visited activation pattern to Z⁰ (line 6 of Algorithm 1:
// Z⁰_c ← bdd.or(Z⁰_c, bdd.encode(pat))). It drops the enlarged levels;
// extendTo or freeze recomputes them once.
func (b *zoneBuilder) insert(p Pattern) {
	b.roots = b.roots[:1]
	b.roots[0] = b.m.Or(b.roots[0], b.m.Cube(p))
	b.base++
}

// checkGamma bounds an enlargement level by the pattern width. Z^width is
// already every pattern, so a deeper level adds nothing — and the bound
// keeps a γ decoded from a snapshot or delta stream from driving extendTo
// through an absurd number of expansions.
func checkGamma(gamma, width int) error {
	if gamma < 0 {
		return fmt.Errorf("core: negative gamma %d", gamma)
	}
	if gamma > width {
		return fmt.Errorf("core: gamma %d exceeds the %d monitored neurons", gamma, width)
	}
	return nil
}

// extendTo caches levels up to gamma, each one bdd.ExpandHamming pass over
// Z⁰ (measured cheaper than stepping Zᵏ⁻¹ by one).
func (b *zoneBuilder) extendTo(gamma int) {
	for k := len(b.roots); k <= gamma; k++ {
		b.roots = append(b.roots, b.m.ExpandHamming(b.roots[0], k))
	}
}

// freeze ends the build session: every cached level, at least up to γ, is
// compiled into a flat query plan (bdd.Compile). It returns the finished
// zone and the session manager's counters.
func (b *zoneBuilder) freeze() (*Zone, bdd.Stats) {
	b.extendTo(b.gamma)
	z := &Zone{width: b.width, gamma: b.gamma, base: b.base, plans: b.m.Compile(b.roots...), view: new(zoneView)}
	return z, b.m.Stats()
}

// checkWidth panics on a pattern of the wrong width.
func (z *Zone) checkWidth(p Pattern) {
	if len(p) != z.width {
		panic(fmt.Sprintf("core: pattern width %d does not match zone width %d", len(p), z.width))
	}
}

// Contains reports whether p lies inside the γ-comfort zone — the
// monitor's runtime membership query, a forward walk through the compiled
// plan of Zᵞ, linear in the number of monitored neurons.
func (z *Zone) Contains(p Pattern) bool {
	z.checkWidth(p)
	return z.plans[z.gamma].Eval(p)
}

// ContainsBatch answers the membership query for a whole micro-batch of
// patterns at the zone's γ, writing one verdict per pattern into out
// (len(out) must cover the patterns). The batch runs through the compiled
// plan's EvalBatch — one setup, the branch program hot in cache across
// the batch, and wide batches auto-dispatch to the bit-sliced walk (64
// queries per pass over the program) — which is how WatchBatch consults
// each class once per chunk. Elements of patterns may be Pattern values
// (Pattern's underlying type is []bool).
//
// The batch contract is validated up front: a short out or a
// width-mismatched pattern anywhere in the batch panics with a
// core:-prefixed message before any verdict is written, so a bad batch
// never leaves out partially filled.
func (z *Zone) ContainsBatch(patterns [][]bool, out []bool) {
	if len(out) < len(patterns) {
		panic(fmt.Sprintf("core: ContainsBatch output %d shorter than %d patterns", len(out), len(patterns)))
	}
	nv := z.width
	for i, p := range patterns {
		if len(p) != nv {
			panic(fmt.Sprintf("core: pattern %d width %d does not match zone width %d", i, len(p), nv))
		}
	}
	z.plans[z.gamma].EvalBatch(patterns, out)
}

// ContainsAtErr reports membership at an explicit enlargement level
// without changing the zone's γ. Only the levels the zone was built with
// are queryable; a deeper level, a width mismatch or a negative γ is an
// error a serving daemon can degrade on, never a panic. The monitor-level
// evaluators (EvaluateAt, EvaluateQuantizedAt) route through it.
func (z *Zone) ContainsAtErr(gamma int, p Pattern) (bool, error) {
	if gamma < 0 {
		return false, fmt.Errorf("core: negative gamma %d", gamma)
	}
	if len(p) != z.width {
		return false, fmt.Errorf("core: pattern width %d does not match zone width %d", len(p), z.width)
	}
	if gamma >= len(z.plans) {
		return false, fmt.Errorf("core: gamma %d beyond the zone's %d cached levels (publish a deeper level via Monitor.UpdateGamma)",
			gamma, len(z.plans))
	}
	return z.plans[gamma].Eval(p), nil
}

// cloneWithDelta shadow-builds this zone's successor for an online update:
// a builder re-derived from the cached plans, with the new patterns folded
// in at each level incrementally. A Hamming ball of a union is the union
// of the balls, so Zᵏ(old ∪ new) = Zᵏ(old) ∪ ExpandHamming(D, k) with D
// the delta cubes alone: the old levels are reused verbatim and only the
// new patterns are expanded. That makes the *fold* scale with the delta.
// The learn does not: deriving the manager and compiling the successor
// each visit every node of every cached level — O(zone), small constant.
// The receiver is only read (it is serving); the successor keeps its γ.
// It returns the session's counters with the finished zone.
func (z *Zone) cloneWithDelta(pats []Pattern) (*Zone, bdd.Stats) {
	b := z.builder(z.gamma)
	delta := b.m.False()
	for _, p := range pats {
		delta = b.m.Or(delta, b.m.Cube(p))
	}
	for k := range b.roots {
		b.roots[k] = b.m.Or(b.roots[k], b.m.ExpandHamming(delta, k))
	}
	b.base += len(pats)
	return b.freeze()
}

// cloneAtGamma returns this zone's successor queried at a different
// enlargement level. When the level is cached, the new Zone shares the
// plans (and the diagnostic view) — an O(1) re-view, no copying, no
// recompilation and zero counters. A deeper level needs new enlargements:
// a builder is re-derived from the plans, extended and frozen.
func (z *Zone) cloneAtGamma(gamma int) (*Zone, bdd.Stats) {
	if gamma < len(z.plans) {
		return &Zone{width: z.width, plans: z.plans, view: z.view, gamma: gamma, base: z.base}, bdd.Stats{}
	}
	return z.builder(gamma).freeze()
}

// PatternCount returns the exact number of patterns inside the zone at its
// γ (the model count of its plan). With w monitored neurons the universe
// has 2^w patterns.
func (z *Zone) PatternCount() float64 { return z.plans[z.gamma].SatCount() }

// Dot renders the zone's plan at its γ in Graphviz DOT format under the
// given graph name.
func (z *Zone) Dot(name string) string { return z.plans[z.gamma].Dot(name) }

// NodeCount returns the number of branches of the zone's plan at its γ —
// the monitor's storage cost.
func (z *Zone) NodeCount() int { return z.plans[z.gamma].Len() }

// PlanBytes returns each cached level's plan size.
func (z *Zone) PlanBytes() []int {
	out := make([]int, len(z.plans))
	for i, p := range z.plans {
		out[i] = p.Bytes()
	}
	return out
}

// diagram returns the zone's BDD as a frozen view materialised from the
// plans once and shared by every re-view: an interpreted walk to check the
// plans against. Nothing in the product comes here.
func (z *Zone) diagram() (*bdd.Manager, []bdd.Node) {
	z.view.once.Do(func() {
		z.view.m, z.view.roots = bdd.Derive(z.plans)
		z.view.m.Freeze()
	})
	return z.view.m, z.view.roots
}

// Manager exposes the zone's view manager (see diagram).
func (z *Zone) Manager() *bdd.Manager { m, _ := z.diagram(); return m }

// Root returns the zone's BDD root at its γ, a handle into Manager().
func (z *Zone) Root() bdd.Node { _, roots := z.diagram(); return roots[z.gamma] }
