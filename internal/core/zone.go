package core

import (
	"fmt"
	"sync"

	"napmon/internal/bdd"
)

// Zone is the γ-comfort zone of one class (Definition 2): the set of
// activation patterns visited by correctly classified training inputs,
// enlarged with every pattern within Hamming distance γ of a visited one.
// The set is stored as a BDD over one variable per monitored neuron, so
// the deployment-time membership query costs at most one node visit per
// neuron regardless of how many patterns the zone holds.
//
// While building, a zone owns a bdd.Manager and a root per enlargement
// level. Freeze compiles every level into a flat query plan and lets the
// manager go: a frozen zone is its plans, γ, the insert count and the
// width. Growing one is a new build session on a manager re-derived from
// the plans (cloneWithDelta, cloneAtGamma).
type Zone struct {
	width int
	gamma int // current query level, an index into roots / plans
	base  int // number of Insert calls (visited patterns, with duplicates)

	// Build session state, nil once frozen: roots[i] is Z^i.
	m     *bdd.Manager
	roots []bdd.Node

	// plans[i] is the compiled query plan of Z^i; nil while the zone is
	// mutable (a plan would go stale under Insert/SetGamma). Epoch
	// re-views at a cached γ share the slice, and the view.
	plans []*bdd.Compiled
	view  *zoneView
}

// zoneView is a frozen zone's diagnostic manager (Manager, Root): frozen,
// arena-only, materialised from the plans on first request.
type zoneView struct {
	once  sync.Once
	m     *bdd.Manager
	roots []bdd.Node
}

// NewZone returns an empty comfort zone over width monitored neurons with
// γ = 0.
func NewZone(width int) *Zone {
	m := bdd.NewManager(width)
	return &Zone{width: width, m: m, roots: []bdd.Node{m.False()}}
}

// Width returns the number of monitored neurons.
func (z *Zone) Width() int { return z.width }

// Gamma returns the current Hamming enlargement level used by Contains.
func (z *Zone) Gamma() int { return z.gamma }

// InsertCount returns how many patterns have been inserted (counting
// duplicates).
func (z *Zone) InsertCount() int { return z.base }

// Insert adds a visited activation pattern to Z⁰ (line 6 of Algorithm 1:
// Z⁰_c ← bdd.or(Z⁰_c, bdd.encode(pat))). It drops the enlarged levels; the
// next read (Contains, NodeCount, Freeze, ...) recomputes them once.
func (z *Zone) Insert(p Pattern) {
	if z.Frozen() {
		panic("core: Insert on frozen zone")
	}
	z.checkWidth(p)
	z.roots = z.roots[:1]
	z.roots[0] = z.m.Or(z.roots[0], z.m.Cube(p))
	z.base++
}

// SetGamma sets the Hamming enlargement level used by Contains, computing
// the missing levels Zᵏ of Algorithm 1's lines 9-14 from Z⁰ (extendTo).
// Levels are cached, so sweeping γ upward only computes the new ones.
//
// A frozen zone's γ is immutable: once a zone serves concurrent readers,
// changing the query level in place would race with Contains, so SetGamma
// returns an error instead of silently mutating shared serving state.
// Change a live monitor's γ by publishing a new epoch (Monitor.UpdateGamma).
func (z *Zone) SetGamma(gamma int) error {
	if err := checkGamma(gamma, z.width); err != nil {
		return err
	}
	if z.Frozen() {
		if gamma == z.gamma {
			return nil // no change requested; nothing to mutate
		}
		return fmt.Errorf("core: SetGamma(%d) on frozen zone (gamma is fixed at freeze; publish a new epoch via Monitor.UpdateGamma)", gamma)
	}
	z.extendTo(gamma)
	z.gamma = gamma
	return nil
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
func (z *Zone) extendTo(gamma int) {
	for k := len(z.roots); k <= gamma; k++ {
		z.roots = append(z.roots, z.m.ExpandHamming(z.roots[0], k))
	}
}

// Freeze ends the zone's build session: every cached enlargement level is
// compiled into a flat query plan (bdd.Compile) and the manager is let
// go. Contains (and ContainsAt for already-computed levels) become safe
// for unlimited concurrent use; Insert and SetGamma panic or error from
// now on. Freezing is irreversible (DESIGN.md, freeze-then-serve). It
// returns the dropped manager's counters (zero if already frozen).
func (z *Zone) Freeze() bdd.Stats {
	if z.Frozen() {
		return bdd.Stats{}
	}
	z.extendTo(z.gamma)
	z.plans = z.m.Compile(z.roots...)
	session := z.m.Stats()
	z.m, z.roots, z.view = nil, nil, new(zoneView)
	return session
}

// Frozen reports whether the zone has been frozen.
func (z *Zone) Frozen() bool { return z.plans != nil }

// checkWidth panics on a pattern of the wrong width.
func (z *Zone) checkWidth(p Pattern) {
	if len(p) != z.width {
		panic(fmt.Sprintf("core: pattern width %d does not match zone width %d", len(p), z.width))
	}
}

// Contains reports whether p lies inside the current γ-comfort zone — the
// monitor's runtime membership query, linear in the number of monitored
// neurons. On a frozen zone the query runs on the compiled plan (a
// forward walk through a dense branch program); before the freeze it
// interprets the BDD in place, enlarging first if an Insert dropped Zᵞ.
func (z *Zone) Contains(p Pattern) bool {
	z.checkWidth(p)
	if z.plans != nil {
		return z.plans[z.gamma].Eval(p)
	}
	return z.m.EvalBits(z.Root(), p)
}

// ContainsBatch answers the membership query for a whole micro-batch of
// patterns at the current γ, writing one verdict per pattern into out
// (len(out) must cover the patterns). On a frozen zone the batch runs
// through the compiled plan's EvalBatch — one setup, the branch program
// hot in cache across the batch, and wide batches auto-dispatch to the
// bit-sliced walk (64 queries per pass over the program) — which is how
// WatchBatch consults each class once per chunk. Elements of patterns
// may be Pattern values (Pattern's underlying type is []bool).
//
// The batch contract is validated up front on both the frozen and
// unfrozen paths: a short out or a width-mismatched pattern anywhere in
// the batch panics with a core:-prefixed message before any verdict is
// written, so a bad batch never leaves out partially filled.
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
	if z.plans != nil {
		z.plans[z.gamma].EvalBatch(patterns, out)
		return
	}
	root := z.Root()
	for i, p := range patterns {
		out[i] = z.m.EvalBits(root, p)
	}
}

// ContainsAt reports membership at an explicit enlargement level without
// changing the zone's current γ. On an unfrozen zone, missing levels are
// computed and cached. On a frozen zone only levels cached before the
// freeze are queryable (the read is then race-free — no state is touched);
// asking for a deeper level panics, because a frozen zone has no manager
// to compute it on.
func (z *Zone) ContainsAt(gamma int, p Pattern) bool {
	in, err := z.ContainsAtErr(gamma, p)
	if err != nil {
		panic(err.Error())
	}
	return in
}

// ContainsAtErr is ContainsAt with the frozen-zone contract surfaced as
// an error instead of a panic: asking a frozen zone for a level deeper
// than was cached before the freeze returns an error a serving daemon
// can degrade on, rather than crashing the process. Width mismatches and
// negative γ are reported the same way. The monitor-level evaluators
// (EvaluateAt, EvaluateQuantizedAt) route through it.
func (z *Zone) ContainsAtErr(gamma int, p Pattern) (bool, error) {
	if gamma < 0 {
		return false, fmt.Errorf("core: negative gamma %d", gamma)
	}
	if len(p) != z.width {
		return false, fmt.Errorf("core: pattern width %d does not match zone width %d", len(p), z.width)
	}
	if z.plans != nil {
		if gamma >= len(z.plans) {
			return false, fmt.Errorf("core: gamma %d beyond the %d levels cached before freeze (publish a deeper level via Monitor.UpdateGamma)",
				gamma, len(z.plans))
		}
		return z.plans[gamma].Eval(p), nil
	}
	z.extendTo(gamma)
	return z.m.EvalBits(z.roots[gamma], p), nil
}

// cloneWithDelta shadow-builds this frozen zone's successor for an online
// update: a writable manager re-derived from the cached plans, with the
// new patterns folded in at each level incrementally. A Hamming ball of a
// union is the union of the balls, so Zᵏ(old ∪ new) =
// Zᵏ(old) ∪ ExpandHamming(D, k) with D the delta cubes alone: the old
// levels are reused verbatim and only the new patterns are expanded. That
// makes the *fold* scale with the delta. The learn does not: deriving the
// manager here and compiling the successor at its Freeze each visit every
// node of every cached level — O(zone), small constant. The receiver is
// only read (it is serving); the returned zone is unfrozen, at the same γ.
func (z *Zone) cloneWithDelta(pats []Pattern) *Zone {
	for _, p := range pats {
		z.checkWidth(p)
	}
	m2, roots2 := bdd.Derive(z.plans)
	delta := m2.False()
	for _, p := range pats {
		delta = m2.Or(delta, m2.Cube(p))
	}
	for k := range roots2 {
		roots2[k] = m2.Or(roots2[k], m2.ExpandHamming(delta, k))
	}
	return &Zone{width: z.width, m: m2, roots: roots2, gamma: z.gamma, base: z.base + len(pats)}
}

// cloneAtGamma builds a frozen zone's successor queried at a different
// enlargement level. When the level was cached before the freeze, the new
// Zone shares the plans (and the diagnostic view) — an O(1) re-view, no
// copying and no recompilation. A deeper level needs new enlargements, so
// a manager is re-derived from the plans and extended; the successor is
// returned unfrozen and compiles its plans when it freezes.
func (z *Zone) cloneAtGamma(gamma int) *Zone {
	if gamma < len(z.plans) {
		return &Zone{width: z.width, plans: z.plans, view: z.view, gamma: gamma, base: z.base}
	}
	m2, roots2 := bdd.Derive(z.plans)
	z2 := &Zone{width: z.width, m: m2, roots: roots2, gamma: gamma, base: z.base}
	z2.extendTo(gamma)
	return z2
}

// PatternCount returns the exact number of patterns inside the zone at the
// current γ (BDD model count). With w monitored neurons the universe has
// 2^w patterns. On a frozen zone it goes through the diagnostic view.
func (z *Zone) PatternCount() float64 {
	return z.Manager().SatCount(z.Root())
}

// NodeCount returns the number of BDD nodes representing the zone at the
// current γ — the monitor's storage cost.
func (z *Zone) NodeCount() int {
	if z.plans != nil {
		return z.plans[z.gamma].Len()
	}
	return z.m.NodeCount(z.Root())
}

// PlanBytes returns each cached level's plan size; empty until frozen.
func (z *Zone) PlanBytes() []int {
	out := make([]int, len(z.plans))
	for i, p := range z.plans {
		out[i] = p.Bytes()
	}
	return out
}

// diagram returns the zone's BDD for tests and diagnostics (DOT export,
// model counts, an interpreted walk to check the plans against): the
// build manager, enlarged up to γ; on a frozen zone, which has none, a view
// materialised from the plans once. Nothing on the serving path comes here.
func (z *Zone) diagram() (*bdd.Manager, []bdd.Node) {
	if z.plans == nil {
		z.extendTo(z.gamma)
		return z.m, z.roots
	}
	z.view.once.Do(func() {
		z.view.m, z.view.roots = bdd.Derive(z.plans)
		z.view.m.Freeze()
	})
	return z.view.m, z.view.roots
}

// Manager exposes the zone's BDD manager (see diagram).
func (z *Zone) Manager() *bdd.Manager { m, _ := z.diagram(); return m }

// Root returns the zone's BDD root at the current γ, a handle into Manager().
func (z *Zone) Root() bdd.Node { _, roots := z.diagram(); return roots[z.gamma] }
