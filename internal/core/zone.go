package core

import (
	"fmt"

	"napmon/internal/bdd"
)

// Zone is the γ-comfort zone of one class (Definition 2): the set of
// activation patterns visited by correctly classified training inputs,
// enlarged with every pattern within Hamming distance γ of a visited one.
// The set is stored as a BDD over one variable per monitored neuron, so
// the deployment-time membership query costs at most one node visit per
// neuron regardless of how many patterns the zone holds.
type Zone struct {
	m     *bdd.Manager
	roots []bdd.Node // roots[i] is Z^i; roots[0] is the visited-pattern set
	gamma int        // current query level, an index into roots
	base  int        // number of Insert calls (visited patterns, with duplicates)

	// plans[i] is the compiled query plan of roots[i], built by Freeze —
	// the serving fast path. nil while the zone is mutable (the plan
	// would go stale under Insert/SetGamma); once set, Contains and
	// ContainsAt answer from the flat branch programs instead of walking
	// the manager's arena. Epoch re-views at a cached γ share the slice
	// with their predecessor, so an online update recompiles only the
	// zones it actually rebuilt.
	plans []*bdd.Compiled
}

// NewZone returns an empty comfort zone over width monitored neurons with
// γ = 0.
func NewZone(width int) *Zone {
	m := bdd.NewManager(width)
	return &Zone{m: m, roots: []bdd.Node{m.False()}}
}

// Width returns the number of monitored neurons.
func (z *Zone) Width() int { return z.m.NumVars() }

// Gamma returns the current Hamming enlargement level used by Contains.
func (z *Zone) Gamma() int { return z.gamma }

// InsertCount returns how many patterns have been inserted (counting
// duplicates).
func (z *Zone) InsertCount() int { return z.base }

// Insert adds a visited activation pattern to Z⁰ (line 6 of Algorithm 1:
// Z⁰_c ← bdd.or(Z⁰_c, bdd.encode(pat))). Inserting invalidates previously
// computed enlargements, so they are recomputed lazily by SetGamma.
func (z *Zone) Insert(p Pattern) {
	if z.m.Frozen() {
		// Fail before touching roots: a panic mid-update would leave the
		// zone with a truncated level stack.
		panic("core: Insert on frozen zone")
	}
	if len(p) != z.m.NumVars() {
		panic(fmt.Sprintf("core: pattern width %d does not match zone width %d",
			len(p), z.m.NumVars()))
	}
	z.roots = z.roots[:1]
	z.roots[0] = z.m.Or(z.roots[0], z.m.Cube(p))
	if z.gamma > 0 {
		z.extendTo(z.gamma)
	}
	z.base++
}

// SetGamma sets the Hamming enlargement level used by Contains, computing
// Zᵞ from Z⁰ by γ applications of the existential-quantification expansion
// (lines 9-14 of Algorithm 1). Intermediate levels are cached, so sweeping
// γ upward is incremental.
//
// A frozen zone's γ is immutable: once a zone serves concurrent readers,
// changing the query level in place would race with Contains, so SetGamma
// returns an error instead of silently mutating shared serving state.
// Change a live monitor's γ by publishing a new epoch (Monitor.UpdateGamma).
func (z *Zone) SetGamma(gamma int) error {
	if err := checkGamma(gamma, z.m.NumVars()); err != nil {
		return err
	}
	if z.m.Frozen() {
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

// extendTo computes and caches enlargement levels up to gamma.
func (z *Zone) extendTo(gamma int) {
	for len(z.roots) <= gamma {
		prev := z.roots[len(z.roots)-1]
		z.roots = append(z.roots, z.m.ExpandHamming1(prev))
	}
}

// Freeze makes the zone's BDD manager read-only and compiles every cached
// enlargement level into a flat query plan (bdd.Compile): Contains (and
// ContainsAt for already-computed levels) become safe for unlimited
// concurrent use and serve from the compiled programs instead of the
// arena. Insert and SetGamma panic or error from now on. Freezing is
// irreversible — it is the per-zone half of the monitor's
// freeze-then-serve concurrency model (see DESIGN.md); growing a frozen
// zone means shadow-building a successor (cloneWithDelta) and publishing
// it as a new epoch, which recompiles just that zone's plans.
func (z *Zone) Freeze() {
	z.m.Freeze()
	if z.plans == nil {
		z.plans = z.m.Compile(z.roots...)
	}
}

// Frozen reports whether the zone has been frozen.
func (z *Zone) Frozen() bool { return z.m.Frozen() }

// Contains reports whether p lies inside the current γ-comfort zone — the
// monitor's runtime membership query, linear in the number of monitored
// neurons. On a frozen zone the query runs on the compiled plan (a
// forward walk through a dense branch program); before the freeze it
// interprets the BDD in place.
func (z *Zone) Contains(p Pattern) bool {
	if len(p) != z.m.NumVars() {
		panic(fmt.Sprintf("core: pattern width %d does not match zone width %d",
			len(p), z.m.NumVars()))
	}
	if z.plans != nil {
		return z.plans[z.gamma].Eval(p)
	}
	return z.m.EvalBits(z.roots[z.gamma], p)
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
	nv := z.m.NumVars()
	for i, p := range patterns {
		if len(p) != nv {
			panic(fmt.Sprintf("core: pattern %d width %d does not match zone width %d", i, len(p), nv))
		}
	}
	if z.plans != nil {
		z.plans[z.gamma].EvalBatch(patterns, out)
		return
	}
	root := z.roots[z.gamma]
	for i, p := range patterns {
		out[i] = z.m.EvalBits(root, p)
	}
}

// ContainsAt reports membership at an explicit enlargement level without
// changing the zone's current γ. On an unfrozen zone, missing levels are
// computed and cached. On a frozen zone only levels cached before the
// freeze are queryable (the read is then race-free — no state is touched);
// asking for a deeper level panics, because computing it would mutate the
// shared manager.
func (z *Zone) ContainsAt(gamma int, p Pattern) bool {
	if gamma < 0 {
		panic("core: negative gamma")
	}
	if gamma >= len(z.roots) {
		if z.m.Frozen() {
			panic(fmt.Sprintf("core: ContainsAt(%d) beyond the %d levels cached before freeze", gamma, len(z.roots)))
		}
		z.extendTo(gamma)
	}
	if len(p) != z.m.NumVars() {
		panic(fmt.Sprintf("core: pattern width %d does not match zone width %d",
			len(p), z.m.NumVars()))
	}
	if z.plans != nil && gamma < len(z.plans) {
		return z.plans[gamma].Eval(p)
	}
	return z.m.EvalBits(z.roots[gamma], p)
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
	if len(p) != z.m.NumVars() {
		return false, fmt.Errorf("core: pattern width %d does not match zone width %d",
			len(p), z.m.NumVars())
	}
	if gamma >= len(z.roots) {
		if z.m.Frozen() {
			return false, fmt.Errorf("core: gamma %d beyond the %d levels cached before freeze (publish a deeper level via Monitor.UpdateGamma)",
				gamma, len(z.roots))
		}
		z.extendTo(gamma)
	}
	return z.ContainsAt(gamma, p), nil
}

// cloneWithDelta shadow-builds this zone's successor for an online update:
// a writable compact clone of every cached level, with the new patterns
// folded in at each level incrementally. Hamming expansion distributes
// over union — ExpandHamming1(f ∪ g) = ExpandHamming1(f) ∪
// ExpandHamming1(g), because ∃ distributes over ∨ — so
// Zᵏ(old ∪ new) = Zᵏ(old) ∪ Dᵏ with Dᵏ the k-fold expansion of the delta
// cubes alone. The update cost therefore scales with the delta, not with
// the zone: the cached old levels are reused verbatim and only the new
// patterns are expanded. The receiver is only read (it may be frozen and
// serving); the returned zone is unfrozen, at the same γ, and backed by a
// fresh compacted manager.
func (z *Zone) cloneWithDelta(pats []Pattern) *Zone {
	for _, p := range pats {
		if len(p) != z.m.NumVars() {
			panic(fmt.Sprintf("core: pattern width %d does not match zone width %d",
				len(p), z.m.NumVars()))
		}
	}
	m2, roots2 := z.m.CloneCompact(z.roots)
	delta := m2.False()
	for _, p := range pats {
		delta = m2.Or(delta, m2.Cube(p))
	}
	for k := range roots2 {
		roots2[k] = m2.Or(roots2[k], delta)
		if k+1 < len(roots2) {
			delta = m2.ExpandHamming1(delta)
		}
	}
	return &Zone{m: m2, roots: roots2, gamma: z.gamma, base: z.base + len(pats)}
}

// cloneAtGamma builds a successor zone queried at a different enlargement
// level. When the level was cached before the freeze, the new Zone shares
// the frozen manager, root stack and compiled plans — an O(1) re-view,
// no copying and no recompilation. A deeper level needs new expansions,
// so the zone is compact-cloned and extended on the writable copy (its
// plans are compiled when the successor freezes).
func (z *Zone) cloneAtGamma(gamma int) *Zone {
	if gamma < len(z.roots) {
		return &Zone{m: z.m, roots: z.roots, plans: z.plans, gamma: gamma, base: z.base}
	}
	m2, roots2 := z.m.CloneCompact(z.roots)
	z2 := &Zone{m: m2, roots: roots2, gamma: z.gamma, base: z.base}
	z2.extendTo(gamma)
	z2.gamma = gamma
	return z2
}

// PatternCount returns the exact number of patterns inside the zone at the
// current γ (BDD model count). With w monitored neurons the universe has
// 2^w patterns.
func (z *Zone) PatternCount() float64 {
	return z.m.SatCount(z.roots[z.gamma])
}

// NodeCount returns the number of BDD nodes representing the zone at the
// current γ — the monitor's storage cost.
func (z *Zone) NodeCount() int {
	return z.m.NodeCount(z.roots[z.gamma])
}

// Manager exposes the underlying BDD manager (primarily for tests and
// diagnostics such as DOT export).
func (z *Zone) Manager() *bdd.Manager { return z.m }

// Root returns the BDD root of the zone at the current γ.
func (z *Zone) Root() bdd.Node { return z.roots[z.gamma] }
