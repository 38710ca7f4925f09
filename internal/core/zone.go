package core

import (
	"fmt"
	"math/bits"
	"sync"

	"napmon/internal/bdd"
)

// overlayCap is K, the most learned patterns a zone keeps in its overlay
// beside the plans. A learn that would push the overlay past K folds
// overlay and delta into new plans; every other learn only appends.
const overlayCap = 64

// Zone is the γ-comfort zone of one class (Definition 2): the set of
// activation patterns visited by correctly classified training inputs,
// enlarged with every pattern within Hamming distance γ of a visited one.
// The set is stored as one compiled BDD query plan per enlargement level,
// so the deployment-time membership query costs at most one branch per
// monitored neuron regardless of how many patterns the zone holds.
//
// Beside the plans a zone keeps an overlay: the up to overlayCap patterns
// learned since the plans were compiled, raw members of Z⁰, packed into
// 64-neuron words. The Hamming ball of a union is the union of the balls,
// so Zᵞ(A ∪ B) = Zᵞ(A) ∪ Zᵞ(B): the zone holds p iff the plan of Zᵞ
// accepts p or some overlay pattern lies within distance γ of it.
// Membership is a decomposable searching problem (Bentley & Saxe), and a
// learn costs the delta: it appends to the overlay and leaves the plans
// alone, and only the learn that would push the overlay past overlayCap
// folds it into new plans.
//
// A Zone is finished when it exists: its width, γ, insert count, plans
// and overlay never change, so any number of goroutines may query it. The
// BDD manager that built it belonged to a zoneBuilder and is gone; a fold
// is a new build session on a manager re-derived from the plans
// (cloneWithDelta, cloneAtGamma).
type Zone struct {
	width int
	gamma int // query level, an index into plans
	base  int // number of inserted patterns (with duplicates), overlay included

	// plans[i] is the compiled query plan of Z^i over the folded patterns.
	// Epoch re-views at a cached γ share the slice, the overlay and the
	// view.
	plans []*bdd.Compiled
	// overlay holds the patterns learned since the plans were compiled,
	// words(width) words each (packWords), in learn order.
	overlay []uint64
	view    *zoneView
}

// zoneView is a frozen manager derived from the plans, with the overlay
// folded in, on the first call to Manager or Root. Every product read
// goes through the plans and the overlay; the view is left for the
// benchmark harness, whose referee walks it with EvalBits.
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

// builder re-opens the zone for a shadow build queried at γ: a manager
// derived from the plans with every cached level as a root, and the
// overlay plus extra folded into each level. A Hamming ball of a union is
// the union of the balls, so Zᵏ(old ∪ new) = Zᵏ(old) ∪ ExpandHamming(D, k)
// with D the new cubes alone: the old levels are reused verbatim and only
// the new patterns are expanded. Deriving the manager and compiling the
// result each visit every node of every cached level, which is why only
// a fold pays for them.
func (z *Zone) builder(gamma int, extra []Pattern) *zoneBuilder {
	m, roots := bdd.Derive(z.plans)
	b := &zoneBuilder{width: z.width, gamma: gamma, base: z.base + len(extra), m: m, roots: roots}
	if z.pending()+len(extra) == 0 {
		return b
	}
	delta := m.False()
	p := make(Pattern, z.width)
	for i := 0; i < z.pending(); i++ {
		delta = m.Or(delta, m.Cube(z.overlayPattern(i, p)))
	}
	for _, q := range extra {
		delta = m.Or(delta, m.Cube(q))
	}
	for k := range b.roots {
		b.roots[k] = m.Or(b.roots[k], m.ExpandHamming(delta, k))
	}
	return b
}

// words returns how many uint64 words one packed pattern of the given
// width takes.
func words(width int) int { return (width + 63) / 64 }

// packWords appends p packed 64 neurons per word to dst: neuron i is bit
// i%64 of word i/64 (bdd.PackBits), and the pad bits of the last word
// are zero.
func packWords(dst []uint64, p []bool) []uint64 {
	for v := 0; v < len(p); v += 64 {
		dst = append(dst, bdd.PackBits(p[v:min(v+64, len(p))]))
	}
	return dst
}

// pending returns how many learned patterns the overlay holds.
func (z *Zone) pending() int { return len(z.overlay) / words(z.width) }

// overlayPattern unpacks the i-th overlay pattern into p (len width).
func (z *Zone) overlayPattern(i int, p Pattern) Pattern {
	w := z.overlay[i*words(z.width):]
	for v := range p {
		p[v] = w[v/64]&(1<<(v%64)) != 0
	}
	return p
}

// inOverlay reports whether some overlay pattern lies within Hamming
// distance gamma of p: one XOR and popcount per word of each overlay
// pattern.
func (z *Zone) inOverlay(p []bool, gamma int) bool {
	var buf [8]uint64
	q := packWords(buf[:0], p)
	for o := 0; o < len(z.overlay); o += len(q) {
		d := 0
		for i, w := range q {
			d += bits.OnesCount64(w ^ z.overlay[o+i])
		}
		if d <= gamma {
			return true
		}
	}
	return false
}

// Width returns the number of monitored neurons.
func (z *Zone) Width() int { return z.width }

// Gamma returns the Hamming enlargement level used by Contains.
func (z *Zone) Gamma() int { return z.gamma }

// InsertCount returns how many patterns have been inserted (counting
// duplicates), the overlay's included.
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
// plan of Zᵞ, linear in the number of monitored neurons, and for a
// pattern the plan rejects a scan of the overlay.
func (z *Zone) Contains(p Pattern) bool {
	z.checkWidth(p)
	return z.plans[z.gamma].Eval(p) || len(z.overlay) > 0 && z.inOverlay(p, z.gamma)
}

// ContainsBatch answers the membership query for a whole micro-batch of
// patterns at the zone's γ, writing one verdict per pattern into out
// (len(out) must cover the patterns). The batch runs through the compiled
// plan's EvalBatch — one setup, the branch program hot in cache across
// the batch, and wide batches auto-dispatch to the bit-sliced walk (64
// queries per pass over the program) — which is how WatchBatch consults
// each class once per chunk. Only the rows the plan rejects scan the
// overlay. Elements of patterns may be Pattern values
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
	if len(z.overlay) == 0 {
		return
	}
	for i, p := range patterns {
		if !out[i] {
			out[i] = z.inOverlay(p, z.gamma)
		}
	}
}

// cloneWithDelta returns this zone's successor for an online update that
// learns pats. While the overlay and the delta together hold at most k
// patterns, the successor shares the plans and carries the overlay plus
// the packed delta: O(k + |delta|) words, no BDD. The learn that would
// push the overlay past k folds overlay and delta into new plans
// (builder, then freeze), and the successor's overlay is empty. The
// receiver is only read (it is serving); the successor keeps its γ. It
// returns the fold session's counters with the zone, zero without a fold.
func (z *Zone) cloneWithDelta(pats []Pattern, k int) (*Zone, bdd.Stats) {
	if z.pending()+len(pats) > k {
		return z.builder(z.gamma, pats).freeze()
	}
	overlay := make([]uint64, len(z.overlay), len(z.overlay)+len(pats)*words(z.width))
	copy(overlay, z.overlay)
	for _, p := range pats {
		overlay = packWords(overlay, p)
	}
	return &Zone{width: z.width, gamma: z.gamma, base: z.base + len(pats), plans: z.plans,
		overlay: overlay, view: new(zoneView)}, bdd.Stats{}
}

// cloneAtGamma returns this zone's successor queried at a different
// enlargement level. When the level is cached, the new Zone shares the
// plans, the overlay (raw Z⁰, checked at whatever γ serves) and the
// diagnostic view — an O(1) re-view, no copying, no recompilation and
// zero counters. A deeper level needs new enlargements: the overlay is
// folded into a builder re-derived from the plans, which is extended and
// frozen.
func (z *Zone) cloneAtGamma(gamma int) (*Zone, bdd.Stats) {
	if gamma < len(z.plans) {
		return &Zone{width: z.width, plans: z.plans, overlay: z.overlay, view: z.view, gamma: gamma, base: z.base}, bdd.Stats{}
	}
	return z.builder(gamma, nil).freeze()
}

// folded returns the zone's plans with the overlay folded in: the plans
// themselves when the overlay is empty, else a copy compiled for the
// caller, which the zone does not keep.
func (z *Zone) folded() []*bdd.Compiled {
	if len(z.overlay) == 0 {
		return z.plans
	}
	f, _ := z.builder(z.gamma, nil).freeze()
	return f.plans
}

// PatternCount returns the exact number of patterns inside the zone at its
// γ (the model count of its plan, the overlay folded in). With w monitored
// neurons the universe has 2^w patterns.
func (z *Zone) PatternCount() float64 { return z.folded()[z.gamma].SatCount() }

// Dot renders the zone's plan at its γ, the overlay folded in, in Graphviz
// DOT format under the given graph name.
func (z *Zone) Dot(name string) string { return z.folded()[z.gamma].Dot(name) }

// NodeCount returns the number of branches of the zone's plan at its γ —
// the monitor's storage cost. It counts plan branches only and leaves the
// overlay out.
func (z *Zone) NodeCount() int { return z.plans[z.gamma].Len() }

// PlanBytes returns each cached level's plan size, the overlay left out.
func (z *Zone) PlanBytes() []int {
	out := make([]int, len(z.plans))
	for i, p := range z.plans {
		out[i] = p.Bytes()
	}
	return out
}

// diagram returns the zone's BDD as a frozen view materialised once from
// the plans with the overlay folded in, and shared by every re-view: an
// interpreted walk to check the plans and overlay against. Nothing in the
// product comes here.
func (z *Zone) diagram() (*bdd.Manager, []bdd.Node) {
	z.view.once.Do(func() {
		b := z.builder(z.gamma, nil)
		z.view.m, z.view.roots = b.m, b.roots
		z.view.m.Freeze()
	})
	return z.view.m, z.view.roots
}

// Manager exposes the zone's view manager (see diagram).
func (z *Zone) Manager() *bdd.Manager { m, _ := z.diagram(); return m }

// Root returns the zone's BDD root at its γ, a handle into Manager().
func (z *Zone) Root() bdd.Node { _, roots := z.diagram(); return roots[z.gamma] }
