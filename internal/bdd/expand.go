package bdd

// ExpandHamming returns every pattern within Hamming distance k of some
// member of f — the γ-comfort zone Zᵏ of Definition 2 when f is Z⁰. It
// denotes the same function as k rounds of Algorithm 1's ⋃_j ∃x_j.f, but
// in one memoized pass over (node, k) pairs instead of 2·NumVars whole-
// diagram operations per round:
//
//	B(f, 0) = f,  B(terminal, k) = terminal,
//	B((v, lo, hi), k) = (v, B(lo,k) ∨ B(hi,k−1), B(hi,k) ∨ B(lo,k−1)).
//
// A variable a node skips is already don't-care, so it spends no budget.
func (m *Manager) ExpandHamming(f Node, k int) Node {
	m.checkMutable()
	if k < 0 {
		panic("bdd: negative Hamming distance")
	}
	return m.expand(f, Node(min(k, m.numVars)))
}

func (m *Manager) expand(f, k Node) Node {
	if k == 0 || f <= trueNode {
		return f
	}
	if r, ok := m.cacheLookup(opExpand, k, f); ok {
		return r
	}
	n := m.nodes[f] // a copy: mk below may grow the arena
	lo := m.Or(m.expand(n.lo, k), m.expand(n.hi, k-1))
	hi := m.Or(m.expand(n.hi, k), m.expand(n.lo, k-1))
	r := m.mk(n.level, lo, hi)
	m.cacheStore(opExpand, k, f, r)
	return r
}
