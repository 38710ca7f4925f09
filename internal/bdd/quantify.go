package bdd

// Exists returns ∃v.f — the disjunction of the two cofactors of f on v.
// On a pattern set this is exactly the paper's Hamming enlargement
// primitive: bdd.exists(j, Z) contains every pattern that agrees with some
// member of Z on all variables except possibly the j-th.
func (m *Manager) Exists(v int, f Node) Node {
	m.checkVar(v)
	return m.exists(int32(v), f)
}

func (m *Manager) exists(v int32, f Node) Node {
	m.checkMutable()
	lv := m.nodes[f].level
	if lv > v {
		return f // f does not depend on v (includes the terminals)
	}
	if r, ok := m.cacheLookup(opExists, Node(v), f); ok {
		return r
	}
	n := m.nodes[f]
	var r Node
	if lv == v {
		r = m.Or(n.lo, n.hi)
	} else {
		r = m.mk(lv, m.exists(v, n.lo), m.exists(v, n.hi))
	}
	m.cacheStore(opExists, Node(v), f, r)
	return r
}

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

// Support returns the sorted list of variables f depends on. The visited
// set is a flat bit-slice over the arena rather than a map, so the walk
// allocates O(Size) bytes once and never boxes a handle.
func (m *Manager) Support(f Node) []int {
	seen := make([]bool, len(m.nodes))
	inSupport := make([]bool, m.numVars)
	var walk func(n Node)
	walk = func(n Node) {
		if n <= trueNode || seen[n] {
			return
		}
		seen[n] = true
		nd := m.nodes[n]
		inSupport[nd.level] = true
		walk(nd.lo)
		walk(nd.hi)
	}
	walk(f)
	var vars []int
	for v, in := range inSupport {
		if in {
			vars = append(vars, v)
		}
	}
	return vars
}
