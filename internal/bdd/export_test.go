package bdd

// ExpandHamming1 returns the union of f with every pattern at Hamming
// distance exactly 1 from some member of f: line 12 of the paper's
// Algorithm 1, ⋃_j ∃x_j.f, spelled literally as 2·NumVars whole-diagram
// operations. Applied k times it is the tests' independent oracle for
// ExpandHamming(f, k).
func (m *Manager) ExpandHamming1(f Node) Node {
	out := f
	for v := 0; v < m.numVars; v++ {
		out = m.Or(out, m.exists(int32(v), f))
	}
	return out
}

// CloneCompact rebuilds the sub-diagrams reachable from roots into a fresh
// writable manager and returns it with the remapped roots (parallel to the
// input). Unreachable nodes — dead intermediates from Or/Exists chains
// during a long build — are left behind, so the clone's arena is exactly
// the live node set. It is the tests' independent oracle for Derive: a
// compact manager reached without going through a plan. The source
// manager is only read; it may be frozen.
func (m *Manager) CloneCompact(roots []Node) (*Manager, []Node) {
	c := NewManager(m.numVars)
	remap := make([]Node, len(m.nodes))
	mapped := make([]bool, len(m.nodes))
	mapped[falseNode], mapped[trueNode] = true, true
	remap[trueNode] = trueNode
	// Iterative post-order DFS: children are remapped before parents, so
	// each node is rebuilt with already-valid child handles. A deep-first
	// explicit stack keeps pathological chain diagrams from overflowing
	// the goroutine stack.
	var stack []Node
	visit := func(n Node) {
		if !mapped[n] {
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		visit(r)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			if mapped[n] {
				stack = stack[:len(stack)-1]
				continue
			}
			nd := m.nodes[n]
			if !mapped[nd.lo] || !mapped[nd.hi] {
				visit(nd.lo)
				visit(nd.hi)
				continue
			}
			remap[n] = c.mk(nd.level, remap[nd.lo], remap[nd.hi])
			mapped[n] = true
			stack = stack[:len(stack)-1]
		}
	}
	out := make([]Node, len(roots))
	for i, r := range roots {
		out[i] = remap[r]
	}
	return c, out
}
