package bdd

// The rest of Bryant's toolkit: no build calls these, but the fuzzer's op
// table and the oracles do. They run on the same apply, mk and computed
// table as the product ops.

import "fmt"

// And returns the conjunction (set intersection) of a and b.
func (m *Manager) And(a, b Node) Node { return m.apply(opAnd, a, b) }

// Xor returns the symmetric difference of a and b.
func (m *Manager) Xor(a, b Node) Node { return m.apply(opXor, a, b) }

// Diff returns a ∧ ¬b (set difference).
func (m *Manager) Diff(a, b Node) Node { return m.apply(opDiff, a, b) }

// Not returns the complement of a. Results are memoized in the shared
// computed table under opNot with the operand in both key positions.
func (m *Manager) Not(a Node) Node {
	m.checkMutable()
	switch a {
	case falseNode:
		return trueNode
	case trueNode:
		return falseNode
	}
	if r, ok := m.cacheLookup(opNot, a, a); ok {
		return r
	}
	n := m.nodes[a]
	r := m.mk(n.level, m.Not(n.lo), m.Not(n.hi))
	m.cacheStore(opNot, a, a, r)
	return r
}

// Exists returns ∃v.f — the disjunction of the two cofactors of f on v:
// every pattern that agrees with some member of f on all variables except
// possibly the v-th (the paper's bdd.exists).
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

// Restrict returns f with variable v fixed to the given value.
func (m *Manager) Restrict(f Node, v int, value bool) Node {
	m.checkVar(v)
	return m.restrict(f, int32(v), value)
}

func (m *Manager) restrict(f Node, v int32, value bool) Node {
	m.checkMutable()
	lv := m.nodes[f].level
	if lv > v {
		return f
	}
	n := m.nodes[f]
	if lv == v {
		if value {
			return n.hi
		}
		return n.lo
	}
	return m.mk(lv, m.restrict(n.lo, v, value), m.restrict(n.hi, v, value))
}

// Var returns the diagram for variable v (the set of patterns whose v-th
// bit is 1).
func (m *Manager) Var(v int) Node {
	m.checkVar(v)
	return m.mk(int32(v), falseNode, trueNode)
}

// NVar returns the diagram for the negation of variable v.
func (m *Manager) NVar(v int) Node {
	m.checkVar(v)
	return m.mk(int32(v), trueNode, falseNode)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars() variables, by the memoized recursion over the arena that
// Compiled.SatCount runs as one backward pass: the oracle it must equal
// bit for bit.
func (m *Manager) SatCount(f Node) float64 {
	memo := make([]float64, len(m.nodes))
	done := make([]bool, len(m.nodes))
	var count func(n Node) float64 // models over variables [Level(n), numVars)
	count = func(n Node) float64 {
		if n == falseNode {
			return 0
		}
		if n == trueNode {
			return 1
		}
		if done[n] {
			return memo[n]
		}
		nd := m.nodes[n]
		cLo := count(nd.lo) * pow2(m.Level(nd.lo)-m.Level(n)-1)
		cHi := count(nd.hi) * pow2(m.Level(nd.hi)-m.Level(n)-1)
		c := cLo + cHi
		memo[n] = c
		done[n] = true
		return c
	}
	return count(f) * pow2(m.Level(f))
}

// NodeCount returns the number of decision nodes in the diagram rooted at
// f, excluding terminals: a compiled plan's Len.
func (m *Manager) NodeCount(f Node) int {
	seen := make([]bool, len(m.nodes))
	var walk func(n Node) int
	walk = func(n Node) int {
		if n <= trueNode || seen[n] {
			return 0
		}
		seen[n] = true
		nd := m.nodes[n]
		return 1 + walk(nd.lo) + walk(nd.hi)
	}
	return walk(f)
}

// Size returns the total number of nodes in the arena, including the two
// terminals: cumulative memory, not the size of any one diagram.
func (m *Manager) Size() int { return len(m.nodes) }

// Level returns the variable index tested at n, or NumVars() for the
// terminals.
func (m *Manager) Level(n Node) int {
	lv := m.nodes[n].level
	if lv == terminalLevel {
		return m.numVars
	}
	return int(lv)
}

// IsFalse reports whether n denotes the empty set.
func (m *Manager) IsFalse(n Node) bool { return n == falseNode }

// IsTrue reports whether n denotes the universal set.
func (m *Manager) IsTrue(n Node) bool { return n == trueNode }

// Frozen reports whether Freeze has been called.
func (m *Manager) Frozen() bool { return m.frozen }

// EvalBatchSliced evaluates the plan on every pattern through the
// bit-sliced walk whatever the batch width, with EvalBatch's up-front
// validation: the parity suites pin it against EvalBatchScalar and the
// interpreted EvalBits explicitly.
func (c *Compiled) EvalBatchSliced(patterns [][]bool, out []bool) {
	c.checkBatch(patterns, out)
	c.evalSliced(patterns, out)
}

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
