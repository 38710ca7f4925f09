package bdd

// And returns the conjunction (set intersection) of a and b.
func (m *Manager) And(a, b Node) Node { return m.apply(opAnd, a, b) }

// Or returns the disjunction (set union) of a and b.
func (m *Manager) Or(a, b Node) Node { return m.apply(opOr, a, b) }

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

// Implies returns ¬a ∨ b.
func (m *Manager) Implies(a, b Node) Node { return m.Or(m.Not(a), b) }

// ITE returns the if-then-else combination f?g:h.
func (m *Manager) ITE(f, g, h Node) Node {
	return m.Or(m.And(f, g), m.And(m.Not(f), h))
}

// terminalApply resolves op on the operands if the result is determined,
// returning (result, true); otherwise (0, false). Together with the
// commutative-operand ordering in apply, it guarantees every key reaching
// the computed table has b >= 2.
func terminalApply(op uint8, a, b Node) (Node, bool) {
	switch op {
	case opAnd:
		if a == falseNode || b == falseNode {
			return falseNode, true
		}
		if a == trueNode {
			return b, true
		}
		if b == trueNode {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opOr:
		if a == trueNode || b == trueNode {
			return trueNode, true
		}
		if a == falseNode {
			return b, true
		}
		if b == falseNode {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opXor:
		if a == b {
			return falseNode, true
		}
		if a == falseNode {
			return b, true
		}
		if b == falseNode {
			return a, true
		}
	case opDiff:
		if a == falseNode || b == trueNode {
			return falseNode, true
		}
		if b == falseNode {
			return a, true
		}
		if a == b {
			return falseNode, true
		}
	}
	return 0, false
}

// apply is Bryant's apply algorithm with memoization: recurse on the
// top-most variable of the two operands, combining cofactors.
func (m *Manager) apply(op uint8, a, b Node) Node {
	m.checkMutable()
	if r, ok := terminalApply(op, a, b); ok {
		return r
	}
	// Canonicalize commutative operand order for better cache hit rates
	// (and to establish b >= 2 for the computed-table empty-slot sentinel).
	if (op == opAnd || op == opOr || op == opXor) && a > b {
		a, b = b, a
	}
	if r, ok := m.cacheLookup(op, a, b); ok {
		return r
	}
	la, lb := m.nodes[a].level, m.nodes[b].level
	var lv int32
	var aLo, aHi, bLo, bHi Node
	switch {
	case la == lb:
		lv = la
		aLo, aHi = m.nodes[a].lo, m.nodes[a].hi
		bLo, bHi = m.nodes[b].lo, m.nodes[b].hi
	case la < lb:
		lv = la
		aLo, aHi = m.nodes[a].lo, m.nodes[a].hi
		bLo, bHi = b, b
	default:
		lv = lb
		aLo, aHi = a, a
		bLo, bHi = m.nodes[b].lo, m.nodes[b].hi
	}
	r := m.mk(lv, m.apply(op, aLo, bLo), m.apply(op, aHi, bHi))
	m.cacheStore(op, a, b, r)
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

// Eval evaluates the function at a complete assignment, reading variable
// values through the callback. This is the runtime membership query of the
// monitor: worst-case time linear in the number of variables (the property
// the paper relies on for deployment). Eval touches only the node arena,
// never the tables, so it is safe to call concurrently on a frozen
// manager.
func (m *Manager) Eval(f Node, value func(v int) bool) bool {
	for f > trueNode {
		n := m.nodes[f]
		if value(int(n.level)) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == trueNode
}

// EvalBits evaluates the function on a bit-slice assignment of length
// NumVars(). This is the monitor's per-decision fast path: a direct walk
// down the arena with no closure and no allocation, concurrency-safe on a
// frozen manager.
func (m *Manager) EvalBits(f Node, bits []bool) bool {
	if len(bits) != m.numVars {
		panic("bdd: EvalBits assignment length must equal NumVars")
	}
	for f > trueNode {
		n := &m.nodes[f]
		if bits[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == trueNode
}

// Cube returns the conjunction of all variables, with polarity taken from
// bits (bits[i] selects v_i or ¬v_i). This encodes a single activation
// pattern; len(bits) must equal NumVars(). Built bottom-up so it costs
// O(NumVars) unique-table probes and allocates only when a probe misses.
func (m *Manager) Cube(bits []bool) Node {
	if len(bits) != m.numVars {
		panic("bdd: Cube length must equal NumVars")
	}
	n := trueNode
	for v := m.numVars - 1; v >= 0; v-- {
		if bits[v] {
			n = m.mk(int32(v), falseNode, n)
		} else {
			n = m.mk(int32(v), n, falseNode)
		}
	}
	return n
}

// CubeSparse returns the conjunction of the listed variables with the given
// polarities; unlisted variables are unconstrained. vars must be strictly
// increasing.
func (m *Manager) CubeSparse(vars []int, vals []bool) Node {
	if len(vars) != len(vals) {
		panic("bdd: CubeSparse vars/vals length mismatch")
	}
	n := trueNode
	for i := len(vars) - 1; i >= 0; i-- {
		m.checkVar(vars[i])
		if i > 0 && vars[i-1] >= vars[i] {
			panic("bdd: CubeSparse vars must be strictly increasing")
		}
		if vals[i] {
			n = m.mk(int32(vars[i]), falseNode, n)
		} else {
			n = m.mk(int32(vars[i]), n, falseNode)
		}
	}
	return n
}
