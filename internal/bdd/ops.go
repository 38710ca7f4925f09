package bdd

// Or returns the disjunction (set union) of a and b.
func (m *Manager) Or(a, b Node) Node { return m.apply(opOr, a, b) }

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
