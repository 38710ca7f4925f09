// Compiled query plans: the deployment-time fast path of the membership
// query. EvalBits realizes the paper's "one node visit per monitored
// neuron" bound as a pointer-chase through the manager's node arena — an
// arena that, after a build session, is mostly garbage (dead Or/expand
// intermediates) with the live diagram scattered across it, so every hop
// of a query is a potential cache miss into a structure sized by the
// build, not by the diagram. Compile fixes the layout once, at freeze
// time: each root is linearized into a flat, level-ordered branch
// program whose nodes are exactly the reachable set, ordered by variable
// level (ties broken by first-visit DFS order, lo before hi). A query
// then walks strictly forward through a dense array that is sized by the
// diagram and usually cache-resident, with terminals encoded as negative
// sentinels so the walk loop is branch-free apart from the bit test.
// EvalBatch amortizes the remaining per-call setup over a whole
// micro-batch — the serving path's unit of work (see DESIGN.md,
// "Compiled query plans + sharded build").

package bdd

import (
	"fmt"
	"unsafe"
)

// Terminal sentinels of a compiled plan: walk indices are >= 0, so the
// two constants can never collide with a branch target.
const (
	compiledFalse int32 = -1
	compiledTrue  int32 = -2
)

// branch is one compiled decision: test variable va; follow hi when the
// pattern bit is set, lo otherwise. lo/hi are indices into the program,
// or a terminal sentinel.
type branch struct {
	va     int32
	lo, hi int32
}

// Compiled is a frozen, self-contained branch program for one diagram.
// It holds no reference to the Manager it was compiled from: evaluating
// it is safe from any number of goroutines, for as long as the caller
// keeps it, and the manager is normally gone by then.
type Compiled struct {
	numVars int
	entry   int32
	prog    []branch
}

// Compile linearizes each root into its own flat branch program and
// returns the plans parallel to roots. Nodes are emitted level-ordered
// (ties broken by DFS discovery, lo-subgraph first), so a query's at
// most one visit per level walks monotonically forward through the
// program — the prefetcher's favorite access pattern — and the hot
// prefix of a skewed diagram stays contiguous. The manager is only read;
// Compile on a still-mutable manager snapshots the current diagram and
// does not track later growth.
func (m *Manager) Compile(roots ...Node) []*Compiled {
	plans := make([]*Compiled, len(roots))
	// pos: node handle → program index; compileOne zeroes what it wrote.
	pos := make([]int32, len(m.nodes))
	for i, r := range roots {
		plans[i] = m.compileOne(r, pos)
	}
	m.compiles.Add(uint64(len(roots)))
	return plans
}

// compileOne builds one root's program; pos is all zeroes before and after.
func (m *Manager) compileOne(root Node, pos []int32) *Compiled {
	c := &Compiled{numVars: m.numVars}
	if root <= trueNode {
		c.entry = terminalSentinel(root)
		return c
	}
	// Pass 1: iterative DFS (lo before hi) recording first-visit order of the
	// reachable decision nodes and each level's count; nonzero pos = seen.
	order := make([]Node, 0, 64)
	offsets := make([]int32, m.numVars+1) // offsets[lv+1] counts level lv
	stack := []Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n <= trueNode || pos[n] != 0 {
			continue
		}
		pos[n] = 1
		order = append(order, n)
		nd := &m.nodes[n]
		offsets[nd.level+1]++
		// Push hi first so lo is visited first: the lo cofactor is the
		// "neuron off" side, the denser one for ReLU patterns.
		stack = append(stack, nd.hi, nd.lo)
	}
	// Pass 2: stable partition by level. Levels along any root-to-leaf
	// path strictly increase, so emitting level groups in ascending order
	// guarantees every branch target points forward; within a level the
	// DFS discovery order keeps hot subgraphs adjacent. A counting sort
	// over the level histogram preserves that order in O(n).
	for lv := 1; lv <= m.numVars; lv++ {
		offsets[lv] += offsets[lv-1]
	}
	for _, n := range order {
		l := m.nodes[n].level
		pos[n] = offsets[l]
		offsets[l]++
	}
	target := func(n Node) int32 {
		if n <= trueNode {
			return terminalSentinel(n)
		}
		return pos[n]
	}
	c.prog = make([]branch, len(order))
	for _, n := range order {
		nd := &m.nodes[n]
		c.prog[pos[n]] = branch{va: nd.level, lo: target(nd.lo), hi: target(nd.hi)}
	}
	c.entry = pos[root] // always 0: the root alone occupies its level
	for _, n := range order {
		pos[n] = 0
	}
	return c
}

func terminalSentinel(n Node) int32 {
	if n == trueNode {
		return compiledTrue
	}
	return compiledFalse
}

// NumVars returns the pattern width the plan evaluates.
func (c *Compiled) NumVars() int { return c.numVars }

// Len returns the number of branches in the program (0 for a constant
// diagram) — the same count as the source diagram's NodeCount.
func (c *Compiled) Len() int { return len(c.prog) }

// Bytes returns the memory the program occupies.
func (c *Compiled) Bytes() int { return len(c.prog) * int(unsafe.Sizeof(branch{})) }

// Eval runs the branch program on a full assignment: at most one branch
// per variable, walking forward through the flat program. Bit-exact with
// Manager.EvalBits on the diagram the plan was compiled from.
func (c *Compiled) Eval(bits []bool) bool {
	if len(bits) != c.numVars {
		panic(fmt.Sprintf("bdd: compiled plan over %d variables evaluated on %d bits", c.numVars, len(bits)))
	}
	prog := c.prog
	i := c.entry
	for i >= 0 {
		b := prog[i]
		if bits[b.va] {
			i = b.hi
		} else {
			i = b.lo
		}
	}
	return i == compiledTrue
}

// EvalBatch evaluates the plan on every pattern, writing one verdict per
// pattern into out (len(out) must cover len(patterns)). This is the
// micro-batch entry point of the serving path. Narrow batches run the
// scalar walk (one forward chase per pattern, program hot in cache
// across the batch); at slicedThreshold patterns and above the batch is
// dispatched to the bit-sliced walk (bitslice.go), which answers up to
// 64 queries per pass over the program. Both paths are bit-exact with
// Eval. The out-length and every pattern width are validated up front,
// before any verdict is written, so a bad batch never leaves out
// partially filled.
func (c *Compiled) EvalBatch(patterns [][]bool, out []bool) {
	c.checkBatch(patterns, out)
	if len(patterns) >= slicedThreshold && len(c.prog) > 0 {
		c.evalSliced(patterns, out)
		return
	}
	c.evalScalar(patterns, out)
}

// EvalBatchScalar evaluates the plan on every pattern through the
// scalar walk regardless of batch width — one forward chase per
// pattern. It exists for the parity suites and benchmarks that must
// pin the scalar and bit-sliced paths against each other explicitly;
// serving goes through EvalBatch, which picks the path by batch width.
// Same up-front validation contract as EvalBatch.
func (c *Compiled) EvalBatchScalar(patterns [][]bool, out []bool) {
	c.checkBatch(patterns, out)
	c.evalScalar(patterns, out)
}

// checkBatch validates the batch contract shared by every batch entry
// point: out covers the patterns and every pattern has the plan's
// width. Validation happens before any verdict is written, so a
// mid-batch width mismatch cannot leave earlier verdicts behind.
func (c *Compiled) checkBatch(patterns [][]bool, out []bool) {
	if len(out) < len(patterns) {
		panic(fmt.Sprintf("bdd: EvalBatch output %d shorter than %d patterns", len(out), len(patterns)))
	}
	nv := c.numVars
	for pi, bits := range patterns {
		if len(bits) != nv {
			panic(fmt.Sprintf("bdd: compiled plan over %d variables evaluated on %d bits (pattern %d)", nv, len(bits), pi))
		}
	}
}

// evalScalar is the unvalidated scalar core shared by EvalBatch
// dispatch and EvalBatchScalar.
func (c *Compiled) evalScalar(patterns [][]bool, out []bool) {
	prog := c.prog
	entry := c.entry
	for pi, bits := range patterns {
		i := entry
		for i >= 0 {
			b := prog[i]
			if bits[b.va] {
				i = b.hi
			} else {
				i = b.lo
			}
		}
		out[pi] = i == compiledTrue
	}
}
