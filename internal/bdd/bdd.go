// Package bdd implements Reduced Ordered Binary Decision Diagrams (ROBDDs)
// in the style of Bryant (1992), the data structure the paper uses to store
// neuron activation pattern sets. A Manager owns an arena of nodes shared
// by all diagrams it creates; diagrams are referenced by opaque Node
// handles. Structural sharing plus a unique table guarantee canonicity:
// two Nodes are equal iff they denote the same Boolean function.
//
// The operations provided are exactly those Algorithm 1 of the paper needs
// (encode a pattern as a cube, union via Or, Hamming enlargement via
// ExpandHamming — one memoized pass for what the paper spells as γ rounds
// of ⋃_j ∃x_j) plus the general toolkit (And, Not, Xor, Diff, Exists, ITE,
// SatCount, Eval) required by tests, metrics and serialization.
//
// Storage layout (see DESIGN.md, "BDD manager internals"): nodes live in a
// flat arena indexed by their handle. Canonicity is enforced by an
// open-addressed, power-of-two-sized unique table of int32 handles probed
// inline against the arena — no boxed map keys, no per-node allocation.
// Operation results are memoized in a single lossy direct-mapped computed
// table shared by the binary ops, Not, Exists and ExpandHamming, sized in
// lockstep with the unique table.
//
// A Manager is a build tool whose lifetime is one build session: construct
// the diagrams, Compile them into flat plans (compile.go), let it go. The
// plans are canonical and complete, so an online update re-derives a
// manager from them (Derive) for the milliseconds it needs one. Freeze is
// for a manager kept for inspection: it leaves only the arena, on which
// Eval/EvalBits and the walks are safe from any number of goroutines.
package bdd

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Node is a handle to a BDD rooted at a node in a Manager's arena.
// The zero value is the constant-false diagram.
type Node int32

// Reserved handles for the two terminal nodes.
const (
	falseNode Node = 0
	trueNode  Node = 1
)

// node is one decision node: if variable "level" is true follow hi,
// otherwise lo. Terminals use level == terminalLevel.
type node struct {
	level int32
	lo    Node
	hi    Node
}

// Manager owns the node arena, the unique table enforcing canonicity and
// the memoization cache. It is not safe for concurrent mutation; build
// monitors from a single goroutine, then call Freeze — queries via Eval
// are read-only and may run concurrently once the manager is frozen.
type Manager struct {
	numVars int
	nodes   []node
	frozen  bool

	// unique is the open-addressed hash table enforcing canonicity. Slots
	// hold node handles; 0 marks an empty slot (the terminals never enter
	// the table, so handle 0 is free to act as the sentinel). Size is
	// always a power of two; uniqueMask == len(unique)-1.
	unique     []int32
	uniqueMask uint32

	// cache is the lossy direct-mapped computed table shared by apply,
	// Not, exists and expand. A zero entry has key.b == 0, which no live
	// key can have (see cacheStore), so zero slots never produce false hits.
	cache       []cacheEntry
	cacheMask   uint32
	cacheGrowAt uint64 // CacheMisses reading at which cacheStore next checks the table's size

	// compiles counts query plans built by Compile. Atomic because plans
	// may be compiled from a frozen manager that is concurrently serving
	// reads (the rest of stats is only written by the build goroutine).
	compiles atomic.Uint64

	stats Stats
}

// cacheEntry is one computed-table slot: (op, a, b) -> result.
type cacheEntry struct {
	a, b   Node
	result Node
	op     uint8
}

// Operation codes for the computed table.
const (
	opAnd uint8 = iota
	opOr
	opXor
	opDiff
	opExists // a = variable, b = function
	opNot    // a = b = operand
	opExpand // a = Hamming distance k ≥ 1, b = function
)

// terminalLevel is the pseudo-level assigned to the two terminals so they
// sort after every variable.
const terminalLevel = math.MaxInt32

// Initial table sizes (powers of two). The unique table doubles at 3/4
// load; the computed table doubles alongside it — so hit rates track the
// arena size — but is capped: past maxCacheSize the marginal hit-rate gain
// no longer pays for the resize traffic and memory (the table is lossy by
// design, so a capped size stays correct). A manager whose unique table
// was sized up front (Derive) earns its computed table: see cacheStore.
const (
	initialUniqueSize = 1 << 10
	initialCacheSize  = 1 << 11
	maxCacheSize      = 1 << 21
)

// Stats reports the manager's cumulative storage and cache counters.
// Hits/misses are counted since NewManager; capacities are current.
type Stats struct {
	// Nodes is the number of decision nodes in the arena (terminals
	// excluded). Every node ever created is counted: the arena does not
	// garbage-collect.
	Nodes int
	// UniqueHits counts mk calls answered by an existing canonical node;
	// UniqueMisses counts node creations.
	UniqueHits, UniqueMisses uint64
	// CacheHits and CacheMisses count computed-table probes by apply,
	// Not, Exists and ExpandHamming.
	CacheHits, CacheMisses uint64
	// UniqueCap and CacheCap are the current table capacities (slots);
	// both are 0 once the manager is frozen.
	UniqueCap, CacheCap int
	// Compiles counts the query plans built from this manager's diagrams
	// (one per root passed to Compile).
	Compiles uint64
	// Frozen reports whether the manager has been frozen read-only.
	Frozen bool
}

// NewManager creates a manager for functions over numVars Boolean
// variables, indexed 0..numVars-1 with the natural variable order.
func NewManager(numVars int) *Manager { return newManagerFor(numVars, 0) }

// newManagerFor is NewManager with the arena and the unique table sized
// once for about nodes nodes (load ≤ 1/2: a delta on top does not rehash).
func newManagerFor(numVars, nodes int) *Manager {
	if numVars <= 0 {
		panic("bdd: manager needs at least one variable")
	}
	uniqueSize := initialUniqueSize
	for uniqueSize < 2*nodes {
		uniqueSize <<= 1
	}
	m := &Manager{
		numVars:     numVars,
		nodes:       make([]node, 2, max(1024, 2+nodes+nodes/8)),
		unique:      make([]int32, uniqueSize),
		uniqueMask:  uint32(uniqueSize - 1),
		cache:       make([]cacheEntry, initialCacheSize),
		cacheMask:   initialCacheSize - 1,
		cacheGrowAt: initialCacheSize,
	}
	m.nodes[falseNode] = node{level: terminalLevel}
	m.nodes[trueNode] = node{level: terminalLevel}
	return m
}

// NumVars returns the number of variables the manager was created with.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the total number of live nodes in the arena, including the
// two terminals. It measures cumulative memory, not the size of any one
// diagram (use NodeCount for that).
func (m *Manager) Size() int { return len(m.nodes) }

// Stats returns a snapshot of the manager's storage and cache counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Nodes = len(m.nodes) - 2
	s.UniqueCap = len(m.unique)
	s.CacheCap = len(m.cache)
	s.Compiles = m.compiles.Load()
	s.Frozen = m.frozen
	return s
}

// Freeze makes the manager read-only and drops the unique and computed
// tables, which only node creation reads: any operation that could create
// a node panics from now on; Eval, EvalBits, Compile and the accessors stay
// valid on the arena from any number of goroutines. It is irreversible.
func (m *Manager) Freeze() {
	m.frozen = true
	m.unique, m.cache = nil, nil
}

// Frozen reports whether Freeze has been called.
func (m *Manager) Frozen() bool { return m.frozen }

// checkMutable panics when the manager is frozen. Every operation that
// could create nodes or write the computed table calls it on entry, so a
// frozen manager fails loudly and deterministically instead of racing.
func (m *Manager) checkMutable() {
	if m.frozen {
		panic("bdd: mutating operation on frozen manager")
	}
}

// False returns the constant-false diagram (the empty pattern set).
func (m *Manager) False() Node { return falseNode }

// True returns the constant-true diagram (the set of all patterns).
func (m *Manager) True() Node { return trueNode }

// IsFalse reports whether n denotes the empty set.
func (m *Manager) IsFalse(n Node) bool { return n == falseNode }

// IsTrue reports whether n denotes the universal set.
func (m *Manager) IsTrue(n Node) bool { return n == trueNode }

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

// hash3 mixes a (level, lo, hi) triple into a table index. Distinct odd
// multipliers per field followed by an avalanche keep clustering low under
// linear probing.
func hash3(level int32, lo, hi Node) uint32 {
	h := uint64(uint32(level))*0x9E3779B97F4A7C15 +
		uint64(uint32(lo))*0xC2B2AE3D27D4EB4F +
		uint64(uint32(hi))*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0x2545F4914F6CDD1D
	h ^= h >> 29
	return uint32(h)
}

// mk returns the canonical node (level, lo, hi), applying the two ROBDD
// reduction rules: skip redundant tests (lo == hi) and share isomorphic
// subgraphs via the unique table. The probe runs inline over int32 slots
// compared against the arena, so a hit costs no allocation and no hashing
// of boxed keys.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	m.checkMutable()
	i := hash3(level, lo, hi) & m.uniqueMask
	for {
		slot := m.unique[i]
		if slot == 0 {
			break
		}
		n := &m.nodes[slot]
		if n.level == level && n.lo == lo && n.hi == hi {
			m.stats.UniqueHits++
			return Node(slot)
		}
		i = (i + 1) & m.uniqueMask
	}
	m.stats.UniqueMisses++
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	id := int32(len(m.nodes) - 1)
	m.unique[i] = id
	// Grow at 3/4 load. len(nodes)-2 counts exactly the slots in use.
	if (len(m.nodes)-2)*4 >= len(m.unique)*3 {
		m.growUnique()
	}
	return Node(id)
}

// growUnique doubles the unique table and rehashes every decision node
// from the arena; the computed table doubles in lockstep so its hit rate
// keeps tracking the arena size. Amortized over insertions this is O(1)
// per node.
func (m *Manager) growUnique() {
	tab := make([]int32, 2*len(m.unique))
	mask := uint32(len(tab) - 1)
	for id := 2; id < len(m.nodes); id++ {
		n := &m.nodes[id]
		i := hash3(n.level, n.lo, n.hi) & mask
		for tab[i] != 0 {
			i = (i + 1) & mask
		}
		tab[i] = int32(id)
	}
	m.unique = tab
	m.uniqueMask = mask
	m.doubleCache()
}

// doubleCache doubles the computed table, up to maxCacheSize, rehashing.
func (m *Manager) doubleCache() {
	if len(m.cache) >= maxCacheSize {
		return
	}
	cache := make([]cacheEntry, 2*len(m.cache))
	cmask := uint32(len(cache) - 1)
	for _, e := range m.cache {
		if e.b != 0 {
			cache[cacheHash(e.op, e.a, e.b)&cmask] = e
		}
	}
	m.cache = cache
	m.cacheMask = cmask
}

// cacheHash mixes a computed-table key into an index.
func cacheHash(op uint8, a, b Node) uint32 {
	h := (uint64(uint32(a))<<32 | uint64(uint32(b))) * 0x9E3779B97F4A7C15
	h ^= uint64(op) * 0xFF51AFD7ED558CCD
	h ^= h >> 31
	return uint32(h)
}

// cacheLookup probes the computed table for (op, a, b).
func (m *Manager) cacheLookup(op uint8, a, b Node) (Node, bool) {
	e := &m.cache[cacheHash(op, a, b)&m.cacheMask]
	if e.b == b && e.a == a && e.op == op {
		m.stats.CacheHits++
		return e.result, true
	}
	m.stats.CacheMisses++
	return 0, false
}

// cacheStore records (op, a, b) -> r, evicting whatever occupied the slot
// (the table is deliberately lossy, as in classic BDD packages). Every key
// stored here has b >= 2: terminal operands are resolved before memoization
// by terminalApply (binary ops), the Not fast path, the exists level-check
// and the expand terminal check, and commutative operands are ordered
// a <= b. That invariant is what lets a zero-valued slot (b == 0) act as
// "empty".
//
// Once per table's worth of misses, a table behind the lockstep (two
// computed slots per unique slot) doubles. A manager grown from NewManager
// never is; one derived from plans starts with the initial table, so a
// small delta allocates little and a whole-diagram expansion catches up.
func (m *Manager) cacheStore(op uint8, a, b, r Node) {
	if m.stats.CacheMisses >= m.cacheGrowAt {
		if len(m.cache) < 2*len(m.unique) {
			m.doubleCache()
		}
		m.cacheGrowAt = m.stats.CacheMisses + uint64(len(m.cache))
	}
	m.cache[cacheHash(op, a, b)&m.cacheMask] = cacheEntry{a: a, b: b, result: r, op: op}
}

// Lo returns the low (variable=0) child of n. Terminals return n itself.
func (m *Manager) Lo(n Node) Node {
	if n <= trueNode {
		return n
	}
	return m.nodes[n].lo
}

// Hi returns the high (variable=1) child of n. Terminals return n itself.
func (m *Manager) Hi(n Node) Node {
	if n <= trueNode {
		return n
	}
	return m.nodes[n].hi
}

// Level returns the variable index tested at n, or NumVars() for the
// terminals.
func (m *Manager) Level(n Node) int {
	lv := m.nodes[n].level
	if lv == terminalLevel {
		return m.numVars
	}
	return int(lv)
}
