// Compiled-plan (de)serialization hooks. A Compiled branch program is a
// complete, canonical description of the diagram it was compiled from —
// level-ordered nodes, forward-only targets, terminals as sentinels — so
// it doubles as a compact wire/disk form and is all a frozen zone keeps.
// NewCompiled admits a serialized program only if it is exactly what
// Compile would emit, so a loader keeps what it read and canonicity
// (Bryant: one reduced diagram per function and order) makes "equal
// plans" mean "equal zones" with nothing rebuilt; the tests and
// FuzzLoadSnapshot hold it to Compile(FromCompiled(p)) == p. Derive goes
// the other way: a writable manager for an online update's build session.

package bdd

import (
	"fmt"
	"unsafe"
)

// Terminal target codes of a compiled plan in exported form, for codecs
// that serialize branch programs. They match the internal sentinels:
// branch targets >= 0 are program indices, these two never collide.
const (
	TerminalFalse int32 = compiledFalse
	TerminalTrue  int32 = compiledTrue
)

// PlanBranch is the exported form of one compiled decision: test
// variable Va; follow Hi when the pattern bit is set, Lo otherwise.
// Lo/Hi are forward program indices or a Terminal sentinel.
type PlanBranch struct {
	Va, Lo, Hi int32
}

// Entry returns the plan's entry point: a program index (always 0 for a
// plan compiled from a non-terminal root) or a Terminal sentinel for a
// constant diagram.
func (c *Compiled) Entry() int32 { return c.entry }

// Branch returns the i-th compiled decision.
func (c *Compiled) Branch(i int) PlanBranch {
	b := c.prog[i]
	return PlanBranch{Va: b.va, Lo: b.lo, Hi: b.hi}
}

// NewCompiled reconstructs a plan from its serialized parts. It accepts
// exactly the programs Compile can emit: a corrupt or hostile stream fails
// here, not out of bounds at query time, and what passes is canonical:
//
//   - every Va is a variable of the plan, and Va is non-decreasing
//     through the program (level ordering);
//   - every branch target is a Terminal sentinel or a strictly forward
//     index whose branch tests a strictly later variable;
//   - no branch is redundant (Lo == Hi) and no two branches are equal
//     (the two ROBDD reduction rules);
//   - every branch is reachable from the entry, and each level's branches
//     appear in the order a lo-before-hi depth-first walk first meets
//     them (so the entry is 0, or a Terminal when the program is empty).
//
// The plan takes ownership of branches (PlanBranch is branch with exported
// field names: the slice becomes the program, uncopied).
func NewCompiled(numVars int, entry int32, branches []PlanBranch) (*Compiled, error) {
	if numVars <= 0 {
		return nil, fmt.Errorf("bdd: compiled plan needs at least one variable, got %d", numVars)
	}
	if len(branches) == 0 {
		if entry != TerminalFalse && entry != TerminalTrue {
			return nil, fmt.Errorf("bdd: empty plan with non-terminal entry %d", entry)
		}
		return &Compiled{numVars: numVars, entry: entry}, nil
	}
	if entry != 0 {
		return nil, fmt.Errorf("bdd: plan entry %d of a %d-branch program is not its first branch", entry, len(branches))
	}
	prog := unsafe.Slice((*branch)(unsafe.Pointer(unsafe.SliceData(branches))), len(branches))
	next := make([]int32, numVars) // next[v]: first branch of level v, then the walk's cursor
	widest := 0
	for i, b := range branches {
		if b.Va < 0 || b.Va >= int32(numVars) {
			return nil, fmt.Errorf("bdd: branch %d variable %d out of range [0,%d)", i, b.Va, numVars)
		}
		if i > 0 && b.Va < branches[i-1].Va {
			return nil, fmt.Errorf("bdd: branch %d variable %d breaks level ordering after %d",
				i, b.Va, branches[i-1].Va)
		}
		if b.Lo == b.Hi {
			return nil, fmt.Errorf("bdd: branch %d is redundant (lo == hi == %d)", i, b.Lo)
		}
		for _, t := range [2]int32{b.Lo, b.Hi} {
			if t == TerminalFalse || t == TerminalTrue {
				continue
			}
			if t <= int32(i) || int(t) >= len(branches) {
				return nil, fmt.Errorf("bdd: branch %d target %d is not forward in [%d,%d)", i, t, i+1, len(branches))
			}
			if branches[t].Va <= b.Va {
				return nil, fmt.Errorf("bdd: branch %d (var %d) targets branch %d testing var %d out of order", i, b.Va, t, branches[t].Va)
			}
		}
		if i == 0 || b.Va != branches[i-1].Va {
			next[b.Va] = int32(i)
		}
		widest = max(widest, i+1-int(next[b.Va]))
	}
	if err := checkCanonical(prog, next, widest); err != nil {
		return nil, err
	}
	return &Compiled{numVars: numVars, entry: entry, prog: prog}, nil
}

// checkCanonical tells Compile's one program for a diagram from the many
// that evaluate the same: no two equal branches, every branch reachable,
// every level in depth-first first-visit order. prog is structurally
// valid; next[v] indexes level v's first branch, widest is the longest level.
func checkCanonical(prog []branch, next []int32, widest int) error {
	// Equal branches share a level, so one open-addressed table sized for the
	// widest serves all: slots hold index+1, an earlier level's read as empty.
	size := 2
	for size < 2*widest {
		size <<= 1
	}
	tab, mask := make([]int32, size), uint32(size-1)
	for i, b := range prog {
		h := hash3(b.va, Node(b.lo), Node(b.hi)) & mask
		for ; tab[h] > next[b.va]; h = (h + 1) & mask {
			if prog[tab[h]-1] == b {
				return fmt.Errorf("bdd: branches %d and %d are equal (var %d, lo %d, hi %d)", tab[h]-1, i, b.va, b.lo, b.hi)
			}
		}
		tab[h] = int32(i) + 1
	}
	// Compile's walk, replayed: the k-th branch of a level to be discovered
	// must be the k-th of that level. While that holds, next[v] separates
	// level v's discovered branches (below it) from the rest.
	visited := 0
	stack := []int32{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := prog[i]
		if i < next[b.va] {
			continue
		}
		if i > next[b.va] {
			return fmt.Errorf("bdd: branch %d is out of depth-first order on level %d (expected %d)", i, b.va, next[b.va])
		}
		next[b.va]++
		visited++
		if b.hi >= 0 {
			stack = append(stack, b.hi)
		}
		if b.lo >= 0 {
			stack = append(stack, b.lo)
		}
	}
	if visited != len(prog) {
		return fmt.Errorf("bdd: %d of %d branches are unreachable", len(prog)-visited, len(prog))
	}
	return nil
}

// FromCompiled rebuilds the canonical diagram a plan was compiled from
// into this manager and returns its root. Targets only point forward, so
// a single reverse pass interns every branch through mk with its
// children already materialized; loading into a non-empty manager shares
// structure with what it holds. The manager must be mutable and match
// the plan's variable count.
func (m *Manager) FromCompiled(c *Compiled) (Node, error) {
	if c.numVars != m.numVars {
		return falseNode, fmt.Errorf("bdd: plan over %d variables loaded into manager with %d", c.numVars, m.numVars)
	}
	if len(c.prog) == 0 {
		if c.entry == compiledTrue {
			return trueNode, nil
		}
		return falseNode, nil
	}
	nodes := make([]Node, len(c.prog))
	resolve := func(t int32) Node {
		switch t {
		case compiledFalse:
			return falseNode
		case compiledTrue:
			return trueNode
		default:
			return nodes[t]
		}
	}
	for i := len(c.prog) - 1; i >= 0; i-- {
		b := c.prog[i]
		nodes[i] = m.mk(b.va, resolve(b.lo), resolve(b.hi))
	}
	return nodes[c.entry], nil
}

// Derive re-derives a writable manager from plans over the same variables
// (a zone's cached levels), one root per plan: how a build session resumes
// on a frozen zone, which keeps no manager. Arena and unique table are
// sized once from the plan lengths; nothing here reads the computed table.
func Derive(plans []*Compiled) (*Manager, []Node) {
	total := 0
	for _, p := range plans {
		total += len(p.prog)
	}
	m := newManagerFor(plans[0].numVars, total)
	roots := make([]Node, len(plans))
	for i, p := range plans {
		var err error
		if roots[i], err = m.FromCompiled(p); err != nil {
			panic(err) // plans of one zone share a width
		}
	}
	return m, roots
}
