package bdd

// FuzzBDDOps is a differential fuzzer for the BDD engine: the fuzz input
// is interpreted as a little program over a stack of diagrams (push
// variables and cubes, apply And/Or/Xor/Diff/Not/Exists/Restrict and
// ExpandHamming), and a parallel truth table over ≤ 12 variables is
// maintained as the oracle — for ExpandHamming(f, k), k rounds of "a or
// some one-bit neighbour of a" over the table.
// After every step the invariants the monitor relies on are checked:
//
//   - EvalBits agrees with the truth table on every assignment;
//   - the compiled query plan (Compile → Eval/EvalBatch) agrees with the
//     truth table on every assignment — the serving fast path is checked
//     differentially against the same oracle as the interpreter;
//   - canonicity: two stack entries have the same handle iff they denote
//     the same Boolean function;
//   - SatCount, interpreted and over the compiled plan, equals the truth
//     table's popcount;
//   - NodeCount is consistent between equal handles.
//
// The covered operations are exactly the Algorithm 1 set (Cube, Or,
// ExpandHamming for the Hamming enlargement) plus the test-only toolkit
// of export_test.go.

import (
	"math/bits"
	"testing"
)

// table is a truth table over n ≤ 12 vars: 2^n bits packed in uint64
// words.
type table []uint64

func newTable(n int) table { return make(table, ((1<<n)+63)/64) }

func (t table) get(a int) bool { return t[a/64]&(1<<(a%64)) != 0 }
func (t table) set(a int, v bool) {
	if v {
		t[a/64] |= 1 << (a % 64)
	} else {
		t[a/64] &^= 1 << (a % 64)
	}
}
func (t table) popcount() int {
	n := 0
	for _, w := range t {
		n += bits.OnesCount64(w)
	}
	return n
}

func FuzzBDDOps(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 10, 11, 13, 20})
	f.Add([]byte{5, 0, 1, 10, 2, 3, 11, 12, 30, 1, 40, 2})
	f.Add([]byte{12, 0, 5, 11, 30, 0, 31, 5, 13, 20})
	f.Add([]byte{8, 50, 0xAA, 50, 0x55, 11, 14, 32, 7})
	f.Add([]byte{6, 9, 0x2A, 10, 2, 0, 9, 0x51, 3, 0, 1, 21, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv := 1 + int(data[0])%12 // 1..12 variables
		data = data[1:]
		m := NewManager(nv)
		na := 1 << nv // assignments

		type entry struct {
			n  Node
			tt table
		}
		// Seed stack: one variable diagram so binary ops always have
		// operands.
		seed := entry{n: m.Var(0), tt: newTable(nv)}
		for a := 0; a < na; a++ {
			seed.tt.set(a, a&1 != 0)
		}
		stack := []entry{seed}
		pop := func(i int) entry { return stack[len(stack)-1-i%len(stack)] }

		// All assignments as bit-slices, reused by the compiled-plan batch
		// check each step.
		assigns := make([][]bool, na)
		for a := 0; a < na; a++ {
			bits := make([]bool, nv)
			for v := 0; v < nv; v++ {
				bits[v] = a&(1<<v) != 0
			}
			assigns[a] = bits
		}
		batchOut := make([]bool, na)
		scalarOut := make([]bool, na)
		slicedOut := make([]bool, na)

		const maxSteps = 64 // bound work per input
		steps := 0
		for i := 0; i < len(data) && steps < maxSteps; i++ {
			op := data[i]
			arg := func() int {
				i++
				if i < len(data) {
					return int(data[i])
				}
				return 0
			}
			var e entry
			switch op % 11 {
			case 0: // push variable
				v := arg() % nv
				e = entry{n: m.Var(v), tt: newTable(nv)}
				for a := 0; a < na; a++ {
					e.tt.set(a, a&(1<<v) != 0)
				}
			case 1: // push negated variable
				v := arg() % nv
				e = entry{n: m.NVar(v), tt: newTable(nv)}
				for a := 0; a < na; a++ {
					e.tt.set(a, a&(1<<v) == 0)
				}
			case 2: // And
				x, y := pop(arg()), pop(arg())
				e = entry{n: m.And(x.n, y.n), tt: newTable(nv)}
				for w := range e.tt {
					e.tt[w] = x.tt[w] & y.tt[w]
				}
			case 3: // Or
				x, y := pop(arg()), pop(arg())
				e = entry{n: m.Or(x.n, y.n), tt: newTable(nv)}
				for w := range e.tt {
					e.tt[w] = x.tt[w] | y.tt[w]
				}
			case 4: // Xor
				x, y := pop(arg()), pop(arg())
				e = entry{n: m.Xor(x.n, y.n), tt: newTable(nv)}
				for w := range e.tt {
					e.tt[w] = x.tt[w] ^ y.tt[w]
				}
			case 5: // Diff
				x, y := pop(arg()), pop(arg())
				e = entry{n: m.Diff(x.n, y.n), tt: newTable(nv)}
				for w := range e.tt {
					e.tt[w] = x.tt[w] &^ y.tt[w]
				}
			case 6: // Not
				x := pop(arg())
				e = entry{n: m.Not(x.n), tt: newTable(nv)}
				for w := range e.tt {
					e.tt[w] = ^x.tt[w]
				}
				maskTail(e.tt, na)
			case 7: // Exists (the Hamming-enlargement primitive)
				v := arg() % nv
				x := pop(arg())
				e = entry{n: m.Exists(v, x.n), tt: newTable(nv)}
				for a := 0; a < na; a++ {
					e.tt.set(a, x.tt.get(a|1<<v) || x.tt.get(a&^(1<<v)))
				}
			case 8: // Restrict
				v := arg() % nv
				val := arg()%2 == 1
				x := pop(arg())
				e = entry{n: m.Restrict(x.n, v, val), tt: newTable(nv)}
				for a := 0; a < na; a++ {
					fixed := a &^ (1 << v)
					if val {
						fixed |= 1 << v
					}
					e.tt.set(a, x.tt.get(fixed))
				}
			case 9: // push cube of the next ceil(nv/8) bytes
				bitsArr := make([]bool, nv)
				a := 0
				for v := 0; v < nv; v++ {
					if v%8 == 0 {
						a = arg()
					}
					bitsArr[v] = a&(1<<(v%8)) != 0
				}
				e = entry{n: m.Cube(bitsArr), tt: newTable(nv)}
				idx := 0
				for v := 0; v < nv; v++ {
					if bitsArr[v] {
						idx |= 1 << v
					}
				}
				e.tt.set(idx, true)
			case 10: // ExpandHamming (Algorithm 1's enlargement, one pass)
				k := arg() % (nv + 1)
				x := pop(arg())
				e = entry{n: m.ExpandHamming(x.n, k), tt: append(table(nil), x.tt...)}
				for ; k > 0; k-- {
					prev := append(table(nil), e.tt...)
					for a := 0; a < na; a++ {
						for v := 0; v < nv && !e.tt.get(a); v++ {
							e.tt.set(a, prev.get(a^1<<v))
						}
					}
				}
			}
			stack = append(stack, e)
			steps++

			// Invariant 1: EvalBits agrees with the truth table on every
			// assignment.
			assign := make([]bool, nv)
			for a := 0; a < na; a++ {
				for v := 0; v < nv; v++ {
					assign[v] = a&(1<<v) != 0
				}
				want := e.tt.get(a)
				if got := m.EvalBits(e.n, assign); got != want {
					t.Fatalf("step %d: EvalBits(%d)=%v, truth table says %v", steps, a, got, want)
				}
			}
			// Invariant 1b: the compiled plan agrees with the truth table
			// per-query and batched — through the dispatching EvalBatch,
			// the explicit scalar walk and the bit-sliced walk, so all
			// three serving engines are pinned to the same oracle every
			// step.
			cp := m.Compile(e.n)[0]
			cp.EvalBatch(assigns, batchOut)
			cp.EvalBatchScalar(assigns, scalarOut)
			cp.EvalBatchSliced(assigns, slicedOut)
			for a := 0; a < na; a++ {
				want := e.tt.get(a)
				if got := cp.Eval(assigns[a]); got != want {
					t.Fatalf("step %d: compiled Eval(%d)=%v, truth table says %v", steps, a, got, want)
				}
				if batchOut[a] != want {
					t.Fatalf("step %d: compiled EvalBatch(%d)=%v, truth table says %v", steps, a, batchOut[a], want)
				}
				if scalarOut[a] != want {
					t.Fatalf("step %d: scalar EvalBatch(%d)=%v, truth table says %v", steps, a, scalarOut[a], want)
				}
				if slicedOut[a] != want {
					t.Fatalf("step %d: bit-sliced EvalBatch(%d)=%v, truth table says %v", steps, a, slicedOut[a], want)
				}
			}
			// Ragged tail block: a 65-query prefix exercises the second,
			// one-lane block of the bit-sliced walk when enough
			// assignments exist.
			if na > 65 {
				cp.EvalBatchSliced(assigns[:65], slicedOut[:65])
				for a := 0; a < 65; a++ {
					if want := e.tt.get(a); slicedOut[a] != want {
						t.Fatalf("step %d: ragged bit-sliced EvalBatch(%d)=%v, truth table says %v", steps, a, slicedOut[a], want)
					}
				}
			}
			if got, want := cp.Len(), m.NodeCount(e.n); got != want {
				t.Fatalf("step %d: compiled Len %d, NodeCount %d", steps, got, want)
			}

			// Invariant 2: SatCount, on the diagram and on its plan,
			// matches the popcount.
			want := float64(e.tt.popcount())
			if got := m.SatCount(e.n); got != want {
				t.Fatalf("step %d: SatCount=%v, popcount=%v", steps, got, want)
			}
			if got := cp.SatCount(); got != want {
				t.Fatalf("step %d: compiled SatCount=%v, popcount=%v", steps, got, want)
			}
		}

		// Invariant 3 (canonicity): across the whole stack, handle
		// equality must coincide with truth-table equality.
		for i := range stack {
			for j := i + 1; j < len(stack); j++ {
				same := stack[i].n == stack[j].n
				eq := tablesEqual(stack[i].tt, stack[j].tt)
				if same != eq {
					t.Fatalf("canonicity violated: entries %d,%d handles equal=%v but functions equal=%v",
						i, j, same, eq)
				}
			}
		}
	})
}

// maskTail clears the bits beyond the 2^nv live assignments so bitwise
// complements compare clean.
func maskTail(t table, na int) {
	if rem := na % 64; rem != 0 {
		t[len(t)-1] &= (1 << rem) - 1
	}
}

func tablesEqual(a, b table) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
