// Bit-sliced evaluation: 64 membership queries per plan walk. The
// scalar EvalBatch walk answers one pattern at a time — per query it
// chases ~numVars dependent, cache-missing loads through the branch
// program, and the coalescer hands the serving path wide runs of
// same-class patterns that all repeat that chase over the same nodes.
// Bit-slicing turns the batch sideways: a 64-query block is transposed
// into one uint64 lane mask per variable (bit q of lanes[v] is pattern
// q's bit v), and the branch program is walked once per *group* of
// lanes instead of once per lane. A frontier entry is a (node, arrival
// mask) pair; visiting it splits the mask with the node's lane mask
// (hi = m & lanes[va], lo = m &^ lanes[va]) and pushes the nonzero
// halves at the branch targets, while terminal-bound bits accumulate
// into one trueMask that is fanned back out to the verdict slice.
//
// The frontier lives in a fixed 64-entry stack, not a node-indexed
// array: every lane bit sits in exactly one pending entry at any time
// (splitting replaces a parent mask with two disjoint halves), so the
// live frontier can never exceed 64 entries no matter how large the
// program is. That keeps the entire working set beyond the program
// itself inside ~1KB of stack-resident scratch — the earlier design,
// an arrival-mask array plus occupancy bitmap sized by the program,
// spent more time maintaining its own bookkeeping (two scattered
// read-modify-writes per visited node, a bitmap scan per block) than
// walking the plan. Lanes that carry identical or prefix-sharing
// patterns travel together in one mask for as long as their paths
// agree, so a same-class block costs one walk per *distinct* path
// prefix, not one per query; in the worst case (64 fully divergent
// patterns) the visit count degrades to exactly the scalar walk's hop
// count, with the per-query branch mispredictions replaced by mask
// arithmetic. Transpose scratch is pooled, so the warm path allocates
// nothing.

package bdd

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"
)

// slicedThreshold is the batch width at which EvalBatch dispatches to
// the bit-sliced path. Below it, the per-block fixed cost (the bool →
// lane-mask transpose) is not amortized over enough lanes to beat the
// scalar walk; at and above it the shared-prefix collapse wins.
// Zone.ContainsBatch inherits the same dispatch, so wide coalescer
// runs ride the sliced path automatically.
const slicedThreshold = 32

// sliceScratch is the pooled working set of one bit-sliced evaluation:
// the 64-word transpose buffer, the per-variable lane masks and the
// multi-block clustering order. The frontier stack itself is a
// fixed-size local in evalSliced.
type sliceScratch struct {
	words [64]uint64
	lanes []uint64 // one lane mask per variable
	keys  []uint64 // cluster key (level-0-first bit prefix) | query index
	tmp   []uint64 // unclustered keys, input of the bucket scatter
}

var sliceScratches = sync.Pool{New: func() any { return new(sliceScratch) }}

// packMagic gathers the low bit of each byte of a little-endian uint64
// into the low 8 bits of the product's top byte: for x = Σ b_k·2^(8k)
// with b_k ∈ {0,1}, (x·packMagic)>>56 = Σ b_k·2^k. The diagonal terms
// b_k·2^(8k)·2^(56-7k) land on bits 56..63; every cross term either
// stays below bit 56 or overflows past bit 63 and is discarded by the
// modular multiply, so no carries pollute the result.
const packMagic = 0x0102040810204080

// packBits packs a bool slice (up to 64 entries) into a bit mask, bit v
// set iff p[v]. A Go bool is one byte holding 0 or 1, so the slice is
// read as bytes and packed 8 bits per multiply instead of bit by bit —
// the pack runs once per query per block and a per-bit loop (branchy or
// not) was the dominant fixed cost of small-diversity blocks. The &
// with the low-bit mask keeps a non-canonical bool byte (only
// constructible via unsafe) from corrupting its neighbours' lanes.
func packBits(p []bool) uint64 {
	pb := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), len(p))
	var w uint64
	v := 0
	for ; v+8 <= len(pb); v += 8 {
		x := binary.LittleEndian.Uint64(pb[v:]) & 0x0101010101010101
		w |= (x * packMagic) >> 56 << uint(v)
	}
	for ; v < len(pb); v++ {
		w |= uint64(pb[v]&1) << uint(v)
	}
	return w
}

// transpose64 transposes the 64x64 bit matrix in place about the main
// diagonal under LSB-first indexing: afterwards bit q of a[v] is what
// bit v of a[q] was. Recursive block-swap (the Hacker's Delight §7-3
// scheme, with the swap pair flipped for LSB-first column order): at
// each scale j, word k (row-index bit j clear) holds the block row 0
// and a[k|j] the block row 1, and mask selects the low columns (column
// bit j clear); exchanging row 0's high columns with row 1's low
// columns transposes the 2x2 block, 6 rounds from j=32 down to j=1.
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = ((k | j) + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k|j]) & mask
			a[k|j] ^= t
			a[k] ^= t << uint(j)
		}
		mask ^= mask << uint(j>>1)
	}
}

// evalSliced is the unvalidated bit-sliced core EvalBatch dispatches to
// above the batch-width threshold (the parity suites reach it directly
// through the test-only EvalBatchSliced).
func (c *Compiled) evalSliced(patterns [][]bool, out []bool) {
	prog := c.prog
	if len(prog) == 0 {
		// Constant plan: every lane lands on the entry terminal.
		v := c.entry == compiledTrue
		for i := range patterns {
			out[i] = v
		}
		return
	}
	nv := c.numVars
	np := len(patterns)
	s := sliceScratches.Get().(*sliceScratch)
	if cap(s.lanes) < nv {
		s.lanes = make([]uint64, nv)
	}
	lanes := s.lanes[:nv]
	words := &s.words
	// Multi-block batches are clustered before slicing: queries are
	// grouped into 64-lane blocks by their leading bit prefix (level 0
	// in the most significant position), so repeated and prefix-sharing
	// patterns land in the same block and merge into one lane group
	// there, instead of being scattered across blocks by arrival order.
	// The key packs a 40-variable prefix above a 24-bit query index in
	// one word. A comparison sort is overkill — only block membership
	// matters, not order within a block — so a two-pass counting sort
	// on the top ten key bits does the grouping in O(batch): duplicates
	// of one signature share all key bits and land in one bucket, while
	// a full sort at this batch size would cost more than the walk it
	// saves. Narrow batches skip the clustering (one block — identical
	// lanes already travel together in one mask), as do absurdly wide
	// ones that would overflow the index field.
	var keys []uint64
	if np > 64 && np < 1<<24 {
		if cap(s.keys) < np {
			s.keys = make([]uint64, np)
			s.tmp = make([]uint64, np)
		}
		keys = s.keys[:np]
		raw := s.tmp[:np]
		kw := nv
		if kw > 40 {
			kw = 40
		}
		var hist [1024]int32
		for i, p := range patterns {
			// packBits yields kw low bits; Reverse64 lifts them to the
			// top of the word (level 0 most significant), clear of the
			// index in the low 24 bits.
			k := bits.Reverse64(packBits(p[:kw])) | uint64(i)
			raw[i] = k
			hist[k>>54]++
		}
		off := int32(0)
		for b := range hist {
			cnt := hist[b]
			hist[b] = off
			off += cnt
		}
		for _, k := range raw {
			b := k >> 54
			keys[hist[b]] = k
			hist[b]++
		}
	}
	// Frontier stack. Live entries carry pairwise-disjoint nonzero
	// masks, so at most 64 can exist; two extra slots absorb the
	// unconditional stores below before the occupancy check trims them.
	var idxs [66]int32
	var masks [66]uint64
	for base := 0; base < np; base += 64 {
		n := np - base
		if n > 64 {
			n = 64
		}
		// Transpose the block into lane masks, 64 variables at a time:
		// pack each pattern's bits of the variable group into one word,
		// flip the 64x64 matrix, and the words become per-variable masks.
		// A clustered plan of at most 40 variables never rereads the
		// patterns: its sort key holds the whole pattern above the index
		// bits, so un-reversing the key reconstructs the packed row
		// without chasing the permutation through memory.
		for g := 0; g < nv; g += 64 {
			gw := nv - g
			if gw > 64 {
				gw = 64
			}
			switch {
			case keys != nil && nv <= 40:
				km := uint64(1)<<uint(nv) - 1
				for q, k := range keys[base : base+n] {
					words[q] = bits.Reverse64(k) & km
				}
			case keys != nil:
				for q, k := range keys[base : base+n] {
					words[q] = packBits(patterns[k&0xFFFFFF][g : g+gw])
				}
			default:
				for q, p := range patterns[base : base+n] {
					words[q] = packBits(p[g : g+gw])
				}
			}
			for q := n; q < 64; q++ {
				words[q] = 0
			}
			transpose64(words)
			copy(lanes[g:g+gw], words[:gw])
		}
		full := ^uint64(0)
		if n < 64 {
			full = 1<<uint(n) - 1
		}
		// Walk: pop entries, split their masks, push the live halves.
		// Entry order is irrelevant — each entry is an independent
		// bundle of lanes — so a LIFO stack with unconditional stores
		// and branch-free slot commits keeps the loop free of
		// data-dependent branches beyond the pop condition. Up to four
		// entries are popped per round and their program loads hoisted
		// together: the loads carry no dependency on each other, so
		// their cache misses overlap instead of serializing into one
		// long load-to-load chain (a single-pop loop is latency-bound
		// on exactly that chain).
		var trueMask uint64
		idxs[0] = c.entry
		masks[0] = full
		sp := 1
		for {
			if sp >= 4 {
				sp -= 4
				i1, m1 := idxs[sp+3], masks[sp+3]
				i2, m2 := idxs[sp+2], masks[sp+2]
				i3, m3 := idxs[sp+1], masks[sp+1]
				i4, m4 := idxs[sp], masks[sp]
				b1 := prog[i1]
				b2 := prog[i2]
				b3 := prog[i3]
				b4 := prog[i4]
				lm := lanes[b1.va]
				hi := m1 & lm
				lo := m1 &^ lm
				t := b1.hi
				idxs[sp] = t
				masks[sp] = hi
				if t >= 0 && hi != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= hi
				}
				t = b1.lo
				idxs[sp] = t
				masks[sp] = lo
				if t >= 0 && lo != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= lo
				}
				lm = lanes[b2.va]
				hi = m2 & lm
				lo = m2 &^ lm
				t = b2.hi
				idxs[sp] = t
				masks[sp] = hi
				if t >= 0 && hi != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= hi
				}
				t = b2.lo
				idxs[sp] = t
				masks[sp] = lo
				if t >= 0 && lo != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= lo
				}
				lm = lanes[b3.va]
				hi = m3 & lm
				lo = m3 &^ lm
				t = b3.hi
				idxs[sp] = t
				masks[sp] = hi
				if t >= 0 && hi != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= hi
				}
				t = b3.lo
				idxs[sp] = t
				masks[sp] = lo
				if t >= 0 && lo != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= lo
				}
				lm = lanes[b4.va]
				hi = m4 & lm
				lo = m4 &^ lm
				t = b4.hi
				idxs[sp] = t
				masks[sp] = hi
				if t >= 0 && hi != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= hi
				}
				t = b4.lo
				idxs[sp] = t
				masks[sp] = lo
				if t >= 0 && lo != 0 {
					sp++
				}
				if t == compiledTrue {
					trueMask |= lo
				}
				continue
			}
			if sp == 0 {
				break
			}
			sp--
			i := idxs[sp]
			m := masks[sp]
			b := prog[i]
			lm := lanes[b.va]
			hi := m & lm
			lo := m &^ lm
			t := b.hi
			idxs[sp] = t
			masks[sp] = hi
			if t >= 0 && hi != 0 {
				sp++
			}
			if t == compiledTrue {
				trueMask |= hi
			}
			t = b.lo
			idxs[sp] = t
			masks[sp] = lo
			if t >= 0 && lo != 0 {
				sp++
			}
			if t == compiledTrue {
				trueMask |= lo
			}
		}
		if keys != nil {
			for q, k := range keys[base : base+n] {
				out[k&0xFFFFFF] = trueMask&(1<<uint(q)) != 0
			}
		} else {
			for q := 0; q < n; q++ {
				out[base+q] = trueMask&(1<<uint(q)) != 0
			}
		}
	}
	sliceScratches.Put(s)
}
