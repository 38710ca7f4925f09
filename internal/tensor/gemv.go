package tensor

import "math"

// gemvWidth is, per kernel level, the batch width from which
// MatMulTransBInto runs the packed GEMM instead of gemv. Below one 8-wide
// micro panel the packed kernel multiplies the padding too — 7 of 8
// lanes are zeros at width 1 — while gemv reads each weight once, where
// it lies, and at KernelAVX512 reuses every transposed block for four
// batch rows. Set by measurement on a 2-vCPU Sapphire Rapids: at go
// gemv beats the packed path on network 1's dense shapes through width
// 5 and ties at 6; at avx2, whose kernel re-reads W per batch row, it
// wins at 2 and ties at 3. At avx512 it wins every shape alone through
// width 40, but whole passes of network 1 at widths 16, 32 and 45 were
// no faster with it than with the packed path (medians of eight
// alternations: 2.15 vs 2.06, 4.31 vs 3.90, 5.71 vs 5.40 ms), so it
// stops at one micro panel.
var gemvWidth = [...]int{KernelGo: 6, KernelAVX2: 3, KernelAVX512: microN}

// gemv computes y = X × Wᵀ for W (rows, k) and X (nb, k) into y (nb,
// rows), on the calling goroutine: y[b·rows+j] is row j of W dotted with
// row b of X as one ascending-k fused multiply-add chain per blockK
// panel, the first panel stored and later ones added — the accumulation
// contract of matmul.go, so the result equals the packed GEMM's bit for
// bit. W is read in place; nothing is packed.
//
// At KernelAVX512 rows run in pairs of 8-row groups: each 8×8 block of
// a group is transposed in registers so that lane r carries row r's
// chain, and the two groups' chains interleave to cover the FMA
// latency. A row count that is not a multiple of 8 ends in a group
// shifted back to overlap the one before it, whose already-computed
// lanes are masked off at the store. At KernelAVX2 eight scalar chains
// run side by side. Fewer than eight rows, the rows%8 tail at
// KernelAVX2 and everything at KernelGo run math.FMA chains.
func gemv(y, w, x []float64, rows, nb, k int) {
	for pc := 0; pc < k; pc += blockK {
		kb, first := min(blockK, k-pc), pc == 0
		switch {
		case rows < 8 || kernelLevel == KernelGo:
			gemvPanelGo(y, w, x, 0, rows, nb, k, pc, kb, first)
		case kernelLevel == KernelAVX512:
			gemvPanel16(y, w, x, rows, nb, k, pc, kb, first)
		default:
			full := rows &^ 7
			for b := 0; b < nb; b++ {
				for j := 0; j < full; j += 8 {
					gemvTile8(y, b*rows+j, w, j*k+pc, k, x, b*k+pc, kb, first)
				}
			}
			gemvPanelGo(y, w, x, full, rows, nb, k, pc, kb, first)
		}
	}
}

// gemvPanel16 runs one k panel of gemv at KernelAVX512: pairs of 8-row
// groups against slabs of up to four batch rows, each pair's weights
// read once per slab from cache. An odd group count pairs the last group
// with itself, the copy masked off.
func gemvPanel16(y, w, x []float64, rows, nb, k, pc, kb int, first bool) {
	groups := (rows + 7) / 8
	for g := 0; g < groups; g += 2 {
		s0, m0 := gemvGroup(rows, g)
		s1, m1 := s0, 0
		if g+1 < groups {
			s1, m1 = gemvGroup(rows, g+1)
		}
		for b := 0; b < nb; b += 4 {
			gemvTile16(y, b*rows+s0, b*rows+s1, rows, w, s0*k+pc, s1*k+pc, k,
				x, b*k+pc, k, min(4, nb-b), kb, m0, m1, first)
		}
	}
}

// gemvGroup returns the first row and the store mask of 8-row group g
// of rows ≥ 8: groups start every 8 rows, except that a last group that
// would run past rows starts at rows-8 and stores only the lanes of
// rows ≥ 8·g.
func gemvGroup(rows, g int) (start, mask int) {
	if start = 8 * g; start+8 <= rows {
		return start, 0xff
	}
	return rows - 8, 0xff << (8*g + 8 - rows) & 0xff
}

// gemvTile16 bounds-checks and runs gemv16asm: weight groups at w[wi0]
// and w[wi1] (rows ldw apart), nb ≤ 4 batch rows at x[xi] (ldx apart),
// outputs at y[yi0] and y[yi1] (batch rows ldy apart).
func gemvTile16(y []float64, yi0, yi1, ldy int, w []float64, wi0, wi1, ldw int, x []float64, xi, ldx, nb, kb, m0, m1 int, first bool) {
	_, _, _ = w[wi0+7*ldw+kb-1], w[wi1+7*ldw+kb-1], x[xi+(nb-1)*ldx+kb-1]
	_, _ = y[yi0+(nb-1)*ldy+7], y[yi1+(nb-1)*ldy+7]
	gemv16asm(&w[wi0], &w[wi1], ldw, &x[xi], ldx, nb, kb, &y[yi0], &y[yi1], ldy, m0, m1, first)
}

// gemvTile8 bounds-checks and runs gemv8asm: the eight weight rows at
// w[wi] (ldw apart) against x[xi:xi+kb], into y[yi:yi+8].
func gemvTile8(y []float64, yi int, w []float64, wi, ldw int, x []float64, xi, kb int, first bool) {
	_, _, _ = w[wi+7*ldw+kb-1], x[xi+kb-1], y[yi+7]
	gemv8asm(&w[wi], ldw, &x[xi], kb, &y[yi], first)
}

// gemvPanelGo runs one k panel of gemv for rows [j0, rows) with
// math.FMA, four chains side by side.
func gemvPanelGo(y, w, x []float64, j0, rows, nb, k, pc, kb int, first bool) {
	for b := 0; b < nb; b++ {
		xs := x[b*k+pc : b*k+pc+kb]
		yb := y[b*rows : (b+1)*rows]
		j := j0
		for ; j+4 <= rows; j += 4 {
			w0 := w[j*k+pc:][:len(xs)]
			w1 := w[(j+1)*k+pc:][:len(xs)]
			w2 := w[(j+2)*k+pc:][:len(xs)]
			w3 := w[(j+3)*k+pc:][:len(xs)]
			var s0, s1, s2, s3 float64
			for p, xv := range xs {
				s0 = math.FMA(w0[p], xv, s0)
				s1 = math.FMA(w1[p], xv, s1)
				s2 = math.FMA(w2[p], xv, s2)
				s3 = math.FMA(w3[p], xv, s3)
			}
			gemvPut(yb, j, s0, first)
			gemvPut(yb, j+1, s1, first)
			gemvPut(yb, j+2, s2, first)
			gemvPut(yb, j+3, s3, first)
		}
		for ; j < rows; j++ {
			wj := w[j*k+pc:][:len(xs)]
			s := 0.0
			for p, xv := range xs {
				s = math.FMA(wj[p], xv, s)
			}
			gemvPut(yb, j, s, first)
		}
	}
}

// gemvPut stores a panel subtotal on the first panel and adds it after.
func gemvPut(y []float64, i int, s float64, first bool) {
	if first {
		y[i] = s
	} else {
		y[i] += s
	}
}
