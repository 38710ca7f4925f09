package tensor

// gemv32 computes y = X × Wᵀ for W (rows, k) and X (nb, k) into y (nb,
// rows), on the calling goroutine: y[b·rows+j] is row j of W dotted with
// row b of X as one ascending-k fma32 chain per blockK panel, the first
// panel stored and later ones added — the float32 accumulation contract
// of gemm32.go, so the result equals the packed GEMM's bit for bit. W is
// read in place; nothing is packed.
//
// At KernelAVX512 rows run in 16-row groups against slabs of up to four
// batch rows: each 16×8 block of a group is transposed in registers so
// that one lane carries one row's chain, and a row count that is not a
// multiple of 16 ends in a group shifted back to overlap the one before
// it, whose already-computed lanes are masked off at the store. At
// KernelAVX2, and at KernelAVX512 below 16 rows, eight scalar chains run
// side by side, a group of fewer than eight rows repeating its last row
// in the spare chains. KernelGo runs fma32 chains.
func gemv32(y, w, x []float32, rows, nb, k int) {
	for pc := 0; pc < k; pc += blockK {
		kb, first := min(blockK, k-pc), pc == 0
		switch {
		case kernelLevel == KernelAVX512 && rows >= 16:
			for g := 0; g < (rows+15)/16; g++ {
				s, mask := gemv32Group(rows, g)
				for b := 0; b < nb; b += 4 {
					gemv32Tile16(y, b*rows+s, rows, w, s*k+pc, k, x, b*k+pc, k, min(4, nb-b), kb, mask, first)
				}
			}
		case kernelLevel >= KernelAVX2:
			for b := 0; b < nb; b++ {
				for j := 0; j < rows; j += 8 {
					gemv32Tile8(y, b*rows+j, w, j*k+pc, k, min(8, rows-j), x, b*k+pc, kb, first)
				}
			}
		default:
			gemv32PanelGo(y, w, x, rows, nb, k, pc, kb, first)
		}
	}
}

// gemv32Group returns the first row and the store mask of 16-row group g
// of rows ≥ 16: groups start every 16 rows, except that a last group
// that would run past rows starts at rows-16 and stores only the lanes
// of rows ≥ 16·g.
func gemv32Group(rows, g int) (start, mask int) {
	if start = 16 * g; start+16 <= rows {
		return start, 0xffff
	}
	return rows - 16, 0xffff << (16*g + 16 - rows) & 0xffff
}

// gemv32Tile16 bounds-checks and runs gemv16ps: the 16 weight rows at
// w[wi] (ldw apart) against nb ≤ 4 batch rows at x[xi] (ldx apart),
// outputs at y[yi] (batch rows ldy apart) under the lane mask.
func gemv32Tile16(y []float32, yi, ldy int, w []float32, wi, ldw int, x []float32, xi, ldx, nb, kb, mask int, first bool) {
	_, _, _ = w[wi+15*ldw+kb-1], x[xi+(nb-1)*ldx+kb-1], y[yi+(nb-1)*ldy+15]
	gemv16ps(&w[wi], ldw, &x[xi], ldx, nb, kb, &y[yi], ldy, mask, first)
}

// gemv32Tile8 bounds-checks and runs gemv8ps: the r ≤ 8 weight rows at
// w[wi] (ldw apart) against x[xi:xi+kb], into y[yi:yi+r]. Fewer than
// eight rows go through a scratch tile, as the kernel writes eight.
func gemv32Tile8(y []float32, yi int, w []float32, wi, ldw, r int, x []float32, xi, kb int, first bool) {
	_, _, _ = w[wi+(r-1)*ldw+kb-1], x[xi+kb-1], y[yi+r-1]
	if r == 8 {
		gemv8ps(&w[wi], ldw, r, &x[xi], kb, &y[yi], first)
		return
	}
	var tile [8]float32
	gemv8ps(&w[wi], ldw, r, &x[xi], kb, &tile[0], true)
	for i, v := range tile[:r] {
		if first {
			y[yi+i] = v
		} else {
			y[yi+i] += v
		}
	}
}

// gemv32PanelGo runs one k panel of gemv32 with fma32.
func gemv32PanelGo(y, w, x []float32, rows, nb, k, pc, kb int, first bool) {
	for b := 0; b < nb; b++ {
		xs := x[b*k+pc : b*k+pc+kb]
		yb := y[b*rows : (b+1)*rows]
		for j := 0; j < rows; j++ {
			wj := w[j*k+pc:][:len(xs)]
			var s float32
			for p, xv := range xs {
				s = fma32(wj[p], xv, s)
			}
			if first {
				yb[j] = s
			} else {
				yb[j] += s
			}
		}
	}
}
