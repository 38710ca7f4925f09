package tensor

import "math"

// The float32 inference kernels. They follow matmul.go's blocking and
// its accumulation contract, restated for float32: every output element
// accumulates over k in ascending order with one float32 fused
// multiply-add chain per blockK panel and plain float32 adds between
// panel subtotals, whatever kernel, tile, stripe, batch width or
// goroutine computes it. A float32 fused multiply-add rounds once, in
// the assembly (VFMADD231PS/SS) and in fma32 alike, so float32 results
// are bit-identical across levels, tilings, splits and batch widths.
//
// Packed micro panels are microN32 = 16 float32 wide — one ZMM register,
// two YMM, the same 64 bytes as a float64 panel row. The micro kernels
// are a 4×32 AVX-512 kernel over two adjacent panels for full strips, a
// 4×16 AVX2+FMA kernel for everything else on amd64 and a 4×16 fma32
// loop on other hosts.
const microN32 = 16

// fma32 returns a·b + c rounded once to float32. The product of two
// float32 values is exact in float64, and so is the error of the
// float64 sum (TwoSum); rounding that sum to odd — to whichever of its
// two float64 neighbours has an odd significand when it is inexact —
// keeps enough information for the final rounding to float32 to be
// correct, as 53 ≥ 24 + 2 (Boldo & Melquiond, "Emulation of FMA and
// correctly rounded sums: proved algorithms using rounding to odd",
// IEEE TC 2008). Narrowing the rounded-to-nearest sum directly rounds
// twice, which goes wrong only when that sum lands exactly on a float32
// midpoint (its 29 low significand bits are 1 followed by zeros) or
// below float32's normal range, where the midpoints lie elsewhere: only
// those sums take the round-to-odd step.
func fma32(a, b, c float32) float32 {
	p, c64 := float64(a)*float64(b), float64(c)
	s := p + c64
	if math.Float64bits(s)&(1<<29-1) == 1<<28 || math.Abs(s) < 0x1p-126 {
		s = roundToOdd(s, p, c64)
	}
	return float32(s)
}

// roundToOdd takes s, the rounded-to-nearest float64 sum p + c, to the
// round-to-odd sum: s itself when the sum is exact, not finite or s's
// significand is odd, otherwise its neighbour toward the exact sum.
func roundToOdd(s, p, c float64) float64 {
	bits := math.Float64bits(s)
	if bits&1 == 1 || s-s != 0 {
		return s
	}
	t := s - p
	e := (p - (s - t)) + (c - t)
	switch {
	case e == 0:
		return s
	case (e > 0) == (s > 0):
		bits++
	default:
		bits--
	}
	return math.Float64frombits(bits)
}

// gemvWidth32 is gemvWidth for the float32 kernels: below it a dense
// layer runs gemv32 instead of the packed GEMM.
var gemvWidth32 = [...]int{KernelGo: 6, KernelAVX2: 3, KernelAVX512: 8}

// DenseBatchInto computes dst = X × Wᵀ + bias for X (b, in) and W
// (out, in) into dst (b, out), clamping the result at zero as nn.ReLU
// does when relu is set; bias may be nil. It is the batched dense layer
// of inference. Below gemvWidth32 rows of X (a lone request is one) it
// runs gemv32, which reads each row of W once where it lies and stays on
// the calling goroutine. Wider batches are evaluated as dstᵀ = W × Xᵀ:
// W's rows feed the micro kernel's broadcast side as they lie in memory
// and only X is packed.
func DenseBatchInto(dst, x, w *Tensor32, bias []float32, relu bool) {
	m, k := x.shape[0], x.shape[1]
	n := w.shape[0]
	if w.shape[1] != k || dst.shape[0] != m || dst.shape[1] != n || bias != nil && len(bias) != n {
		panic("tensor: DenseBatchInto shape mismatch")
	}
	switch {
	case k == 0:
		clear(dst.data)
	case m < gemvWidth32[kernelLevel]:
		gemv32(dst.data, w.data, x.data, n, m, k)
	default:
		parallelRange(n, microM, m*n*k, func(lo, hi int) { gemm32Blocked(dst.data, w.data, x.data, lo, hi, n, m, k) })
	}
	addBiasReLURows32(dst.data, n, bias, relu)
}

// addBiasReLURows32 adds bias[j] to column j of every n-wide row of m
// (bias may be nil) and, when relu is set, clamps the results at zero in
// the same pass.
func addBiasReLURows32(m []float32, n int, bias []float32, relu bool) {
	for base := 0; base < len(m); base += n {
		row := m[base : base+n]
		if bias != nil {
			for j := range row {
				row[j] += bias[j]
			}
		}
		if relu {
			for j, v := range row {
				row[j] = clamp32(v)
			}
		}
	}
}

// gemm32Blocked computes rows [i0, i1) of the transposed product C (n,
// m), c[j][i] = Σ a[i][p]·b[j][p], for A (m, k) and B (n, k): per blockN
// stripe of B's rows and blockK panel, pack B's tile and sweep A's rows
// over it. The first k panel stores its subtotal; later panels
// accumulate.
func gemm32Blocked(c, a, b []float32, i0, i1, m, n, k int) {
	sc := gemmScratches.Get().(*gemmScratch)
	sc.pack32 = grow(sc.pack32, blockK*blockN)
	for jc := 0; jc < n; jc += blockN {
		je := min(jc+blockN, n)
		for pc := 0; pc < k; pc += blockK {
			kb := min(blockK, k-pc)
			packTiles32(sc.pack32, b, pc, pc+kb, jc, je, k)
			gemmPacked32(c, jc*m+i0, 1, m, a, i0*k+pc, k, i1-i0, sc.pack32, kb, je-jc, pc == 0)
		}
	}
	gemmScratches.Put(sc)
}

// packTiles32 copies columns [pc, pe) of B's rows [jc, je) — B stored
// (n, k) — into contiguous 16-wide micro panels: panel (jt-jc)/16 holds
// kb rows of 16 values, row t the k index pc+t of 16 consecutive B
// rows, the last panel zero-padded.
func packTiles32(pack, b []float32, pc, pe, jc, je, k int) {
	kb := pe - pc
	for jt := jc; jt < je; jt += microN32 {
		dst := pack[(jt-jc)*kb : (jt-jc+microN32)*kb]
		cols := min(microN32, je-jt)
		if cols < microN32 {
			clear(dst)
		}
		for i := 0; i < cols; i++ {
			for t, v := range b[(jt+i)*k+pc : (jt+i)*k+pe] {
				dst[t*microN32+i] = v
			}
		}
	}
}

// gemmPacked32 multiplies m rows of A (first element a[ai], rows lda
// apart) by n packed columns over one k panel of kb steps. Element
// (i, j) of the product lands at c[ci+i*rs+j*cs], stored when first is
// set and added otherwise. Full tiles of a row-major C are written by
// the kernels themselves, two panels at a time at KernelAVX512; partial
// tiles and a transposed C go through a scratch tile.
func gemmPacked32(c []float32, ci, rs, cs int, a []float32, ai, lda, m int, pack []float32, kb, n int, first bool) {
	wide := kernelLevel == KernelAVX512
	for i := 0; i < m; i += microM {
		rows := min(microM, m-i)
		j := 0
		if wide && rows == microM {
			for ; n-j >= 2*microN32; j += 2 * microN32 {
				if cs == 1 {
					gemm32Tile4x32(a, ai+i*lda, lda, pack[j*kb:], kb, c, ci+i*rs+j, rs, first)
				} else {
					gemm32TileVia(a, ai+i*lda, lda, rows, pack[j*kb:], kb, c, ci+i*rs+j*cs, rs, cs, 2*microN32, first)
				}
			}
		}
		for ; j < n; j += microN32 {
			pk := pack[j*kb:]
			if cols := min(microN32, n-j); rows == microM && cols == microN32 && cs == 1 {
				gemm32Tile4x16(a, ai+i*lda, lda, pk, kb, c, ci+i*rs+j, rs, first)
			} else {
				gemm32TileVia(a, ai+i*lda, lda, rows, pk, kb, c, ci+i*rs+j*cs, rs, cs, cols, first)
			}
		}
	}
}

// gemm32Tile4x16 computes one 4×16 C tile over a packed k panel: rows
// ai, ai+lda, ai+2·lda, ai+3·lda of A against the panel pk, into C rows
// ldc apart from ci.
func gemm32Tile4x16(a []float32, ai, lda int, pk []float32, kb int, c []float32, ci, ldc int, first bool) {
	if kernelLevel == KernelGo {
		gemm32Tile4x16go(a, ai, lda, pk, kb, c, ci, ldc, first)
		return
	}
	// The highest element the assembly touches in each operand.
	_, _, _ = a[ai+3*lda+kb-1], pk[microN32*kb-1], c[ci+3*ldc+microN32-1]
	gemm4x16ps(&a[ai], lda, &pk[0], kb, &c[ci], ldc, first)
}

// gemm32Tile4x32 is gemm32Tile4x16 over the two adjacent panels pk and
// pk[16·kb:], for a 4×32 C tile. Only KernelAVX512 calls it.
func gemm32Tile4x32(a []float32, ai, lda int, pk []float32, kb int, c []float32, ci, ldc int, first bool) {
	_, _, _ = a[ai+3*lda+kb-1], pk[2*microN32*kb-1], c[ci+3*ldc+2*microN32-1]
	gemm4x32ps(&a[ai], lda, &pk[0], kb, &c[ci], ldc, first)
}

// gemm32TileVia runs a micro kernel into a scratch tile and moves the
// tile's valid rows×cols corner into C; cols above 16 take the 4×32
// kernel. A strip of fewer than four rows is computed one row at a time
// with a row stride of 0 — the kernel then reads that row four times
// and writes one tile row four times — which neither reads past the end
// of A nor needs a padded copy of it.
func gemm32TileVia(a []float32, ai, lda, rows int, pk []float32, kb int, c []float32, ci, rs, cs, cols int, first bool) {
	var tile [microM * 2 * microN32]float32
	w := microN32
	switch {
	case cols > microN32:
		w = 2 * microN32
		gemm32Tile4x32(a, ai, lda, pk, kb, tile[:], 0, w, true)
	case rows == microM:
		gemm32Tile4x16(a, ai, lda, pk, kb, tile[:], 0, w, true)
	default:
		for r := 0; r < rows; r++ {
			gemm32Tile4x16(a, ai+r*lda, 0, pk, kb, tile[:], r*w, 0, true)
		}
	}
	for r := 0; r < rows; r++ {
		for j, v := range tile[r*w : r*w+cols] {
			if first {
				c[ci+r*rs+j*cs] = v
			} else {
				c[ci+r*rs+j*cs] += v
			}
		}
	}
}

// gemm32Tile4x16go is the scalar micro kernel: the same 4×16 tile as
// the assembly, per element the identical ascending-k chain of
// correctly rounded fma32 steps, so vector and scalar results match bit
// for bit.
func gemm32Tile4x16go(a []float32, ai, lda int, pk []float32, kb int, c []float32, ci, ldc int, first bool) {
	for r := 0; r < microM; r++ {
		ar := a[ai+r*lda : ai+r*lda+kb]
		var acc [microN32]float32
		for t, av := range ar {
			for j, bv := range pk[t*microN32 : t*microN32+microN32] {
				acc[j] = fma32(av, bv, acc[j])
			}
		}
		row := c[ci+r*ldc : ci+r*ldc+microN32]
		for j, v := range acc {
			if first {
				row[j] = v
			} else {
				row[j] += v
			}
		}
	}
}
