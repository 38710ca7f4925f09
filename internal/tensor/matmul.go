package tensor

import (
	"math"
	"runtime"
	"sync"
)

// matmulParallelThreshold is the minimum number of multiply-accumulate
// operations before a GEMM fans out across goroutines. Small products are
// faster single-threaded.
const matmulParallelThreshold = 1 << 16

// Blocking parameters of the tiled GEMM. Every multiply-accumulate goes
// through one 4×8 register-tiled micro kernel (AVX2+FMA assembly on
// capable amd64 hardware, a bit-identical math.FMA loop elsewhere) that
// broadcasts four rows of A against one packed micro panel of B: kb rows
// of 8 contiguous column values, gathered once per blockK panel and
// blockN stripe (B's rows are n elements apart, so an unpacked kernel
// would touch a new cache line every k step) and then reused by every
// 4-row strip of A. Leftover rows and columns run through the same
// kernel — short panels are zero-padded when packed, short strips go
// through a scratch C tile — so no product falls back to a scalar loop.
//
// Every C element accumulates over k in ascending order with one fused
// multiply-add chain per blockK panel and plain adds between panel
// subtotals, no matter which tile, stripe or goroutine computes it — so
// results are bit-identical across tilings, splits, operand
// orientations and architectures, and the batched inference path
// reproduces the per-sample reference (MatVec, Conv2D) exactly.
//
// A product large enough to fan out is cut along its longer side at
// micro-tile boundaries: by columns when n > m (a batched convolution
// has 20–40 rows and thousands of columns), so each worker packs only
// its own stripe of B and sees every row of A, by rows otherwise.
const (
	blockK = 256
	blockN = 256
	microM = 4 // micro-kernel tile height (rows of A broadcast per call)
	microN = 8 // micro-kernel tile width (one packed B panel row)
)

// gemmScratch is one worker's packing scratch, recycled across calls
// and goroutines so the hot path allocates nothing.
type gemmScratch struct {
	pack []float64 // one k panel of a column stripe, as micro panels
	tile []float64 // Conv2DBatchInto: the stripe's outC × width product
	base []int     // Conv2DBatchInto: input offset of each stripe column
}

var gemmScratches = sync.Pool{New: func() any { return new(gemmScratch) }}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small. The contents are undefined.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MatMul computes C = A × B for A of shape (m, k) and B of shape (k, n),
// returning a new (m, n) tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMul inner dimensions differ")
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A × B with the blocked, packed,
// register-tiled kernel, overwriting dst. dst must have shape (m, n) and
// must not alias a or b. Large products are split across goroutines.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	if k == 0 {
		dst.Zero()
		return
	}
	gemm(dst.data, a.data, b.data, m, n, k, false)
}

// MatMulTransB computes C = A × Bᵀ for A of shape (m, k) and B of shape
// (n, k), returning (m, n). Used by batched dense layers and by
// backpropagation for input gradients.
func MatMulTransB(a, b *Tensor) *Tensor {
	c := New(a.shape[0], b.shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes dst = A × Bᵀ for A (m, k) and B (n, k),
// overwriting dst (m, n). It is evaluated as dstᵀ = B × Aᵀ: B's rows feed
// the micro kernel's broadcast side as they lie in memory and only A is
// packed. For a dense layer — Y (B, out) = X (B, in) × Wᵀ with W stored
// (out, in) — that packs B·in activations instead of out·in weights, and
// a width-1 batch (X zero-padded to one 8-wide panel) runs the vector
// kernel without copying a single weight. Element (i, j) equals the
// math.FMA dot product MatVec computes, bit for bit.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulTransBInto shape mismatch")
	}
	if k == 0 {
		dst.Zero()
		return
	}
	gemm(dst.data, b.data, a.data, n, m, k, true)
}

// MatMulTransBBiasInto is MatMulTransBInto with a fused epilogue sweep:
// bias[j] is added to every column j and, when relu is set, the result
// is clamped at zero — the bias+activation epilogue of a dense layer.
// bias may be nil.
func MatMulTransBBiasInto(dst, a, b *Tensor, bias []float64, relu bool) {
	MatMulTransBInto(dst, a, b)
	if bias != nil && len(bias) != dst.shape[1] {
		panic("tensor: MatMulTransBBiasInto bias length mismatch")
	}
	AddBiasReLURows(dst, bias, relu)
}

// AddBiasReLURows adds bias[j] to column j of every row of the rank-2
// tensor m (bias may be nil) and, when relu is set, clamps the results
// at zero in the same pass.
func AddBiasReLURows(m *Tensor, bias []float64, relu bool) {
	n := m.shape[len(m.shape)-1]
	if bias != nil && len(bias) != n {
		panic("tensor: AddBiasReLURows bias length mismatch")
	}
	for base := 0; base < len(m.data); base += n {
		row := m.data[base : base+n]
		if bias != nil {
			for j := range row {
				row[j] += bias[j]
			}
		}
		if relu {
			for j, v := range row {
				if v < 0 {
					row[j] = 0
				}
			}
		}
	}
}

// parallelRange runs body over [0, n) cut into one contiguous range per
// worker, every cut a multiple of align, on GOMAXPROCS goroutines (the
// caller's among them) when work — the multiply-accumulate count — is
// large enough, and as body(0, n) on the calling goroutine otherwise.
func parallelRange(n, align, work int, body func(lo, hi int)) {
	units := (n + align - 1) / align
	workers := min(workersFor(work), units)
	if workers <= 1 {
		body(0, n)
		return
	}
	cut := func(w int) int { return min(units*w/workers*align, n) }
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(cut(w), cut(w+1))
	}
	body(0, cut(1))
	wg.Wait()
}

// workersFor is how many goroutines a product of work
// multiply-accumulates is spread over.
func workersFor(work int) int {
	if work < matmulParallelThreshold {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// gemm computes C = A×B for A (m, k) and B (k, n). With trans set, b is
// stored (n, k) and c receives the transposed product, shape (n, m):
// c[j][i] = Σ a[i][p]·b[j][p].
func gemm(c, a, b []float64, m, n, k int, trans bool) {
	if n > m {
		parallelRange(n, microN, m*n*k, func(lo, hi int) { gemmBlocked(c, a, b, 0, m, lo, hi, m, n, k, trans) })
	} else {
		parallelRange(m, microM, m*n*k, func(lo, hi int) { gemmBlocked(c, a, b, lo, hi, 0, n, m, n, k, trans) })
	}
}

// gemmBlocked computes rows [i0, i1) × columns [j0, j1) of gemm's
// product: per blockN column stripe and blockK panel, pack B's tile and
// sweep A's rows over it. The first k panel stores its subtotal
// (overwriting C, so no separate zeroing pass is needed); later panels
// accumulate.
func gemmBlocked(c, a, b []float64, i0, i1, j0, j1, m, n, k int, trans bool) {
	sc := gemmScratches.Get().(*gemmScratch)
	sc.pack = grow(sc.pack, blockK*blockN)
	for jc := j0; jc < j1; jc += blockN {
		je := min(jc+blockN, j1)
		for pc := 0; pc < k; pc += blockK {
			kb := min(blockK, k-pc)
			packTiles(sc.pack, b, pc, pc+kb, jc, je, k, n, trans)
			if trans {
				gemmPacked(c, jc*m+i0, 1, m, a, i0*k+pc, k, i1-i0, sc.pack, kb, je-jc, pc == 0)
			} else {
				gemmPacked(c, i0*n+jc, n, 1, a, i0*k+pc, k, i1-i0, sc.pack, kb, je-jc, pc == 0)
			}
		}
	}
	gemmScratches.Put(sc)
}

// gemmPacked multiplies m rows of A (first element a[ai], rows lda
// apart) by n packed columns over one k panel of kb steps. Element
// (i, j) of the product lands at c[ci+i*rs+j*cs], stored when first is
// set and added otherwise. Full tiles of a row-major C are written by
// the kernel itself; partial tiles and a transposed C go through a
// scratch tile.
func gemmPacked(c []float64, ci, rs, cs int, a []float64, ai, lda, m int, pack []float64, kb, n int, first bool) {
	for i := 0; i < m; i += microM {
		rows := min(microM, m-i)
		for j := 0; j < n; j += microN {
			pk := pack[j*kb:]
			if cols := min(microN, n-j); rows == microM && cols == microN && cs == 1 {
				gemmTile4x8(a, ai+i*lda, lda, pk, kb, c, ci+i*rs+j, rs, first)
			} else {
				gemmTileVia(a, ai+i*lda, lda, rows, pk, kb, c, ci+i*rs+j*cs, rs, cs, cols, first)
			}
		}
	}
}

// gemmTileVia runs the micro kernel into a scratch tile and moves the
// tile's valid rows×cols corner into C. A strip of fewer than four rows
// is computed one row at a time with a row stride of 0 — the kernel
// then reads that row four times and writes one tile row four times —
// which neither reads past the end of A nor needs a padded copy of it.
func gemmTileVia(a []float64, ai, lda, rows int, pk []float64, kb int, c []float64, ci, rs, cs, cols int, first bool) {
	var tile [microM * microN]float64
	if rows == microM {
		gemmTile4x8(a, ai, lda, pk, kb, tile[:], 0, microN, true)
	} else {
		for r := 0; r < rows; r++ {
			gemmTile4x8(a, ai+r*lda, 0, pk, kb, tile[:], r*microN, 0, true)
		}
	}
	for r := 0; r < rows; r++ {
		for j, v := range tile[r*microN : r*microN+cols] {
			if first {
				c[ci+r*rs+j*cs] = v
			} else {
				c[ci+r*rs+j*cs] += v
			}
		}
	}
}

// packTiles copies the B panel rows [pc, pe) × columns [jc, je) into
// contiguous 8-wide micro panels: panel (jt-jc)/8 holds kb rows of 8
// consecutive column values, the last one zero-padded when je-jc is not
// a multiple of 8. trans gathers from b stored as (n, k).
func packTiles(pack, b []float64, pc, pe, jc, je, k, n int, trans bool) {
	kb := pe - pc
	for jt := jc; jt < je; jt += microN {
		dst := pack[(jt-jc)*kb : (jt-jc+microN)*kb]
		cols := min(microN, je-jt)
		if cols < microN {
			clear(dst)
		}
		switch {
		case trans:
			for i := 0; i < cols; i++ {
				src := b[(jt+i)*k+pc : (jt+i)*k+pe]
				for t, v := range src {
					dst[t*microN+i] = v
				}
			}
		case cols == microN:
			// Hand-unrolled 8-wide row moves: one packed row is only 64
			// bytes, so the memmove call overhead of copy() would cost more
			// than the move itself.
			off := pc*n + jt
			for t := 0; t < kb; t++ {
				d := dst[t*microN : t*microN+microN : t*microN+microN]
				s := b[off : off+microN : off+microN]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
				off += n
			}
		default:
			for t := 0; t < kb; t++ {
				copy(dst[t*microN:], b[(pc+t)*n+jt:(pc+t)*n+jt+cols])
			}
		}
	}
}

// gemmTile4x8go is the scalar micro kernel: the same 4×8 tile as the
// assembly path, computed as two 4×4 halves of math.FMA chains — per
// element the identical correctly-rounded ascending-k sequence, so
// vector and scalar results match bit for bit.
func gemmTile4x8go(a []float64, ai, lda int, pk []float64, kb int, c []float64, ci, ldc int, first bool) {
	for h := 0; h < microN; h += 4 {
		a0 := a[ai : ai+kb]
		a1 := a[ai+lda : ai+lda+kb]
		a2 := a[ai+2*lda : ai+2*lda+kb]
		a3 := a[ai+3*lda : ai+3*lda+kb]
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		var c20, c21, c22, c23 float64
		var c30, c31, c32, c33 float64
		off := h
		for t := range a0 {
			bRow := pk[off : off+4 : off+4]
			b0, b1, b2, b3 := bRow[0], bRow[1], bRow[2], bRow[3]
			off += microN
			av := a0[t]
			c00 = math.FMA(av, b0, c00)
			c01 = math.FMA(av, b1, c01)
			c02 = math.FMA(av, b2, c02)
			c03 = math.FMA(av, b3, c03)
			av = a1[t]
			c10 = math.FMA(av, b0, c10)
			c11 = math.FMA(av, b1, c11)
			c12 = math.FMA(av, b2, c12)
			c13 = math.FMA(av, b3, c13)
			av = a2[t]
			c20 = math.FMA(av, b0, c20)
			c21 = math.FMA(av, b1, c21)
			c22 = math.FMA(av, b2, c22)
			c23 = math.FMA(av, b3, c23)
			av = a3[t]
			c30 = math.FMA(av, b0, c30)
			c31 = math.FMA(av, b1, c31)
			c32 = math.FMA(av, b2, c32)
			c33 = math.FMA(av, b3, c33)
		}
		if first {
			r := c[ci+h : ci+h+4 : ci+h+4]
			r[0], r[1], r[2], r[3] = c00, c01, c02, c03
			r = c[ci+ldc+h : ci+ldc+h+4 : ci+ldc+h+4]
			r[0], r[1], r[2], r[3] = c10, c11, c12, c13
			r = c[ci+2*ldc+h : ci+2*ldc+h+4 : ci+2*ldc+h+4]
			r[0], r[1], r[2], r[3] = c20, c21, c22, c23
			r = c[ci+3*ldc+h : ci+3*ldc+h+4 : ci+3*ldc+h+4]
			r[0], r[1], r[2], r[3] = c30, c31, c32, c33
		} else {
			r := c[ci+h : ci+h+4 : ci+h+4]
			r[0] += c00
			r[1] += c01
			r[2] += c02
			r[3] += c03
			r = c[ci+ldc+h : ci+ldc+h+4 : ci+ldc+h+4]
			r[0] += c10
			r[1] += c11
			r[2] += c12
			r[3] += c13
			r = c[ci+2*ldc+h : ci+2*ldc+h+4 : ci+2*ldc+h+4]
			r[0] += c20
			r[1] += c21
			r[2] += c22
			r[3] += c23
			r = c[ci+3*ldc+h : ci+3*ldc+h+4 : ci+3*ldc+h+4]
			r[0] += c30
			r[1] += c31
			r[2] += c32
			r[3] += c33
		}
	}
}

// MatMulNaiveInto computes dst = A × B with the plain triple loop and
// separate multiply/add rounding. It is the correctness reference the
// blocked FMA kernel is tested and benchmarked against (equal within
// accumulation tolerance, not bit-identical — FMA rounds once per
// multiply-add, the naive loop twice).
func MatMulNaiveInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulNaiveInto shape mismatch")
	}
	dst.Zero()
	for i := 0; i < m; i++ {
		ci := dst.data[i*n : (i+1)*n]
		ai := a.data[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b.data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatMulTransA computes C = Aᵀ × B for A of shape (k, m) and B of shape
// (k, n), returning (m, n). Used by backpropagation for weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic("tensor: MatMulTransA inner dimensions differ")
	}
	n := b.shape[1]
	c := New(m, n)
	// C[i][j] = sum_p A[p][i] * B[p][j]; iterate p outermost for locality.
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

// MatVec computes y = A × x for A of shape (m, n) and x of length n. The
// accumulation — math.FMA chains per blockK panel, plain adds between
// panel subtotals — matches the batched GEMM kernels exactly, keeping
// the per-sample dense path bit-identical to ForwardBatch rows.
func MatVec(a *Tensor, x []float64) []float64 {
	m, n := a.shape[0], a.shape[1]
	if len(x) != n {
		panic("tensor: MatVec dimension mismatch")
	}
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		yi := 0.0
		for pc := 0; pc < n; pc += blockK {
			pe := pc + blockK
			if pe > n {
				pe = n
			}
			s := 0.0
			for p := pc; p < pe; p++ {
				s = math.FMA(row[p], x[p], s)
			}
			if pc == 0 {
				yi = s
			} else {
				yi += s
			}
		}
		y[i] = yi
	}
	return y
}
