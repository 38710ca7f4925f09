package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// matmulParallelThreshold is the minimum number of multiply-accumulate
// operations before a GEMM or a batched convolution fans out across
// goroutines. Small products are faster single-threaded. 2¹⁷ is the
// smallest power of two above the widest layer of a 16→64→4 net at a
// full 64-input chunk (64·16·64 = 2¹⁶), so such nets never fork. Larger
// values were measured on network 1 (BenchmarkForwardBatchNet1 on a
// 2-vCPU Sapphire Rapids whose vCPUs share one core's FMA units, twelve
// alternations against 2¹⁶): 2²¹, which keeps a whole width-1 pass on
// the calling goroutine, made width 1 faster (median 0.231 vs 0.268 ms)
// but width 16 slower (2.44 vs 2.20 ms), because width 8–16 dense
// products stop forking too; 2²⁰ and 3·2¹⁹ slowed width 8 the same way.
// Float32 dense layers narrower than one 4-row strip stay on one
// goroutine regardless: the 1-row kernel never forks.
const matmulParallelThreshold = 1 << 17

// Blocking parameters of the tiled GEMM. Every multiply-accumulate goes
// through a register-tiled micro kernel that broadcasts four rows of A
// against packed micro panels of B: kb rows of 8 contiguous float64 (16
// float32, gemm32.go) column values, gathered once per blockK panel and
// blockN stripe (B's rows are n elements apart, so an unpacked kernel
// would touch a new cache line every k step) and then reused by every
// 4-row strip of A. Which kernel runs is the package's KernelLevel: for
// float64 a 4×16 AVX-512 kernel over two adjacent panels for full
// strips of a row-major C, a 4×8 AVX2+FMA kernel for everything else on
// amd64, and a 4×8 math.FMA loop on other hosts. Leftover rows and
// columns run through the same kernels — short panels are zero-padded
// when packed, short strips go through a scratch C tile — so no product
// falls back to a scalar loop; a matrix-vector product is a GEMM one
// column wide.
//
// The float64 kernels serve training (MatMul, MatMulTransB, MatVec,
// Conv2D); inference runs the float32 kernels of gemm32.go and
// conv32.go, which share this blocking. One accumulation contract
// holds for each precision at every level: every C element accumulates
// over k in ascending order with one fused multiply-add chain per blockK
// panel — float64 FMA here, float32 FMA there — and plain adds of that
// precision between panel subtotals, no matter which kernel, tile,
// stripe or goroutine computes it. Fused multiply-add is correctly
// rounded in every form, so results are bit-identical across levels,
// tilings, splits, batch widths, operand orientations and
// architectures; the per-sample float64 path (MatVec, Conv2D) is the
// oracle the float32 inference path stays within rounding of.
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

// KernelLevel is a tier of the kernels. Every level computes the same
// bits; a higher one only uses more of the vector unit.
type KernelLevel uint8

const (
	// KernelGo runs the math.FMA and fma32 micro kernels and the Go
	// gather and epilogue loops: the reference, and the only level off
	// amd64.
	KernelGo KernelLevel = iota
	// KernelAVX2 runs the 4×8 float64 and 4×16 float32 AVX2+FMA micro
	// kernels, the float32 four-panel 1-row kernel, the AVX2 im2col
	// gather and the AVX2 Conv→ReLU→MaxPool(2) epilogue.
	KernelAVX2
	// KernelAVX512 adds the 4×16 float64 and 4×32 float32 AVX-512 micro
	// kernels for full strips and the float32 eight-panel 1-row kernel.
	KernelAVX512
)

func (l KernelLevel) String() string {
	switch l {
	case KernelGo:
		return "go"
	case KernelAVX2:
		return "avx2"
	case KernelAVX512:
		return "avx512"
	}
	return fmt.Sprintf("KernelLevel(%d)", uint8(l))
}

// detectedKernel is the highest level the host supports, and
// kernelLevel the one the package runs at: detectedKernel unless
// ForceKernel lowered it.
var (
	detectedKernel = detectKernel()
	kernelLevel    = detectedKernel
)

// ForceKernel makes the package run at level l until the returned
// restore function puts the detected level back. It refuses a level
// above the one the host supports. It exists so that tests and
// benchmarks can cover every level a host has; it must not be called
// while a product is running.
func ForceKernel(l KernelLevel) (restore func(), err error) {
	if l > detectedKernel {
		return nil, fmt.Errorf("tensor: kernel level %v is above this host's %v", l, detectedKernel)
	}
	kernelLevel = l
	return func() { kernelLevel = detectedKernel }, nil
}

// gemmScratch is one worker's packing scratch, recycled across calls
// and goroutines so the hot path allocates nothing.
type gemmScratch struct {
	pack   []float64 // one k panel of a column stripe, as micro panels
	pack32 []float32 // Conv2DBatchInto: one k panel of the stripe's gathered im2col
	tile   []float32 // Conv2DBatchInto: the stripe's outC × width product
	base   []int     // Conv2DBatchInto: input offset of each stripe column
	rows   []int     // Conv2DBatchInto: input offset of each im2col row
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
// (n, k), returning (m, n). Used by backpropagation.
func MatMulTransB(a, b *Tensor) *Tensor {
	c := New(a.shape[0], b.shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes dst = A × Bᵀ for A (m, k) and B (n, k),
// overwriting dst (m, n). For a dense layer — Y (B, out) = X (B, in) × Wᵀ
// with W stored (out, in) — no weight is copied: the product is evaluated
// as dstᵀ = B × Aᵀ, B's rows feed the micro kernel's broadcast side as
// they lie in memory and only A — B·in activations — is packed. Element
// (i, j) equals the math.FMA dot product MatVec computes, bit for bit.
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
// c[j][i] = Σ a[i][p]·b[j][p]. A product too small to fork runs on the
// calling goroutine without building a closure, so it allocates nothing.
func gemm(c, a, b []float64, m, n, k int, trans bool) {
	switch {
	case workersFor(m*n*k) == 1:
		gemmBlocked(c, a, b, 0, m, 0, n, m, n, k, trans)
	case n > m:
		parallelRange(n, microN, m*n*k, func(lo, hi int) { gemmBlocked(c, a, b, 0, m, lo, hi, m, n, k, trans) })
	default:
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
// the kernels themselves, two panels at a time at KernelAVX512; partial
// tiles and a transposed C go through a scratch tile.
func gemmPacked(c []float64, ci, rs, cs int, a []float64, ai, lda, m int, pack []float64, kb, n int, first bool) {
	wide := kernelLevel == KernelAVX512 && cs == 1
	for i := 0; i < m; i += microM {
		rows := min(microM, m-i)
		j := 0
		if wide && rows == microM {
			for ; n-j >= 2*microN; j += 2 * microN {
				gemmTile4x16(a, ai+i*lda, lda, pack[j*kb:], kb, c, ci+i*rs+j, rs, first)
			}
		}
		for ; j < n; j += microN {
			pk := pack[j*kb:]
			if cols := min(microN, n-j); rows == microM && cols == microN && cs == 1 {
				gemmTile4x8(a, ai+i*lda, lda, pk, kb, c, ci+i*rs+j, rs, first)
			} else {
				gemmTileVia(a, ai+i*lda, lda, rows, pk, kb, c, ci+i*rs+j*cs, rs, cs, cols, first)
			}
		}
	}
}

// gemmTile4x8 computes one 4×8 C tile over a packed k panel: rows ai,
// ai+lda, ai+2·lda, ai+3·lda of A against the panel pk, into C rows ldc
// apart from ci.
func gemmTile4x8(a []float64, ai, lda int, pk []float64, kb int, c []float64, ci, ldc int, first bool) {
	if kernelLevel == KernelGo {
		gemmTile4x8go(a, ai, lda, pk, kb, c, ci, ldc, first)
		return
	}
	// The highest element the assembly touches in each operand.
	_, _, _ = a[ai+3*lda+kb-1], pk[microN*kb-1], c[ci+3*ldc+microN-1]
	gemm4x8asm(&a[ai], lda, &pk[0], kb, &c[ci], ldc, first)
}

// gemmTile4x16 is gemmTile4x8 over the two adjacent panels pk and
// pk[8·kb:], for a 4×16 C tile. Only KernelAVX512 calls it.
func gemmTile4x16(a []float64, ai, lda int, pk []float64, kb int, c []float64, ci, ldc int, first bool) {
	_, _, _ = a[ai+3*lda+kb-1], pk[2*microN*kb-1], c[ci+3*ldc+2*microN-1]
	gemm4x16asm(&a[ai], lda, &pk[0], kb, &c[ci], ldc, first)
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

// MatVec computes y = A × x for A of shape (m, n) and x of length n as
// the width-1 MatMulTransBInto x × Aᵀ: the per-sample dense layer of
// training and of the float64 oracle.
func MatVec(a *Tensor, x []float64) []float64 {
	m, n := a.shape[0], a.shape[1]
	if len(x) != n {
		panic("tensor: MatVec dimension mismatch")
	}
	y := make([]float64, m)
	gemm(y, a.data, x, m, 1, n, true)
	return y
}
