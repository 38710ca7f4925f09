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
// 4×16 AVX2+FMA kernel for everything else on amd64 and an fma32 loop on
// other hosts; a row past the last 4-row strip runs the 1-row kernel,
// which streams up to eight whole panels (four at KernelAVX2) per call.
// Each kernel stores its k panel's subtotals itself, as its epilogue
// flags say: overwriting C on the first k panel, adding to it on later
// ones, and on a dense layer's last k panel then adding the bias row and
// clamping — the unfused layers' order, so fusing changes no bit.
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

// The epilogue flags of the float32 micro kernels: how a tile's k panel
// subtotal s lands in its C element c.
const (
	epiAcc  = 1 << iota // c + s instead of s: every k panel but the first
	epiBias             // then + the column's bias
	epiReLU             // then clamp as nn.ReLU does, v > 0 ? v : +0
)

// epi32 is the micro kernels' store of one element as flags say, with
// bias[j] the column's bias.
func epi32(c, s float32, bias []float32, j, flags int) float32 {
	if flags&epiAcc != 0 {
		s = c + s
	}
	if flags&epiBias != 0 {
		s += bias[j]
	}
	if flags&epiReLU != 0 {
		s = clamp32(s)
	}
	return s
}

// PanelsLen32 is the length of the panel layout of an (n, k) matrix: n
// rounded up to whole 16-wide micro panels, times k.
func PanelsLen32(n, k int) int { return (n + microN32 - 1) &^ (microN32 - 1) * k }

// PackPanels32 stores W (n, k), row-major, rounded to float32 into dst,
// PanelsLen32(n, k) long, in the layout DenseBatchInto reads: per blockK
// block of k, the block [pc, pc+kb) starting at dst[pc·n16] (n16 = n
// rounded up to 16), micro panel jt/16 of it at dst[pc·n16 + jt·kb]
// holds kb rows of 16, row t being W[jt..jt+16][pc+t] — the packed side
// of the micro kernels, laid out once instead of on every call. The rows
// past n are zero.
func PackPanels32[T float32 | float64](dst []float32, w []T, n, k int) {
	n16 := PanelsLen32(n, 1)
	for pc := 0; pc < k; pc += blockK {
		kb := min(blockK, k-pc)
		for jt := 0; jt < n16; jt += microN32 {
			p := dst[pc*n16+jt*kb : pc*n16+(jt+microN32)*kb]
			if jt+microN32 > n {
				clear(p)
			}
			for i := jt; i < min(jt+microN32, n); i++ {
				for t, v := range w[i*k+pc : i*k+pc+kb] {
					p[t*microN32+i-jt] = float32(v)
				}
			}
		}
	}
}

// DenseBatchInto computes dst = X × Wᵀ + bias for X (b, in) and W (out,
// in) into dst (b, out), clamping the result at zero as nn.ReLU does when
// relu is set; bias may be nil. w holds W in PackPanels32's layout. It
// is the batched dense layer of inference: the rows of X feed the micro
// kernels' broadcast side where they lie, W's panels their packed side,
// and the kernels store the row-major result, adding the bias and
// clamping in the last k panel's store. Fewer than four rows — a lone
// request is one — run the 1-row kernel on the calling goroutine; wider
// batches split the columns across goroutines.
func DenseBatchInto(dst, x, w *Tensor32, bias []float32, relu bool) {
	m, k := x.shape[0], x.shape[1]
	n := dst.shape[1]
	if dst.shape[0] != m || w.Len() != PanelsLen32(n, k) || bias != nil && len(bias) != n {
		panic("tensor: DenseBatchInto shape mismatch")
	}
	last := 0
	if bias != nil {
		last |= epiBias
	}
	if relu {
		last |= epiReLU
	}
	if k == 0 {
		for i := range dst.data {
			dst.data[i] = epi32(0, 0, bias, i%n, last)
		}
		return
	}
	if m < microM {
		denseCols32(dst.data, x.data, w.data, bias, 0, n, m, n, k, last)
		return
	}
	parallelRange(n, 2*microN32, m*n*k, func(lo, hi int) { denseCols32(dst.data, x.data, w.data, bias, lo, hi, m, n, k, last) })
}

// denseCols32 computes columns [lo, hi) of DenseBatchInto's product, k
// panel by k panel, the last one's store adding the bias and clamping as
// last says.
func denseCols32(y, x, w, bias []float32, lo, hi, m, n, k, last int) {
	n16 := PanelsLen32(n, 1)
	for pc := 0; pc < k; pc += blockK {
		kb, flags := min(blockK, k-pc), 0
		if pc > 0 {
			flags = epiAcc
		}
		if pc+kb == k {
			flags |= last
		}
		gemmPacked32(y, lo, n, x, pc, k, m, w[pc*n16+lo*kb:], kb, hi-lo, bias, lo, flags)
	}
}

// gemmPacked32 multiplies m rows of A (first element a[ai], rows lda
// apart) by n columns packed as micro panels over one k panel of kb
// steps, into the row-major C at c[ci] (rows ldc apart), storing each
// element as flags say (column j's bias is bias[bi+j]). Column panels
// run outermost, so a panel stays in cache while every 4-row strip of A
// passes over it: two panels at a time at KernelAVX512. The rows past
// the last whole strip run the 1-row kernel.
func gemmPacked32(c []float32, ci, ldc int, a []float32, ai, lda, m int, pack []float32, kb, n int, bias []float32, bi, flags int) {
	strips := m &^ (microM - 1)
	j := 0
	if kernelLevel == KernelAVX512 {
		for ; n-j >= 2*microN32; j += 2 * microN32 {
			for i := 0; i < strips; i += microM {
				gemm32Tile(a, ai+i*lda, lda, microM, pack[j*kb:], kb, c, ci+i*ldc+j, ldc, 2*microN32, bias, bi+j, flags)
			}
		}
	}
	for ; j < n; j += microN32 {
		for i := 0; i < strips; i += microM {
			gemm32Tile(a, ai+i*lda, lda, microM, pack[j*kb:], kb, c, ci+i*ldc+j, ldc, min(microN32, n-j), bias, bi+j, flags)
		}
	}
	for i := strips; i < m; i++ {
		gemm32Row(a, ai+i*lda, pack, kb, c, ci+i*ldc, n, bias, bi, flags)
	}
}

// gemm32Row is gemmPacked32 for the one row of A at a[ai]: the 1-row
// kernel streams up to eight whole panels per call (four at
// KernelAVX2), and a short last panel goes through gemm32Tile.
func gemm32Row(a []float32, ai int, pack []float32, kb int, c []float32, ci, n int, bias []float32, bi, flags int) {
	group := 8
	switch kernelLevel {
	case KernelGo:
		gemm32TileGo(a, ai, 0, 1, pack, kb, c, ci, 0, n, bias, bi, flags)
		return
	case KernelAVX2:
		group = 4
	}
	full := n &^ (microN32 - 1)
	for j := 0; j < full; j += group * microN32 {
		w := min(group*microN32, full-j)
		_, _, _ = a[ai+kb-1], pack[(j+w)*kb-1], c[ci+j+w-1]
		if group == 8 {
			gemm1x128ps(&a[ai], &pack[j*kb], kb, w/microN32, &c[ci+j], biasAt(bias, bi+j, w, flags), flags)
		} else {
			gemm1x64ps(&a[ai], &pack[j*kb], kb, w/microN32, &c[ci+j], biasAt(bias, bi+j, w, flags), flags)
		}
	}
	if full < n {
		gemm32Tile(a, ai, 0, 1, pack[full*kb:], kb, c, ci+full, 0, n-full, bias, bi+full, flags)
	}
}

// biasAt bounds-checks the w biases from bias[bi] an epilogue reads and
// returns their address. When flags add no bias it returns noBias: the
// AVX-512 kernels then load it under an all-zero mask, which reads
// nothing but costs a microcode assist per load unless the address is
// mapped.
func biasAt(bias []float32, bi, w, flags int) *float32 {
	if flags&epiBias == 0 {
		return &noBias[0]
	}
	_ = bias[bi+w-1]
	return &bias[bi]
}

var noBias [8 * microN32]float32

// gemm32Tile computes the rows × cols corner (rows ≤ 4, cols ≤ 16, or a
// full 4×32 tile at KernelAVX512) of the C tile at c[ci] (rows ldc apart)
// from the rows of A at a[ai] (lda apart) and the panels pk, storing as
// flags say. Full tiles are stored by the assembly kernels themselves;
// a partial one is computed into a scratch tile and stored from there. A
// strip of fewer than four rows is computed one row at a time with a row
// stride of 0 — the kernel then reads that row four times and writes one
// tile row four times — which neither reads past the end of A nor needs
// a padded copy of it.
func gemm32Tile(a []float32, ai, lda, rows int, pk []float32, kb int, c []float32, ci, ldc, cols int, bias []float32, bi, flags int) {
	switch {
	case kernelLevel == KernelGo:
		gemm32TileGo(a, ai, lda, rows, pk, kb, c, ci, ldc, cols, bias, bi, flags)
	case rows == microM && cols == 2*microN32:
		_, _, _ = a[ai+3*lda+kb-1], pk[2*microN32*kb-1], c[ci+3*ldc+2*microN32-1]
		gemm4x32ps(&a[ai], lda, &pk[0], kb, &c[ci], ldc, biasAt(bias, bi, cols, flags), flags)
	case rows == microM && cols == microN32:
		_, _, _ = a[ai+3*lda+kb-1], pk[microN32*kb-1], c[ci+3*ldc+microN32-1]
		gemm4x16ps(&a[ai], lda, &pk[0], kb, &c[ci], ldc, biasAt(bias, bi, cols, flags), flags)
	default:
		var tile [microM * microN32]float32
		_ = pk[microN32*kb-1]
		if rows == microM {
			_ = a[ai+3*lda+kb-1]
			gemm4x16ps(&a[ai], lda, &pk[0], kb, &tile[0], microN32, nil, 0)
		} else {
			for r := 0; r < rows; r++ {
				_ = a[ai+r*lda+kb-1]
				gemm4x16ps(&a[ai+r*lda], 0, &pk[0], kb, &tile[r*microN32], 0, nil, 0)
			}
		}
		for r := 0; r < rows; r++ {
			row := c[ci+r*ldc : ci+r*ldc+cols]
			for j, s := range tile[r*microN32 : r*microN32+cols] {
				row[j] = epi32(row[j], s, bias, bi+j, flags)
			}
		}
	}
}

// gemm32TileGo is the scalar micro kernel: the rows × cols corner of a C
// tile (rows ≤ 4, any cols) panel by panel, per element the identical
// ascending-k chain of correctly rounded fma32 steps as the assembly, so
// vector and scalar results match bit for bit.
func gemm32TileGo(a []float32, ai, lda, rows int, pk []float32, kb int, c []float32, ci, ldc, cols int, bias []float32, bi, flags int) {
	for jt := 0; jt < cols; jt += microN32 {
		p := pk[jt*kb : (jt+microN32)*kb]
		for r := 0; r < rows; r++ {
			var acc [microN32]float32
			for t, av := range a[ai+r*lda : ai+r*lda+kb] {
				for j, bv := range p[t*microN32 : t*microN32+microN32] {
					acc[j] = fma32(av, bv, acc[j])
				}
			}
			row := c[ci+r*ldc+jt : ci+r*ldc+min(jt+microN32, cols)]
			for j := range row {
				row[j] = epi32(row[j], acc[j], bias, bi+jt+j, flags)
			}
		}
	}
}
