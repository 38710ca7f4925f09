//go:build amd64

package tensor

// The assembly routines in gemm_amd64.s. None of them checks an index:
// every caller bounds-checks the highest element a routine touches
// before calling it.

// gemm4x8asm is the 4×8 YMM micro kernel (AVX2+FMA).
//
//go:noescape
func gemm4x8asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool)

// gemm4x16asm is the 4×16 ZMM micro kernel (AVX-512F) over two adjacent
// packed panels, pk and pk+8·kb.
//
//go:noescape
func gemm4x16asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool)

// gemm4x16ps is the 4×16 float32 YMM micro kernel (AVX2+FMA), storing
// its tile as the epilogue flags say; bias is read only under epiBias.
//
//go:noescape
func gemm4x16ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int)

// gemm4x32ps is the 4×32 float32 ZMM micro kernel (AVX-512F) over two
// adjacent packed panels, pk and pk+16·kb, storing as gemm4x16ps does.
//
//go:noescape
func gemm4x32ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int)

// gemm1x128ps is the float32 1-row kernel (AVX-512F): the row at a
// against 1–8 adjacent whole panels from pk, stored as gemm4x16ps does.
//
//go:noescape
func gemm1x128ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int)

// gemm1x64ps is gemm1x128ps over 1–4 panels (AVX2+FMA).
//
//go:noescape
func gemm1x64ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int)

// gather16ps copies src0[rows[t]:rows[t]+8] to dst[16t:16t+8] and
// src1[rows[t]:rows[t]+8] to dst[16t+8:16t+16] for t < kb (AVX2).
//
//go:noescape
func gather16ps(dst, src0, src1 *float32, rows *int, kb int)

// pool2ReLUps is pool2Rows32 under relu over pairs row pairs of w
// products, quads groups of four outputs per pair (AVX2).
//
//go:noescape
func pool2ReLUps(out, in *float32, pairs, quads, w int, b float32)

// cpuidex and xgetbv0 are implemented in gemm_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint64

// detectKernel returns KernelAVX512 when the CPU has AVX2, FMA and
// AVX-512F and the OS saves opmask and ZMM state, KernelAVX2 when it
// has AVX2 and FMA and the OS saves YMM state, and KernelGo otherwise.
func detectKernel() KernelLevel {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return KernelGo
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 {
		return KernelGo
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM registers.
	xcr0 := xgetbv0()
	_, ebx7, _, _ := cpuidex(7, 0)
	const (
		avx2    = 1 << 5
		avx512f = 1 << 16
	)
	if xcr0&0x6 != 0x6 || ebx7&avx2 == 0 {
		return KernelGo
	}
	// XCR0 bits 5–7: the OS saves the opmask registers, the upper halves
	// of ZMM0–15 and ZMM16–31.
	if ebx7&avx512f == 0 || xcr0&0xe0 != 0xe0 {
		return KernelAVX2
	}
	return KernelAVX512
}
