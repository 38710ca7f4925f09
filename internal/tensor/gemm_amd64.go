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

// gather8asm copies src[rows[t]:rows[t]+8] to dst[8t:8t+8] for t < kb (AVX2).
//
//go:noescape
func gather8asm(dst, src *float64, rows *int, kb int)

// pool2ReLUasm is pool2ReLU over quads groups of four outputs (AVX2).
//
//go:noescape
func pool2ReLUasm(out, r0, r1 *float64, quads int, b float64)

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
