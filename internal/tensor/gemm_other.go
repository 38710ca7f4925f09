//go:build !amd64

package tensor

// Other architectures run at KernelGo: the math.FMA micro kernel and the
// Go gather and epilogues, which compute the same bits as the amd64
// assembly (fused multiply-add is correctly rounded in either form).
// ForceKernel refuses every higher level, so the assembly entry points
// below are never reached.
func detectKernel() KernelLevel { return KernelGo }

func gemm4x8asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm4x16asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool) {
	panic("tensor: no assembly kernels on this architecture")
}

func gather8asm(dst, src *float64, rows *int, kb int) {
	panic("tensor: no assembly kernels on this architecture")
}

func pool2ReLUasm(out, r0, r1 *float64, quads int, b float64) {
	panic("tensor: no assembly kernels on this architecture")
}
