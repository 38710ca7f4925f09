//go:build !amd64

package tensor

// Other architectures run at KernelGo: the math.FMA and fma32 micro
// kernels and the Go gather and epilogues, which compute the same bits
// as the amd64 assembly (fused multiply-add is correctly rounded in
// every form).
// ForceKernel refuses every higher level, so the assembly entry points
// below are never reached.
func detectKernel() KernelLevel { return KernelGo }

func gemm4x8asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm4x16asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm4x16ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm4x32ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm1x128ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int) {
	panic("tensor: no assembly kernels on this architecture")
}

func gemm1x64ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int) {
	panic("tensor: no assembly kernels on this architecture")
}

func gather16ps(dst, src0, src1 *float32, rows *int, kb int) {
	panic("tensor: no assembly kernels on this architecture")
}

func pool2ReLUps(out, in *float32, pairs, quads, w int, b float32) {
	panic("tensor: no assembly kernels on this architecture")
}
