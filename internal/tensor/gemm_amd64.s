// Assembly of the kernels, float64 (…asm) and float32 (…ps). The GEMM
// micro kernels accumulate one C tile over a k panel, reading B from its
// packed micro panels (kb rows of 8 contiguous float64 or 16 float32),
// and the float32 1-row kernels stream those panels against one row of
// A. Per output element the accumulation is a chain of fused
// multiply-adds in ascending k — the same correctly-rounded sequence the
// math.FMA and fma32 scalar kernels perform, so every level computes the
// same bits. The float32 stores, the gather and the pool epilogue only
// move, add, clamp and compare, in the order their Go loops do.

#include "textflag.h"

// func gemm4x8asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool)
// a:   first element of row 0 of the A panel (rows lda elements apart)
// pk:  packed B micro panel, kb rows of 8 values
// c:   C tile origin (rows ldc elements apart)
// first: store the panel subtotal (overwrite) instead of adding it
TEXT ·gemm4x8asm(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R9
	SHLQ $3, R9            // row stride in bytes
	LEAQ (R8)(R9*1), R10   // a row 1
	LEAQ (R10)(R9*1), R11  // a row 2
	LEAQ (R11)(R9*1), R12  // a row 3
	MOVQ pk+16(FP), SI
	MOVQ kb+24(FP), CX

	VXORPD Y0, Y0, Y0      // c[0][0:4]
	VXORPD Y1, Y1, Y1      // c[0][4:8]
	VXORPD Y2, Y2, Y2      // c[1][0:4]
	VXORPD Y3, Y3, Y3      // c[1][4:8]
	VXORPD Y4, Y4, Y4      // c[2][0:4]
	VXORPD Y5, Y5, Y5      // c[2][4:8]
	VXORPD Y6, Y6, Y6      // c[3][0:4]
	VXORPD Y7, Y7, Y7      // c[3][4:8]

loop:
	VMOVUPD (SI), Y8       // b[t][0:4]
	VMOVUPD 32(SI), Y9     // b[t][4:8]
	ADDQ    $64, SI

	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R10), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3
	VBROADCASTSD (R11), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD (R12), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7

	ADDQ $8, R8
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  loop

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), DX
	SHLQ    $3, DX
	MOVBLZX first+48(FP), AX
	TESTL   AX, AX
	JZ      accum

	// first panel: overwrite C with the subtotals
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	JMP     done

accum:
	// later panels: C += subtotal
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y1, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Y8
	VADDPD  Y2, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y3, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Y8
	VADDPD  Y6, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y7, Y9, Y9
	VMOVUPD Y9, 32(DI)

done:
	VZEROUPPER
	RET

// func gemm4x16asm(a *float64, lda int, pk *float64, kb int, c *float64, ldc int, first bool)
// The 4×16 tile of gemm4x8asm over two adjacent packed panels: columns
// 0–7 from pk, columns 8–15 from pk+8·kb. Eight ZMM accumulators, one
// per row half.
TEXT ·gemm4x16asm(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R9
	SHLQ $3, R9            // row stride in bytes
	LEAQ (R8)(R9*1), R10   // a row 1
	LEAQ (R10)(R9*1), R11  // a row 2
	LEAQ (R11)(R9*1), R12  // a row 3
	MOVQ pk+16(FP), SI
	MOVQ kb+24(FP), CX
	MOVQ CX, BX
	SHLQ $6, BX            // 8·kb float64: byte offset of the second panel
	XORQ AX, AX            // byte offset of k step t in a row of A

	VPXORQ Z0, Z0, Z0      // c[0][0:8]
	VPXORQ Z1, Z1, Z1      // c[0][8:16]
	VPXORQ Z2, Z2, Z2      // c[1][0:8]
	VPXORQ Z3, Z3, Z3      // c[1][8:16]
	VPXORQ Z4, Z4, Z4      // c[2][0:8]
	VPXORQ Z5, Z5, Z5      // c[2][8:16]
	VPXORQ Z6, Z6, Z6      // c[3][0:8]
	VPXORQ Z7, Z7, Z7      // c[3][8:16]

loop16:
	VMOVUPD (SI), Z8       // b[t][0:8]
	VMOVUPD (SI)(BX*1), Z9 // b[t][8:16]
	ADDQ    $64, SI

	VBROADCASTSD (R8)(AX*1), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VBROADCASTSD (R10)(AX*1), Z11
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VBROADCASTSD (R11)(AX*1), Z10
	VFMADD231PD  Z8, Z10, Z4
	VFMADD231PD  Z9, Z10, Z5
	VBROADCASTSD (R12)(AX*1), Z11
	VFMADD231PD  Z8, Z11, Z6
	VFMADD231PD  Z9, Z11, Z7

	ADDQ $8, AX
	DECQ CX
	JNZ  loop16

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), DX
	SHLQ    $3, DX
	MOVBLZX first+48(FP), AX
	TESTL   AX, AX
	JZ      accum16

	// first panel: overwrite C with the subtotals
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	JMP     done16

accum16:
	// later panels: C += subtotal
	VMOVUPD (DI), Z8
	VADDPD  Z0, Z8, Z8
	VMOVUPD Z8, (DI)
	VMOVUPD 64(DI), Z9
	VADDPD  Z1, Z9, Z9
	VMOVUPD Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Z8
	VADDPD  Z2, Z8, Z8
	VMOVUPD Z8, (DI)
	VMOVUPD 64(DI), Z9
	VADDPD  Z3, Z9, Z9
	VMOVUPD Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Z8
	VADDPD  Z4, Z8, Z8
	VMOVUPD Z8, (DI)
	VMOVUPD 64(DI), Z9
	VADDPD  Z5, Z9, Z9
	VMOVUPD Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPD (DI), Z8
	VADDPD  Z6, Z8, Z8
	VMOVUPD Z8, (DI)
	VMOVUPD 64(DI), Z9
	VADDPD  Z7, Z9, Z9
	VMOVUPD Z9, 64(DI)

done16:
	VZEROUPPER
	RET

// FLAGMASKS sets the AVX-512 opmasks from the epilogue flags in f (t is
// clobbered): K1 all ones under epiAcc, K2 under epiBias, K3 under
// epiReLU, each zero otherwise.
#define FLAGMASKS(f, t) \
	MOVL f, t; \
	ANDL $1, t; \
	NEGL t; \
	KMOVW t, K1; \
	MOVL f, t; \
	SHRL $1, t; \
	ANDL $1, t; \
	NEGL t; \
	KMOVW t, K2; \
	MOVL f, t; \
	SHRL $2, t; \
	ANDL $1, t; \
	NEGL t; \
	KMOVW t, K3

// EPI16 stores the 16 subtotals in s to off(DI) as FLAGMASKS's masks
// say, the 16 biases at off(SI): under K1 s = C + s, under K2 s = s +
// bias, under K3 s = s > 0 ? s : +0 (Z31 is zero) — masked-off lanes
// read no memory and keep s. Z8 and Z9 are clobbered.
#define EPI16(off, s) \
	VMOVUPS.Z off(DI), K1, Z8; \
	VADDPS    s, Z8, K1, s; \
	VMOVUPS.Z off(SI), K2, Z9; \
	VADDPS    Z9, s, K2, s; \
	VMAXPS    Z31, s, K3, s; \
	VMOVUPS   s, off(DI)

// func gemm4x16ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int)
// The float32 4×16 micro kernel (AVX2+FMA): a 4×16 C tile over one
// packed panel of kb rows of 16 float32, two YMM accumulators per row,
// stored as the epilogue flags say: added to C under epiAcc, then the 16
// biases added under epiBias, then clamped under epiReLU (MAXPS returns
// its second source unless the first is greater: v > 0 ? v : +0).
TEXT ·gemm4x16ps(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R9
	SHLQ $2, R9            // row stride in bytes
	LEAQ (R8)(R9*1), R10   // a row 1
	LEAQ (R10)(R9*1), R11  // a row 2
	LEAQ (R11)(R9*1), R12  // a row 3
	MOVQ pk+16(FP), SI
	MOVQ kb+24(FP), CX

	VXORPS Y0, Y0, Y0      // c[0][0:8]
	VXORPS Y1, Y1, Y1      // c[0][8:16]
	VXORPS Y2, Y2, Y2      // c[1][0:8]
	VXORPS Y3, Y3, Y3      // c[1][8:16]
	VXORPS Y4, Y4, Y4      // c[2][0:8]
	VXORPS Y5, Y5, Y5      // c[2][8:16]
	VXORPS Y6, Y6, Y6      // c[3][0:8]
	VXORPS Y7, Y7, Y7      // c[3][8:16]

loopps:
	VMOVUPS (SI), Y8       // b[t][0:8]
	VMOVUPS 32(SI), Y9     // b[t][8:16]
	ADDQ    $64, SI

	VBROADCASTSS (R8), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R10), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS (R11), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (R12), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7

	ADDQ $4, R8
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ CX
	JNZ  loopps

	MOVQ c+32(FP), DI      // C row 0
	MOVQ ldc+40(FP), DX
	SHLQ $2, DX
	LEAQ (DI)(DX*1), R9    // C row 1
	LEAQ (R9)(DX*1), R10   // C row 2
	LEAQ (R10)(DX*1), R11  // C row 3
	MOVQ flags+56(FP), AX
	TESTQ $1, AX
	JZ    bias16ps

	// later k panels: C + subtotal
	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y0
	VMOVUPS 32(DI), Y9
	VADDPS  Y1, Y9, Y1
	VMOVUPS (R9), Y8
	VADDPS  Y2, Y8, Y2
	VMOVUPS 32(R9), Y9
	VADDPS  Y3, Y9, Y3
	VMOVUPS (R10), Y8
	VADDPS  Y4, Y8, Y4
	VMOVUPS 32(R10), Y9
	VADDPS  Y5, Y9, Y5
	VMOVUPS (R11), Y8
	VADDPS  Y6, Y8, Y6
	VMOVUPS 32(R11), Y9
	VADDPS  Y7, Y9, Y7

bias16ps:
	TESTQ $2, AX
	JZ    relu16ps
	MOVQ    bias+48(FP), SI
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y9, Y7, Y7

relu16ps:
	TESTQ $4, AX
	JZ    store16ps
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

store16ps:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET

// func gemm4x32ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, bias *float32, flags int)
// The float32 form of gemm4x16asm (AVX-512F): a 4×32 C tile over two
// adjacent packed panels, columns 0–15 from pk and 16–31 from
// pk+16·kb, one ZMM accumulator per row half, stored as gemm4x16ps
// does under FLAGMASKS's masks, or plainly when flags are 0.
TEXT ·gemm4x32ps(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R9
	SHLQ $2, R9            // row stride in bytes
	LEAQ (R8)(R9*1), R10   // a row 1
	LEAQ (R10)(R9*1), R11  // a row 2
	LEAQ (R11)(R9*1), R12  // a row 3
	MOVQ pk+16(FP), SI
	MOVQ kb+24(FP), CX
	MOVQ CX, BX
	SHLQ $6, BX            // 16·kb float32: byte offset of the second panel
	XORQ AX, AX            // byte offset of k step t in a row of A

	VPXORD Z0, Z0, Z0      // c[0][0:16]
	VPXORD Z1, Z1, Z1      // c[0][16:32]
	VPXORD Z2, Z2, Z2      // c[1][0:16]
	VPXORD Z3, Z3, Z3      // c[1][16:32]
	VPXORD Z4, Z4, Z4      // c[2][0:16]
	VPXORD Z5, Z5, Z5      // c[2][16:32]
	VPXORD Z6, Z6, Z6      // c[3][0:16]
	VPXORD Z7, Z7, Z7      // c[3][16:32]

loop32ps:
	VMOVUPS (SI), Z8       // b[t][0:16]
	VMOVUPS (SI)(BX*1), Z9 // b[t][16:32]
	ADDQ    $64, SI

	VBROADCASTSS (R8)(AX*1), Z10
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	VBROADCASTSS (R10)(AX*1), Z11
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z9, Z11, Z3
	VBROADCASTSS (R11)(AX*1), Z10
	VFMADD231PS  Z8, Z10, Z4
	VFMADD231PS  Z9, Z10, Z5
	VBROADCASTSS (R12)(AX*1), Z11
	VFMADD231PS  Z8, Z11, Z6
	VFMADD231PS  Z9, Z11, Z7

	ADDQ $4, AX
	DECQ CX
	JNZ  loop32ps

	MOVQ   c+32(FP), DI
	MOVQ   ldc+40(FP), DX
	SHLQ   $2, DX
	MOVQ   flags+56(FP), AX
	TESTQ  AX, AX
	JNZ    epi32ps

	// a first k panel that is not also the last: store the subtotals
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET

epi32ps:
	MOVQ   bias+48(FP), SI
	FLAGMASKS(AX, BX)
	VPXORD Z31, Z31, Z31
	EPI16(0, Z0)
	EPI16(64, Z1)
	ADDQ   DX, DI
	EPI16(0, Z2)
	EPI16(64, Z3)
	ADDQ   DX, DI
	EPI16(0, Z4)
	EPI16(64, Z5)
	ADDQ   DX, DI
	EPI16(0, Z6)
	EPI16(64, Z7)
	VZEROUPPER
	RET

// PANELPTRS points p at the panel after q, DX bytes on, while the panel
// count in SI exceeds n, and at q itself otherwise: a group short of its
// full width repeats its last panel, so nothing past it is read. AX is
// clobbered.
#define PANELPTRS(q, p, n) \
	LEAQ    (q)(DX*1), AX; \
	MOVQ    q, p; \
	CMPQ    SI, $n; \
	CMOVQGT AX, p

// func gemm1x128ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int)
// The float32 1-row kernel (AVX-512F): the one row of A at a against
// 1–8 adjacent whole panels from pk (16·kb float32 apart), one ZMM
// accumulator per panel, so eight independent fused multiply-add chains
// hide the FMA latency and each panel is streamed once. Panel p's 16
// subtotals land at c+16p, stored as gemm4x16ps does, with the biases
// from bias+16p.
TEXT ·gemm1x128ps(SB), NOSPLIT, $0-56
	MOVQ pk+8(FP), R8
	MOVQ kb+16(FP), CX
	MOVQ CX, DX
	SHLQ $6, DX            // 16·kb float32: the bytes from one panel to the next
	MOVQ panels+24(FP), SI
	PANELPTRS(R8, R9, 1)
	PANELPTRS(R9, R10, 2)
	PANELPTRS(R10, R11, 3)
	PANELPTRS(R11, R12, 4)
	PANELPTRS(R12, R13, 5)
	PANELPTRS(R13, BX, 6)
	PANELPTRS(BX, DI, 7)
	MOVQ a+0(FP), SI
	XORQ AX, AX            // byte offset of k step t in a panel

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

loop1x128ps:
	VBROADCASTSS (SI), Z8
	VFMADD231PS  (R8)(AX*1), Z8, Z0
	VFMADD231PS  (R9)(AX*1), Z8, Z1
	VFMADD231PS  (R10)(AX*1), Z8, Z2
	VFMADD231PS  (R11)(AX*1), Z8, Z3
	VFMADD231PS  (R12)(AX*1), Z8, Z4
	VFMADD231PS  (R13)(AX*1), Z8, Z5
	VFMADD231PS  (BX)(AX*1), Z8, Z6
	VFMADD231PS  (DI)(AX*1), Z8, Z7
	ADDQ         $4, SI
	ADDQ         $64, AX
	DECQ         CX
	JNZ          loop1x128ps

	MOVQ   c+32(FP), DI
	MOVQ   bias+40(FP), SI
	MOVQ   panels+24(FP), DX
	MOVQ   flags+48(FP), AX
	FLAGMASKS(AX, BX)
	VPXORD Z31, Z31, Z31
	EPI16(0, Z0)
	CMPQ   DX, $1
	JEQ    done1x128ps
	EPI16(64, Z1)
	CMPQ   DX, $2
	JEQ    done1x128ps
	EPI16(128, Z2)
	CMPQ   DX, $3
	JEQ    done1x128ps
	EPI16(192, Z3)
	CMPQ   DX, $4
	JEQ    done1x128ps
	EPI16(256, Z4)
	CMPQ   DX, $5
	JEQ    done1x128ps
	EPI16(320, Z5)
	CMPQ   DX, $6
	JEQ    done1x128ps
	EPI16(384, Z6)
	CMPQ   DX, $7
	JEQ    done1x128ps
	EPI16(448, Z7)

done1x128ps:
	VZEROUPPER
	RET

// func gemm1x64ps(a *float32, pk *float32, kb, panels int, c *float32, bias *float32, flags int)
// gemm1x128ps at AVX2+FMA: 1–4 panels, two YMM accumulators each, and
// the epilogue of gemm4x16ps, panel by panel up to the panel count.
TEXT ·gemm1x64ps(SB), NOSPLIT, $0-56
	MOVQ pk+8(FP), R8
	MOVQ kb+16(FP), CX
	MOVQ CX, DX
	SHLQ $6, DX            // 16·kb float32: the bytes from one panel to the next
	MOVQ panels+24(FP), SI
	PANELPTRS(R8, R9, 1)
	PANELPTRS(R9, R10, 2)
	PANELPTRS(R10, R11, 3)
	MOVQ a+0(FP), SI
	XORQ AX, AX            // byte offset of k step t in a panel

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop1x64ps:
	VBROADCASTSS (SI), Y8
	VFMADD231PS  (R8)(AX*1), Y8, Y0
	VFMADD231PS  32(R8)(AX*1), Y8, Y1
	VFMADD231PS  (R9)(AX*1), Y8, Y2
	VFMADD231PS  32(R9)(AX*1), Y8, Y3
	VFMADD231PS  (R10)(AX*1), Y8, Y4
	VFMADD231PS  32(R10)(AX*1), Y8, Y5
	VFMADD231PS  (R11)(AX*1), Y8, Y6
	VFMADD231PS  32(R11)(AX*1), Y8, Y7
	ADDQ         $4, SI
	ADDQ         $64, AX
	DECQ         CX
	JNZ          loop1x64ps

	MOVQ  c+32(FP), DI
	MOVQ  panels+24(FP), DX
	MOVQ  flags+48(FP), AX
	TESTQ $1, AX
	JZ    bias1x64ps

	// later k panels: C + subtotal
	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y0
	VMOVUPS 32(DI), Y9
	VADDPS  Y1, Y9, Y1
	CMPQ    DX, $1
	JEQ     bias1x64ps
	VMOVUPS 64(DI), Y8
	VADDPS  Y2, Y8, Y2
	VMOVUPS 96(DI), Y9
	VADDPS  Y3, Y9, Y3
	CMPQ    DX, $2
	JEQ     bias1x64ps
	VMOVUPS 128(DI), Y8
	VADDPS  Y4, Y8, Y4
	VMOVUPS 160(DI), Y9
	VADDPS  Y5, Y9, Y5
	CMPQ    DX, $3
	JEQ     bias1x64ps
	VMOVUPS 192(DI), Y8
	VADDPS  Y6, Y8, Y6
	VMOVUPS 224(DI), Y9
	VADDPS  Y7, Y9, Y7

bias1x64ps:
	TESTQ  $2, AX
	JZ     relu1x64ps
	MOVQ   bias+40(FP), SI
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	CMPQ   DX, $1
	JEQ    relu1x64ps
	VADDPS 64(SI), Y2, Y2
	VADDPS 96(SI), Y3, Y3
	CMPQ   DX, $2
	JEQ    relu1x64ps
	VADDPS 128(SI), Y4, Y4
	VADDPS 160(SI), Y5, Y5
	CMPQ   DX, $3
	JEQ    relu1x64ps
	VADDPS 192(SI), Y6, Y6
	VADDPS 224(SI), Y7, Y7

relu1x64ps:
	TESTQ  $4, AX
	JZ     store1x64ps
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

store1x64ps:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ    DX, $1
	JEQ     done1x64ps
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	CMPQ    DX, $2
	JEQ     done1x64ps
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	CMPQ    DX, $3
	JEQ     done1x64ps
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)

done1x64ps:
	VZEROUPPER
	RET

// func gather16ps(dst, src0, src1 *float32, rows *int, kb int)
// One packed micro panel of an im2col panel whose two halves each read
// 8 adjacent inputs: row t is the 8 float32 at src0+rows[t] followed by
// the 8 at src1+rows[t].
TEXT ·gather16ps(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src0+8(FP), SI
	MOVQ src1+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ kb+32(FP), CX

gatherps:
	MOVQ    (BX), AX
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS (DX)(AX*4), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $8, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     gatherps
	VZEROUPPER
	RET

// func pool2ReLUps(out, in *float32, pairs, quads, w int, b float32)
// The Conv→ReLU→MaxPool(2) epilogue of a run of row pairs: pair p reads
// rows 2p and 2p+1 of w products each from in and writes quads groups
// of four outputs to out+p·w/2. Per group, 8 products of each row get
// the bias added and are clamped, v > 0 ? v : +0 (NaN becomes +0, as in
// nn.ReLU), and each output takes the first-wins maximum of its 2×2
// window in MaxPool2D's order r0[2i], r0[2i+1], r1[2i], r1[2i+1]. MAXPS
// returns its second source unless the first is greater, which is both
// the clamp and the first-wins compare.
TEXT ·pool2ReLUps(SB), NOSPLIT, $0-44
	MOVQ         out+0(FP), DI
	MOVQ         in+8(FP), SI
	MOVQ         pairs+16(FP), BX
	MOVQ         w+32(FP), R9
	SHLQ         $2, R9            // bytes per row of products
	MOVQ         R9, R10
	SHRQ         $1, R10           // bytes per row of outputs
	VBROADCASTSS b+40(FP), Y15
	VXORPS       Y14, Y14, Y14

pairps:
	MOVQ quads+24(FP), CX
	MOVQ SI, R11                   // row 2p
	LEAQ (SI)(R9*1), DX            // row 2p+1
	MOVQ DI, R12

poolps:
	VADDPS       (R11), Y15, Y0    // r0[0:8] + b
	VADDPS       (DX), Y15, Y2     // r1[0:8] + b
	VMAXPS       Y14, Y0, Y0       // clamp: v > 0 ? v : +0
	VMAXPS       Y14, Y2, Y2
	VEXTRACTF128 $1, Y0, X1        // r0[4:8]
	VEXTRACTF128 $1, Y2, X3        // r1[4:8]
	VSHUFPS      $0x88, X1, X0, X4 // r0 even columns
	VSHUFPS      $0xdd, X1, X0, X5 // r0 odd columns
	VSHUFPS      $0x88, X3, X2, X6 // r1 even columns
	VSHUFPS      $0xdd, X3, X2, X7 // r1 odd columns
	VMAXPS       X4, X5, X4        // best = r0 odd > best ? r0 odd : best
	VMAXPS       X4, X6, X4
	VMAXPS       X4, X7, X4
	VMOVUPS      X4, (R12)
	ADDQ         $32, R11
	ADDQ         $32, DX
	ADDQ         $16, R12
	DECQ         CX
	JNZ          poolps

	LEAQ (SI)(R9*2), SI            // the next pair
	ADDQ R10, DI
	DECQ BX
	JNZ  pairps
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET
