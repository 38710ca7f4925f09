// Assembly of the inference kernels. The GEMM micro kernels accumulate
// one C tile over a k panel, reading B from its packed micro panels (kb
// rows of 8 contiguous float64). Per C element the accumulation is a
// chain of fused multiply-adds in ascending k — the same
// correctly-rounded sequence the math.FMA scalar kernel performs, so
// every level computes the same bits. The gather and the pool epilogue
// only move, add, clamp and compare, in the order their Go loops do.

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

// func gather8asm(dst, src *float64, rows *int, kb int)
// One packed micro panel of an adjacent im2col panel: row t is the 8
// inputs at src+rows[t], one 64-byte move.
TEXT ·gather8asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ kb+24(FP), CX

gather:
	MOVQ    (BX), AX
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $8, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     gather
	VZEROUPPER
	RET

// func pool2ReLUasm(out, r0, r1 *float64, quads int, b float64)
// Per group of four outputs: rows r0 and r1 of 8 products each get the
// bias added and are clamped, v > 0 ? v : +0 (NaN becomes +0, as in
// nn.ReLU), and each output takes the first-wins maximum of its 2×2
// window in maxPool2CHW's order r0[2i], r0[2i+1], r1[2i], r1[2i+1].
// MAXPD returns its second source unless the first is greater, which
// is both the clamp and the first-wins compare.
TEXT ·pool2ReLUasm(SB), NOSPLIT, $0-40
	MOVQ         out+0(FP), DI
	MOVQ         r0+8(FP), SI
	MOVQ         r1+16(FP), DX
	MOVQ         quads+24(FP), CX
	VBROADCASTSD b+32(FP), Y15
	VXORPD       Y14, Y14, Y14

pool:
	VADDPD    (SI), Y15, Y0    // r0[0:4] + b
	VADDPD    32(SI), Y15, Y1  // r0[4:8] + b
	VADDPD    (DX), Y15, Y2    // r1[0:4] + b
	VADDPD    32(DX), Y15, Y3  // r1[4:8] + b
	VMAXPD    Y14, Y0, Y0      // clamp: v > 0 ? v : +0
	VMAXPD    Y14, Y1, Y1
	VMAXPD    Y14, Y2, Y2
	VMAXPD    Y14, Y3, Y3
	VUNPCKLPD Y1, Y0, Y4       // r0 even columns, lanes ordered outputs 0 2 1 3
	VUNPCKHPD Y1, Y0, Y5       // r0 odd columns
	VUNPCKLPD Y3, Y2, Y6       // r1 even columns
	VUNPCKHPD Y3, Y2, Y7       // r1 odd columns
	VMAXPD    Y4, Y5, Y4       // best = r0 odd > best ? r0 odd : best
	VMAXPD    Y4, Y6, Y4
	VMAXPD    Y4, Y7, Y4
	VPERMPD   $0xd8, Y4, Y4    // lanes 0 2 1 3 -> outputs 0 1 2 3
	VMOVUPD   Y4, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $32, DI
	DECQ      CX
	JNZ       pool
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
