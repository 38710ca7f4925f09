// Assembly of the kernels, float64 (…asm) and float32 (…ps). The GEMM
// micro kernels accumulate one C tile over a k panel, reading B from its
// packed micro panels (kb rows of 8 contiguous float64 or 16 float32);
// the matrix-vector kernels read the weight rows where they lie. Per
// output element the accumulation is a chain of fused multiply-adds in
// ascending k — the same correctly-rounded sequence the math.FMA and
// fma32 scalar kernels perform, so every level computes the same bits.
// The gather and the pool epilogue only move, add, clamp and compare, in
// the order their Go loops do.

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

// TRANSPOSE8 transposes the 8×8 block held one row per register in
// r0–r7 (lane k = column k) into t0–t7 (t_k lane r = row r, column k),
// with 8 VUNPCK{L,H}PD and 16 VSHUFF64X2. r0–r7 are clobbered.
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VUNPCKLPD  r1, r0, t0; \
	VUNPCKHPD  r1, r0, t1; \
	VUNPCKLPD  r3, r2, t2; \
	VUNPCKHPD  r3, r2, t3; \
	VUNPCKLPD  r5, r4, t4; \
	VUNPCKHPD  r5, r4, t5; \
	VUNPCKLPD  r7, r6, t6; \
	VUNPCKHPD  r7, r6, t7; \
	VSHUFF64X2 $0x88, t2, t0, r0; \
	VSHUFF64X2 $0xdd, t2, t0, r1; \
	VSHUFF64X2 $0x88, t3, t1, r2; \
	VSHUFF64X2 $0xdd, t3, t1, r3; \
	VSHUFF64X2 $0x88, t6, t4, r4; \
	VSHUFF64X2 $0xdd, t6, t4, r5; \
	VSHUFF64X2 $0x88, t7, t5, r6; \
	VSHUFF64X2 $0xdd, t7, t5, r7; \
	VSHUFF64X2 $0x88, r4, r0, t0; \
	VSHUFF64X2 $0xdd, r4, r0, t4; \
	VSHUFF64X2 $0x88, r5, r1, t2; \
	VSHUFF64X2 $0xdd, r5, r1, t6; \
	VSHUFF64X2 $0x88, r6, r2, t1; \
	VSHUFF64X2 $0xdd, r6, r2, t5; \
	VSHUFF64X2 $0x88, r7, r3, t3; \
	VSHUFF64X2 $0xdd, r7, r3, t7

// LOADROWS loads eight k values of the eight weight rows at a0 (rows
// 0–2, 4, 6 off a0, rows 3, 5, 7 off a3 = a0+3·ldw; DX = ldw bytes, BX =
// 3·ldw bytes) into Z0–Z7, under the mask m (K0 for all eight).
#define LOADROWS(a0, a3, m) \
	VMOVUPD.Z (a0), m, Z0; \
	VMOVUPD.Z (a0)(DX*1), m, Z1; \
	VMOVUPD.Z (a0)(DX*2), m, Z2; \
	VMOVUPD.Z (a3), m, Z3; \
	VMOVUPD.Z (a0)(DX*4), m, Z4; \
	VMOVUPD.Z (a3)(DX*2), m, Z5; \
	VMOVUPD.Z (a0)(BX*2), m, Z6; \
	VMOVUPD.Z (a3)(DX*4), m, Z7

// FMA8 runs k steps 0–7 of one batch row (x at p) into the accumulators
// ca (group A, steps in Z8–Z15) and cb (group B, steps in Z16–Z23),
// alternating the two chains.
#define FMA8(p, ca, cb) \
	VFMADD231PD.BCST (p), Z8, ca; \
	VFMADD231PD.BCST (p), Z16, cb; \
	VFMADD231PD.BCST 8(p), Z9, ca; \
	VFMADD231PD.BCST 8(p), Z17, cb; \
	VFMADD231PD.BCST 16(p), Z10, ca; \
	VFMADD231PD.BCST 16(p), Z18, cb; \
	VFMADD231PD.BCST 24(p), Z11, ca; \
	VFMADD231PD.BCST 24(p), Z19, cb; \
	VFMADD231PD.BCST 32(p), Z12, ca; \
	VFMADD231PD.BCST 32(p), Z20, cb; \
	VFMADD231PD.BCST 40(p), Z13, ca; \
	VFMADD231PD.BCST 40(p), Z21, cb; \
	VFMADD231PD.BCST 48(p), Z14, ca; \
	VFMADD231PD.BCST 48(p), Z22, cb; \
	VFMADD231PD.BCST 56(p), Z15, ca; \
	VFMADD231PD.BCST 56(p), Z23, cb

// STORE8 writes the group accumulator c to the 8 outputs at p under
// mask m: stored on the first panel, added to what is there otherwise
// (R8 holds first).
#define STORE8(c, p, m) \
	VMOVUPD.Z (p), m, Z0; \
	VADDPD    c, Z0, Z0; \
	TESTQ     R8, R8; \
	JZ        3(PC); \
	VMOVUPD   c, m, (p); \
	JMP       2(PC); \
	VMOVUPD   Z0, m, (p)

// func gemv16asm(w0, w1 *float64, ldw int, x *float64, ldx, nb, kb int, y0, y1 *float64, ldy, m0, m1 int, first bool)
// The transposing matrix-vector kernel (AVX-512F): two groups of eight
// weight rows (w0 and w1, rows ldw elements apart) against nb ≤ 4 batch
// rows of x (ldx apart) over one k panel of kb steps. Each 8×8 block of
// a group is loaded where it lies and transposed in registers, so lane
// r of the step-k register holds row r's weight k; lane r of a batch
// row's accumulator then runs row r's ascending-k fused multiply-add
// chain against x[k] broadcast, every block reused by all nb batch
// rows. The kb%8 tail is loaded under a mask and only its real steps
// are run. Batch row b of group A lands at y0+b·ldy under lane mask m0,
// of group B at y1+b·ldy under m1.
TEXT ·gemv16asm(SB), NOSPLIT, $0-97
	MOVQ w0+0(FP), R8
	MOVQ w1+8(FP), R10
	MOVQ ldw+16(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (DX)(DX*2), BX    // 3 row strides
	LEAQ (R8)(BX*1), R9    // group A row 3
	LEAQ (R10)(BX*1), R11  // group B row 3
	MOVQ x+24(FP), SI
	MOVQ ldx+32(FP), R12
	SHLQ $3, R12
	MOVQ nb+40(FP), R13
	MOVQ kb+48(FP), CX
	MOVQ CX, AX
	ANDQ $7, AX            // tail steps
	SHRQ $3, CX            // full 8-step blocks

	VPXORQ Z24, Z24, Z24   // group A, batch rows 0–3
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28   // group B, batch rows 0–3
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	KXNORW K1, K1, K1      // all lanes
	TESTQ  CX, CX
	JZ     tail

block:
	LOADROWS(R8, R9, K1)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	LOADROWS(R10, R11, K1)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	MOVQ SI, DI
	FMA8(DI, Z24, Z28)
	CMPQ R13, $1
	JEQ  next
	ADDQ R12, DI
	FMA8(DI, Z25, Z29)
	CMPQ R13, $2
	JEQ  next
	ADDQ R12, DI
	FMA8(DI, Z26, Z30)
	CMPQ R13, $3
	JEQ  next
	ADDQ R12, DI
	FMA8(DI, Z27, Z31)

next:
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, SI
	DECQ CX
	JNZ  block

tail:
	TESTQ AX, AX
	JZ    store
	MOVQ  AX, CX
	MOVL  $1, DI
	SHLL  CX, DI
	DECL  DI
	KMOVW DI, K2           // the tail's k lanes
	LOADROWS(R8, R9, K2)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	LOADROWS(R10, R11, K2)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)

tailstep:
	// one k step of every batch row, then shift the next step into Z8/Z16
	// (a tail has at most 7 steps, so step 7 never needs to move)
	MOVQ SI, DI
	VFMADD231PD.BCST (DI), Z8, Z24
	VFMADD231PD.BCST (DI), Z16, Z28
	CMPQ R13, $1
	JEQ  shift
	ADDQ R12, DI
	VFMADD231PD.BCST (DI), Z8, Z25
	VFMADD231PD.BCST (DI), Z16, Z29
	CMPQ R13, $2
	JEQ  shift
	ADDQ R12, DI
	VFMADD231PD.BCST (DI), Z8, Z26
	VFMADD231PD.BCST (DI), Z16, Z30
	CMPQ R13, $3
	JEQ  shift
	ADDQ R12, DI
	VFMADD231PD.BCST (DI), Z8, Z27
	VFMADD231PD.BCST (DI), Z16, Z31

shift:
	VMOVAPD Z9, Z8
	VMOVAPD Z10, Z9
	VMOVAPD Z11, Z10
	VMOVAPD Z12, Z11
	VMOVAPD Z13, Z12
	VMOVAPD Z14, Z13
	VMOVAPD Z17, Z16
	VMOVAPD Z18, Z17
	VMOVAPD Z19, Z18
	VMOVAPD Z20, Z19
	VMOVAPD Z21, Z20
	VMOVAPD Z22, Z21
	ADDQ    $8, SI
	DECQ    AX
	JNZ     tailstep

store:
	MOVQ    y0+56(FP), DI
	MOVQ    y1+64(FP), SI
	MOVQ    ldy+72(FP), DX
	SHLQ    $3, DX
	MOVQ    m0+80(FP), AX
	KMOVW   AX, K2
	MOVQ    m1+88(FP), AX
	KMOVW   AX, K3
	MOVBQZX first+96(FP), R8
	STORE8(Z24, DI, K2)
	STORE8(Z28, SI, K3)
	CMPQ    R13, $1
	JEQ     done16v
	ADDQ    DX, DI
	ADDQ    DX, SI
	STORE8(Z25, DI, K2)
	STORE8(Z29, SI, K3)
	CMPQ    R13, $2
	JEQ     done16v
	ADDQ    DX, DI
	ADDQ    DX, SI
	STORE8(Z26, DI, K2)
	STORE8(Z30, SI, K3)
	CMPQ    R13, $3
	JEQ     done16v
	ADDQ    DX, DI
	ADDQ    DX, SI
	STORE8(Z27, DI, K2)
	STORE8(Z31, SI, K3)

done16v:
	VZEROUPPER
	RET

// func gemv8asm(w *float64, ldw int, x *float64, kb int, y *float64, first bool)
// The AVX2+FMA matrix-vector kernel: eight weight rows (ldw elements
// apart) against one x over one k panel of kb steps, one scalar fused
// multiply-add chain per row in ascending k, the eight chains
// interleaved to cover the FMA latency. Row r's subtotal lands at y+r.
TEXT ·gemv8asm(SB), NOSPLIT, $0-41
	MOVQ w+0(FP), R8
	MOVQ ldw+8(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (DX)(DX*2), BX    // 3 row strides
	LEAQ (R8)(BX*1), R9    // row 3
	MOVQ x+16(FP), SI
	MOVQ kb+24(FP), CX

	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7

step:
	VMOVSD      (SI), X8
	VFMADD231SD (R8), X8, X0
	VFMADD231SD (R8)(DX*1), X8, X1
	VFMADD231SD (R8)(DX*2), X8, X2
	VFMADD231SD (R9), X8, X3
	VFMADD231SD (R8)(DX*4), X8, X4
	VFMADD231SD (R9)(DX*2), X8, X5
	VFMADD231SD (R8)(BX*2), X8, X6
	VFMADD231SD (R9)(DX*4), X8, X7
	ADDQ        $8, R8
	ADDQ        $8, R9
	ADDQ        $8, SI
	DECQ        CX
	JNZ         step

	MOVQ    y+32(FP), DI
	MOVBLZX first+40(FP), AX
	TESTL   AX, AX
	JNZ     put8
	VADDSD  (DI), X0, X0
	VADDSD  8(DI), X1, X1
	VADDSD  16(DI), X2, X2
	VADDSD  24(DI), X3, X3
	VADDSD  32(DI), X4, X4
	VADDSD  40(DI), X5, X5
	VADDSD  48(DI), X6, X6
	VADDSD  56(DI), X7, X7

put8:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VMOVSD X4, 32(DI)
	VMOVSD X5, 40(DI)
	VMOVSD X6, 48(DI)
	VMOVSD X7, 56(DI)
	VZEROUPPER
	RET

// func gemm4x16ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, first bool)
// The float32 form of gemm4x8asm (AVX2+FMA): a 4×16 C tile over one
// packed panel of kb rows of 16 float32, two YMM accumulators per row.
TEXT ·gemm4x16ps(SB), NOSPLIT, $0-49
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

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), DX
	SHLQ    $2, DX
	MOVBLZX first+48(FP), AX
	TESTL   AX, AX
	JZ      accumps

	// first panel: overwrite C with the subtotals
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	JMP     doneps

accumps:
	// later panels: C += subtotal
	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y9
	VADDPS  Y1, Y9, Y9
	VMOVUPS Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y2, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y9
	VADDPS  Y3, Y9, Y9
	VMOVUPS Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y9
	VADDPS  Y5, Y9, Y9
	VMOVUPS Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y6, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y9
	VADDPS  Y7, Y9, Y9
	VMOVUPS Y9, 32(DI)

doneps:
	VZEROUPPER
	RET

// func gemm4x32ps(a *float32, lda int, pk *float32, kb int, c *float32, ldc int, first bool)
// The float32 form of gemm4x16asm (AVX-512F): a 4×32 C tile over two
// adjacent packed panels, columns 0–15 from pk and 16–31 from
// pk+16·kb, one ZMM accumulator per row half.
TEXT ·gemm4x32ps(SB), NOSPLIT, $0-49
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

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), DX
	SHLQ    $2, DX
	MOVBLZX first+48(FP), AX
	TESTL   AX, AX
	JZ      accum32ps

	// first panel: overwrite C with the subtotals
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
	JMP     done32ps

accum32ps:
	// later panels: C += subtotal
	VMOVUPS (DI), Z8
	VADDPS  Z0, Z8, Z8
	VMOVUPS Z8, (DI)
	VMOVUPS 64(DI), Z9
	VADDPS  Z1, Z9, Z9
	VMOVUPS Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Z8
	VADDPS  Z2, Z8, Z8
	VMOVUPS Z8, (DI)
	VMOVUPS 64(DI), Z9
	VADDPS  Z3, Z9, Z9
	VMOVUPS Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Z8
	VADDPS  Z4, Z8, Z8
	VMOVUPS Z8, (DI)
	VMOVUPS 64(DI), Z9
	VADDPS  Z5, Z9, Z9
	VMOVUPS Z9, 64(DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Z8
	VADDPS  Z6, Z8, Z8
	VMOVUPS Z8, (DI)
	VMOVUPS 64(DI), Z9
	VADDPS  Z7, Z9, Z9
	VMOVUPS Z9, 64(DI)

done32ps:
	VZEROUPPER
	RET

// LOADROWS16 loads eight k values of the sixteen weight rows of a group
// into Z0–Z7: lanes 0–7 of Z_r from row r (rows 0–2, 4, 6 off R8, rows
// 3, 5, 7 off R9 = R8+3·ldw), lanes 8–15 from row r+8 (off R10 =
// R8+8·ldw and R11 = R10+3·ldw, read 32 bytes early so that the lanes
// line up; the lanes below 8 are masked off and never read). DX = ldw
// bytes, BX = 3·ldw bytes; lo masks the k lanes of the low half, hi the
// same lanes of the high half.
#define LOADROWS16(lo, hi) \
	VMOVUPS.Z (R8), lo, Z0; \
	VMOVUPS   -32(R10), hi, Z0; \
	VMOVUPS.Z (R8)(DX*1), lo, Z1; \
	VMOVUPS   -32(R10)(DX*1), hi, Z1; \
	VMOVUPS.Z (R8)(DX*2), lo, Z2; \
	VMOVUPS   -32(R10)(DX*2), hi, Z2; \
	VMOVUPS.Z (R9), lo, Z3; \
	VMOVUPS   -32(R11), hi, Z3; \
	VMOVUPS.Z (R8)(DX*4), lo, Z4; \
	VMOVUPS   -32(R10)(DX*4), hi, Z4; \
	VMOVUPS.Z (R9)(DX*2), lo, Z5; \
	VMOVUPS   -32(R11)(DX*2), hi, Z5; \
	VMOVUPS.Z (R8)(BX*2), lo, Z6; \
	VMOVUPS   -32(R10)(BX*2), hi, Z6; \
	VMOVUPS.Z (R9)(DX*4), lo, Z7; \
	VMOVUPS   -32(R11)(DX*4), hi, Z7

// TRANSPOSE16X8 turns Z0–Z7 as LOADROWS16 leaves them into Z8–Z15, Z8+k
// holding k step k of all sixteen rows, with 8 VUNPCK{L,H}PS, 8 VSHUFPS
// and 8 VSHUFF32X4. The two 8×8 halves transpose side by side, so the
// lanes come out in row-quad order 0–3, 8–11, 4–7, 12–15, which the
// store puts back. Z0–Z7 are clobbered.
#define TRANSPOSE16X8 \
	VUNPCKLPS  Z1, Z0, Z8; \
	VUNPCKHPS  Z1, Z0, Z9; \
	VUNPCKLPS  Z3, Z2, Z10; \
	VUNPCKHPS  Z3, Z2, Z11; \
	VUNPCKLPS  Z5, Z4, Z12; \
	VUNPCKHPS  Z5, Z4, Z13; \
	VUNPCKLPS  Z7, Z6, Z14; \
	VUNPCKHPS  Z7, Z6, Z15; \
	VSHUFPS    $0x44, Z10, Z8, Z0; \
	VSHUFPS    $0xee, Z10, Z8, Z1; \
	VSHUFPS    $0x44, Z11, Z9, Z2; \
	VSHUFPS    $0xee, Z11, Z9, Z3; \
	VSHUFPS    $0x44, Z14, Z12, Z4; \
	VSHUFPS    $0xee, Z14, Z12, Z5; \
	VSHUFPS    $0x44, Z15, Z13, Z6; \
	VSHUFPS    $0xee, Z15, Z13, Z7; \
	VSHUFF32X4 $0x88, Z4, Z0, Z8; \
	VSHUFF32X4 $0x88, Z5, Z1, Z9; \
	VSHUFF32X4 $0x88, Z6, Z2, Z10; \
	VSHUFF32X4 $0x88, Z7, Z3, Z11; \
	VSHUFF32X4 $0xdd, Z4, Z0, Z12; \
	VSHUFF32X4 $0xdd, Z5, Z1, Z13; \
	VSHUFF32X4 $0xdd, Z6, Z2, Z14; \
	VSHUFF32X4 $0xdd, Z7, Z3, Z15

// FMA8PS runs k steps 0–7 of one batch row (x at p) into the
// accumulator c.
#define FMA8PS(p, c) \
	VFMADD231PS.BCST (p), Z8, c; \
	VFMADD231PS.BCST 4(p), Z9, c; \
	VFMADD231PS.BCST 8(p), Z10, c; \
	VFMADD231PS.BCST 12(p), Z11, c; \
	VFMADD231PS.BCST 16(p), Z12, c; \
	VFMADD231PS.BCST 20(p), Z13, c; \
	VFMADD231PS.BCST 24(p), Z14, c; \
	VFMADD231PS.BCST 28(p), Z15, c

// STORE16 puts the accumulator c back in row order and writes it to the
// 16 outputs at p under mask K3: stored on the first panel, added to
// what is there otherwise (R8 holds first).
#define STORE16(c, p) \
	VSHUFF32X4 $0xd8, c, c, c; \
	VMOVUPS.Z  (p), K3, Z0; \
	VADDPS     c, Z0, Z0; \
	TESTQ      R8, R8; \
	JZ         3(PC); \
	VMOVUPS    c, K3, (p); \
	JMP        2(PC); \
	VMOVUPS    Z0, K3, (p)

// func gemv16ps(w *float32, ldw int, x *float32, ldx, nb, kb int, y *float32, ldy, mask int, first bool)
// The float32 transposing matrix-vector kernel (AVX-512F): one group of
// sixteen weight rows (rows ldw elements apart) against nb ≤ 4 batch
// rows of x (ldx apart) over one k panel of kb steps. Each 16×8 block
// is loaded where it lies and transposed in registers, so one lane of
// the step-k register holds one row's weight k; that lane of a batch
// row's accumulator then runs the row's ascending-k fused multiply-add
// chain against x[k] broadcast, every block reused by all nb batch
// rows. The kb%8 tail is loaded under a mask and only its real steps
// are run. Batch row b lands at y+b·ldy under the lane mask.
TEXT ·gemv16ps(SB), NOSPLIT, $0-73
	MOVQ w+0(FP), R8
	MOVQ ldw+8(FP), DX
	SHLQ $2, DX            // row stride in bytes
	LEAQ (DX)(DX*2), BX    // 3 row strides
	LEAQ (R8)(BX*1), R9    // row 3
	LEAQ (R8)(DX*8), R10   // row 8
	LEAQ (R10)(BX*1), R11  // row 11
	MOVQ x+16(FP), SI
	MOVQ ldx+24(FP), R12
	SHLQ $2, R12
	MOVQ nb+32(FP), R13
	MOVQ kb+40(FP), CX
	MOVQ CX, AX
	ANDQ $7, AX            // tail steps
	SHRQ $3, CX            // full 8-step blocks

	VPXORD Z24, Z24, Z24   // batch rows 0–3
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	MOVL   $0xff, DI
	KMOVW  DI, K1          // k lanes of the low half
	MOVL   $0xff00, DI
	KMOVW  DI, K2          // the same lanes of the high half
	TESTQ  CX, CX
	JZ     tailv

blockv:
	LOADROWS16(K1, K2)
	TRANSPOSE16X8
	MOVQ SI, DI
	FMA8PS(DI, Z24)
	CMPQ R13, $1
	JEQ  nextv
	ADDQ R12, DI
	FMA8PS(DI, Z25)
	CMPQ R13, $2
	JEQ  nextv
	ADDQ R12, DI
	FMA8PS(DI, Z26)
	CMPQ R13, $3
	JEQ  nextv
	ADDQ R12, DI
	FMA8PS(DI, Z27)

nextv:
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, SI
	DECQ CX
	JNZ  blockv

tailv:
	TESTQ AX, AX
	JZ    storev
	MOVQ  AX, CX
	MOVL  $1, DI
	SHLL  CX, DI
	DECL  DI
	KMOVW DI, K1           // the tail's k lanes
	SHLL  $8, DI
	KMOVW DI, K2
	LOADROWS16(K1, K2)
	TRANSPOSE16X8

tailstepv:
	// one k step of every batch row, then shift the next step into Z8
	// (a tail has at most 7 steps, so step 7 never needs to move)
	MOVQ SI, DI
	VFMADD231PS.BCST (DI), Z8, Z24
	CMPQ R13, $1
	JEQ  shiftv
	ADDQ R12, DI
	VFMADD231PS.BCST (DI), Z8, Z25
	CMPQ R13, $2
	JEQ  shiftv
	ADDQ R12, DI
	VFMADD231PS.BCST (DI), Z8, Z26
	CMPQ R13, $3
	JEQ  shiftv
	ADDQ R12, DI
	VFMADD231PS.BCST (DI), Z8, Z27

shiftv:
	VMOVAPS Z9, Z8
	VMOVAPS Z10, Z9
	VMOVAPS Z11, Z10
	VMOVAPS Z12, Z11
	VMOVAPS Z13, Z12
	VMOVAPS Z14, Z13
	ADDQ    $4, SI
	DECQ    AX
	JNZ     tailstepv

storev:
	MOVQ    y+48(FP), DI
	MOVQ    ldy+56(FP), DX
	SHLQ    $2, DX
	MOVQ    mask+64(FP), AX
	KMOVW   AX, K3
	MOVBQZX first+72(FP), R8
	STORE16(Z24, DI)
	CMPQ    R13, $1
	JEQ     donev
	ADDQ    DX, DI
	STORE16(Z25, DI)
	CMPQ    R13, $2
	JEQ     donev
	ADDQ    DX, DI
	STORE16(Z26, DI)
	CMPQ    R13, $3
	JEQ     donev
	ADDQ    DX, DI
	STORE16(Z27, DI)

donev:
	VZEROUPPER
	RET

// func gemv8ps(w *float32, ldw, rows int, x *float32, kb int, y *float32, first bool)
// The float32 form of gemv8asm (AVX2+FMA): up to eight weight rows (ldw
// elements apart) against one x over one k panel of kb steps, one scalar
// fused multiply-add chain per row in ascending k, the eight chains
// interleaved. With rows < 8 the pointers of rows rows..7 repeat row
// rows-1, so nothing past it is read; row r's subtotal lands at y+r for
// all eight r.
TEXT ·gemv8ps(SB), NOSPLIT, $0-49
	MOVQ w+0(FP), R8
	MOVQ ldw+8(FP), DX
	SHLQ $2, DX            // row stride in bytes
	MOVQ rows+16(FP), CX
	// row r = row r-1 + ldw while r < rows, else row r-1
	LEAQ    (R8)(DX*1), AX
	MOVQ    R8, R9
	CMPQ    CX, $1
	CMOVQGT AX, R9
	LEAQ    (R9)(DX*1), AX
	MOVQ    R9, R10
	CMPQ    CX, $2
	CMOVQGT AX, R10
	LEAQ    (R10)(DX*1), AX
	MOVQ    R10, R11
	CMPQ    CX, $3
	CMOVQGT AX, R11
	LEAQ    (R11)(DX*1), AX
	MOVQ    R11, R12
	CMPQ    CX, $4
	CMOVQGT AX, R12
	LEAQ    (R12)(DX*1), AX
	MOVQ    R12, R13
	CMPQ    CX, $5
	CMOVQGT AX, R13
	LEAQ    (R13)(DX*1), AX
	MOVQ    R13, BX
	CMPQ    CX, $6
	CMOVQGT AX, BX
	LEAQ    (BX)(DX*1), AX
	MOVQ    BX, DI
	CMPQ    CX, $7
	CMOVQGT AX, DI
	MOVQ    x+24(FP), SI
	MOVQ    kb+32(FP), CX
	XORQ    AX, AX         // byte offset of k step t

	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7

stepps:
	VMOVSS      (SI)(AX*1), X8
	VFMADD231SS (R8)(AX*1), X8, X0
	VFMADD231SS (R9)(AX*1), X8, X1
	VFMADD231SS (R10)(AX*1), X8, X2
	VFMADD231SS (R11)(AX*1), X8, X3
	VFMADD231SS (R12)(AX*1), X8, X4
	VFMADD231SS (R13)(AX*1), X8, X5
	VFMADD231SS (BX)(AX*1), X8, X6
	VFMADD231SS (DI)(AX*1), X8, X7
	ADDQ        $4, AX
	DECQ        CX
	JNZ         stepps

	MOVQ    y+40(FP), DI
	MOVBLZX first+48(FP), AX
	TESTL   AX, AX
	JNZ     put8ps
	VADDSS  (DI), X0, X0
	VADDSS  4(DI), X1, X1
	VADDSS  8(DI), X2, X2
	VADDSS  12(DI), X3, X3
	VADDSS  16(DI), X4, X4
	VADDSS  20(DI), X5, X5
	VADDSS  24(DI), X6, X6
	VADDSS  28(DI), X7, X7

put8ps:
	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	VMOVSS X4, 16(DI)
	VMOVSS X5, 20(DI)
	VMOVSS X6, 24(DI)
	VMOVSS X7, 28(DI)
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

// func pool2ReLUps(out, r0, r1 *float32, quads int, b float32)
// Per group of four outputs: rows r0 and r1 of 8 products each get the
// bias added and are clamped, v > 0 ? v : +0 (NaN becomes +0, as in
// nn.ReLU), and each output takes the first-wins maximum of its 2×2
// window in MaxPool2D's order r0[2i], r0[2i+1], r1[2i], r1[2i+1]. MAXPS
// returns its second source unless the first is greater, which is both
// the clamp and the first-wins compare.
TEXT ·pool2ReLUps(SB), NOSPLIT, $0-36
	MOVQ         out+0(FP), DI
	MOVQ         r0+8(FP), SI
	MOVQ         r1+16(FP), DX
	MOVQ         quads+24(FP), CX
	VBROADCASTSS b+32(FP), Y15
	VXORPS       Y14, Y14, Y14

poolps:
	VADDPS       (SI), Y15, Y0     // r0[0:8] + b
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
	VMOVUPS      X4, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $16, DI
	DECQ         CX
	JNZ          poolps
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
