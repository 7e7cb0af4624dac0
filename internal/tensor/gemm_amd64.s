// AVX2+FMA3 micro-kernel for the packed GEMM core (see gemm.go), and the
// row kernels of the unpacked path in two tiers: AVX2 ymm and, further
// down, their 8-lane AVX-512F zmm twins. The micro-kernel's 8×4 accumulator
// tile lives in Y0-Y7 (one ymm of 4 column lanes per row); each K step loads
// one packed B vector and issues 8 broadcast+FMA pairs. VFMADD231PD lanes
// compute the same correctly-rounded IEEE fused multiply-add as math.FMA,
// on ymm and zmm alike, so every kernel here is bitwise-identical to the
// portable Go kernels.

//go:build amd64

#include "textflag.h"

// func gemmMicroAsm(c *float64, ldc int, ap, bp *float64, kc int, load bool, bias *float64)
TEXT ·gemmMicroAsm(SB), NOSPLIT, $0-56
	MOVQ    c+0(FP), DI
	MOVQ    ldc+8(FP), SI
	MOVQ    ap+16(FP), AX
	MOVQ    bp+24(FP), BX
	MOVQ    kc+32(FP), CX
	SHLQ    $3, SI            // ldc in bytes
	MOVBLZX load+40(FP), DX
	TESTL   DX, DX
	JZ      zero

	// Accumulators resume from the values parked in dst.
	MOVQ    DI, R9
	VMOVUPD (R9), Y0
	ADDQ    SI, R9
	VMOVUPD (R9), Y1
	ADDQ    SI, R9
	VMOVUPD (R9), Y2
	ADDQ    SI, R9
	VMOVUPD (R9), Y3
	ADDQ    SI, R9
	VMOVUPD (R9), Y4
	ADDQ    SI, R9
	VMOVUPD (R9), Y5
	ADDQ    SI, R9
	VMOVUPD (R9), Y6
	ADDQ    SI, R9
	VMOVUPD (R9), Y7
	JMP     loop

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (BX), Y8      // B[p, 0:4]
	VBROADCASTSD (AX), Y9      // A[row 0, p]
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD 8(AX), Y9
	VFMADD231PD  Y8, Y9, Y1
	VBROADCASTSD 16(AX), Y9
	VFMADD231PD  Y8, Y9, Y2
	VBROADCASTSD 24(AX), Y9
	VFMADD231PD  Y8, Y9, Y3
	VBROADCASTSD 32(AX), Y9
	VFMADD231PD  Y8, Y9, Y4
	VBROADCASTSD 40(AX), Y9
	VFMADD231PD  Y8, Y9, Y5
	VBROADCASTSD 48(AX), Y9
	VFMADD231PD  Y8, Y9, Y6
	VBROADCASTSD 56(AX), Y9
	VFMADD231PD  Y8, Y9, Y7
	ADDQ         $64, AX       // next packed A step (gemmMR doubles)
	ADDQ         $32, BX       // next packed B step (gemmNR doubles)
	DECQ         CX
	JNZ          loop

	// Bias epilogue: add the tile's four bias columns to every row.
	MOVQ    bias+48(FP), R10
	TESTQ   R10, R10
	JZ      store
	VMOVUPD (R10), Y8
	VADDPD  Y8, Y0, Y0
	VADDPD  Y8, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y8, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y8, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y8, Y7, Y7

store:
	MOVQ    DI, R9
	VMOVUPD Y0, (R9)
	ADDQ    SI, R9
	VMOVUPD Y1, (R9)
	ADDQ    SI, R9
	VMOVUPD Y2, (R9)
	ADDQ    SI, R9
	VMOVUPD Y3, (R9)
	ADDQ    SI, R9
	VMOVUPD Y4, (R9)
	ADDQ    SI, R9
	VMOVUPD Y5, (R9)
	ADDQ    SI, R9
	VMOVUPD Y6, (R9)
	ADDQ    SI, R9
	VMOVUPD Y7, (R9)
	VZEROUPPER
	RET

// func gemmCPUID(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·gemmCPUID(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func gemmXGETBV() (eax, edx uint32)
TEXT ·gemmXGETBV(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64)
//
// s[j] = fma-chain over p ascending of a[p*as]*b[p*bs+j], from zero, for
// j in [0, n); then dst[j] = s[j], or dst[j] += s[j] with acc set (one add
// of the finished sum), or dst[j] = s[j] + bias[j] with a non-nil bias (acc
// unset). Lanes run across output columns, so every element keeps its own
// scalar ascending-k chain; VFMADD231PD/SD are the same correctly-rounded
// operation as math.FMA. Strides arrive in elements and are scaled to
// bytes. The bias of the chunk at DI is at bias + (DI - dst).
TEXT ·gemmRowFMAAsm(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ as+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ bs+32(FP), DX
	MOVQ k+40(FP), CX
	MOVQ n+48(FP), R8
	SHLQ $3, AX               // a stride in bytes
	SHLQ $3, DX               // b row stride in bytes

chunk16:
	CMPQ   R8, $16
	JLT    chunk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9             // a cursor
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store16

loop16:
	VBROADCASTSD (R9), Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1
	VFMADD231PD  64(R10), Y4, Y2
	VFMADD231PD  96(R10), Y4, Y3
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          loop16

store16:
	CMPB    acc+56(FP), $0
	JNE     acc16
	MOVQ    bias+64(FP), R9
	TESTQ   R9, R9
	JZ      put16
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	VADDPD  (R9)(R10*1), Y0, Y0
	VADDPD  32(R9)(R10*1), Y1, Y1
	VADDPD  64(R9)(R10*1), Y2, Y2
	VADDPD  96(R9)(R10*1), Y3, Y3
	JMP     put16

acc16:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3

put16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, R8
	JMP     chunk16

chunk4:
	CMPQ   R8, $4
	JLT    scalar
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store4

loop4:
	VBROADCASTSD (R9), Y4
	VFMADD231PD  (R10), Y4, Y0
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          loop4

store4:
	CMPB    acc+56(FP), $0
	JNE     acc4
	MOVQ    bias+64(FP), R9
	TESTQ   R9, R9
	JZ      put4
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	VADDPD  (R9)(R10*1), Y0, Y0
	JMP     put4

acc4:
	VADDPD  (DI), Y0, Y0

put4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $4, R8
	JMP     chunk4

scalar:
	TESTQ  R8, R8
	JZ     rowdone
	VXORPD X0, X0, X0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store1

loop1:
	VMOVSD      (R9), X4
	VMOVSD      (R10), X5
	VFMADD231SD X5, X4, X0
	ADDQ        AX, R9
	ADDQ        DX, R10
	DECQ        R11
	JNZ         loop1

store1:
	CMPB   acc+56(FP), $0
	JNE    acc1
	MOVQ   bias+64(FP), R9
	TESTQ  R9, R9
	JZ     put1
	MOVQ   DI, R10
	SUBQ   dst+0(FP), R10
	VADDSD (R9)(R10*1), X0, X0
	JMP    put1

acc1:
	VADDSD (DI), X0, X0

put1:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   R8
	JMP    scalar

rowdone:
	VZEROUPPER
	RET

// func gemmRow2FMAAsm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64)
//
// Two output rows of gemmRowFMAAsm in one pass: for r in {0, 1}, the
// from-zero fma-chain over p ascending of a[r*ars+p*as]*b[p*bs+j] is stored
// to dst[r*ldd+j] (or, with acc set, added to it once, or with a non-nil
// bias stored plus bias[j]), for j in [0, n).
// Each B vector is loaded once and feeds both rows,
// and a 16-column chunk carries 8 independent ymm chains (Y0-Y3 row 0, Y4-Y7
// row 1) where the one-row kernel carries 4. Every element still runs its
// own scalar ascending-k chain, so the result is exactly two gemmRowFMAAsm
// calls. Strides arrive in elements and are scaled to bytes.
TEXT ·gemmRow2FMAAsm(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R12
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R13
	MOVQ as+32(FP), AX
	MOVQ b+40(FP), BX
	MOVQ bs+48(FP), DX
	MOVQ k+56(FP), CX
	MOVQ n+64(FP), R8
	SHLQ $3, R12              // dst row-to-row stride in bytes
	SHLQ $3, R13              // a row-to-row stride in bytes
	SHLQ $3, AX               // a step stride in bytes
	SHLQ $3, DX               // b row stride in bytes

r2chunk16:
	CMPQ   R8, $16
	JLT    r2chunk8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R9             // a cursor (row 0; row 1 at +R13)
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     r2store16

r2loop16:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VMOVUPD      64(R10), Y10
	VMOVUPD      96(R10), Y11
	VBROADCASTSD (R9), Y12
	VBROADCASTSD (R9)(R13*1), Y13
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y10, Y12, Y2
	VFMADD231PD  Y11, Y12, Y3
	VFMADD231PD  Y8, Y13, Y4
	VFMADD231PD  Y9, Y13, Y5
	VFMADD231PD  Y10, Y13, Y6
	VFMADD231PD  Y11, Y13, Y7
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          r2loop16

r2store16:
	CMPB    acc+72(FP), $0
	JNE     r2acc16
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      r2put16
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Y0, Y0
	VADDPD  32(R9), Y1, Y1
	VADDPD  64(R9), Y2, Y2
	VADDPD  96(R9), Y3, Y3
	VADDPD  (R9), Y4, Y4
	VADDPD  32(R9), Y5, Y5
	VADDPD  64(R9), Y6, Y6
	VADDPD  96(R9), Y7, Y7
	JMP     r2put16

r2acc16:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VADDPD  (DI)(R12*1), Y4, Y4
	VADDPD  32(DI)(R12*1), Y5, Y5
	VADDPD  64(DI)(R12*1), Y6, Y6
	VADDPD  96(DI)(R12*1), Y7, Y7

r2put16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R12*1)
	VMOVUPD Y5, 32(DI)(R12*1)
	VMOVUPD Y6, 64(DI)(R12*1)
	VMOVUPD Y7, 96(DI)(R12*1)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, R8
	JMP     r2chunk16

r2chunk8:
	CMPQ   R8, $8
	JLT    r2chunk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     r2store8

r2loop8:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R9), Y12
	VBROADCASTSD (R9)(R13*1), Y13
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y8, Y13, Y4
	VFMADD231PD  Y9, Y13, Y5
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          r2loop8

r2store8:
	CMPB    acc+72(FP), $0
	JNE     r2acc8
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      r2put8
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Y0, Y0
	VADDPD  32(R9), Y1, Y1
	VADDPD  (R9), Y4, Y4
	VADDPD  32(R9), Y5, Y5
	JMP     r2put8

r2acc8:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  (DI)(R12*1), Y4, Y4
	VADDPD  32(DI)(R12*1), Y5, Y5

r2put8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y4, (DI)(R12*1)
	VMOVUPD Y5, 32(DI)(R12*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, R8

r2chunk4:
	CMPQ   R8, $4
	JLT    r2scalar
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     r2store4

r2loop4:
	VMOVUPD      (R10), Y8
	VBROADCASTSD (R9), Y12
	VBROADCASTSD (R9)(R13*1), Y13
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y8, Y13, Y4
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          r2loop4

r2store4:
	CMPB    acc+72(FP), $0
	JNE     r2acc4
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      r2put4
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Y0, Y0
	VADDPD  (R9), Y4, Y4
	JMP     r2put4

r2acc4:
	VADDPD  (DI), Y0, Y0
	VADDPD  (DI)(R12*1), Y4, Y4

r2put4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (DI)(R12*1)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $4, R8

r2scalar:
	TESTQ  R8, R8
	JZ     r2done
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     r2store1

r2loop1:
	VMOVSD      (R10), X8
	VMOVSD      (R9), X12
	VMOVSD      (R9)(R13*1), X13
	VFMADD231SD X8, X12, X0
	VFMADD231SD X8, X13, X4
	ADDQ        AX, R9
	ADDQ        DX, R10
	DECQ        R11
	JNZ         r2loop1

r2store1:
	CMPB   acc+72(FP), $0
	JNE    r2acc1
	MOVQ   bias+80(FP), R9
	TESTQ  R9, R9
	JZ     r2put1
	MOVQ   DI, R10
	SUBQ   dst+0(FP), R10
	ADDQ   R10, R9
	VADDSD (R9), X0, X0
	VADDSD (R9), X4, X4
	JMP    r2put1

r2acc1:
	VADDSD (DI), X0, X0
	VADDSD (DI)(R12*1), X4, X4

r2put1:
	VMOVSD X0, (DI)
	VMOVSD X4, (DI)(R12*1)
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   R8
	JMP    r2scalar

r2done:
	VZEROUPPER
	RET

// func gemmRowFMA512Asm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64)
//
// The 8-lane twin of gemmRowFMAAsm: the same row, the same per-element
// ascending-k chain and the same epilogues, with zmm accumulators. Column
// chunks of 32 and 8 run unmasked; the last n mod 8 columns run as one
// chunk under the K1 lane mask, whose loads read zeros in the masked-off
// lanes and whose store leaves them untouched.
TEXT ·gemmRowFMA512Asm(SB), NOSPLIT, $0-72
	MOVQ  n+48(FP), CX
	ANDQ  $7, CX
	MOVL  $1, R11
	SHLL  CX, R11
	DECL  R11
	KMOVW R11, K1             // tail mask: the last n mod 8 columns
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  as+16(FP), AX
	MOVQ  b+24(FP), BX
	MOVQ  bs+32(FP), DX
	MOVQ  k+40(FP), CX
	MOVQ  n+48(FP), R8
	SHLQ  $3, AX              // a stride in bytes
	SHLQ  $3, DX              // b row stride in bytes


z1chunk32:
	CMPQ   R8, $32
	JLT    z1chunk8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R9             // a cursor
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z1store32

z1loop32:
	VBROADCASTSD (R9), Z4
	VFMADD231PD  (R10), Z4, Z0
	VFMADD231PD  64(R10), Z4, Z1
	VFMADD231PD  128(R10), Z4, Z2
	VFMADD231PD  192(R10), Z4, Z3
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z1loop32

z1store32:
	CMPB    acc+56(FP), $0
	JNE     z1acc32
	MOVQ    bias+64(FP), R9
	TESTQ   R9, R9
	JZ      z1put32
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	VADDPD  (R9)(R10*1), Z0, Z0
	VADDPD  64(R9)(R10*1), Z1, Z1
	VADDPD  128(R9)(R10*1), Z2, Z2
	VADDPD  192(R9)(R10*1), Z3, Z3
	JMP     z1put32

z1acc32:
	VADDPD  (DI), Z0, Z0
	VADDPD  64(DI), Z1, Z1
	VADDPD  128(DI), Z2, Z2
	VADDPD  192(DI), Z3, Z3

z1put32:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $32, R8
	JMP     z1chunk32

z1chunk8:
	CMPQ   R8, $8
	JLT    z1tail
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R9             // a cursor
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z1store8

z1loop8:
	VBROADCASTSD (R9), Z4
	VFMADD231PD  (R10), Z4, Z0
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z1loop8

z1store8:
	CMPB    acc+56(FP), $0
	JNE     z1acc8
	MOVQ    bias+64(FP), R9
	TESTQ   R9, R9
	JZ      z1put8
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	VADDPD  (R9)(R10*1), Z0, Z0
	JMP     z1put8

z1acc8:
	VADDPD  (DI), Z0, Z0

z1put8:
	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, R8
	JMP     z1chunk8

z1tail:
	TESTQ  R8, R8
	JZ     z1done
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z1storet

z1loopt:
	VBROADCASTSD (R9), Z4
	VMOVUPD.Z    (R10), K1, Z5
	VFMADD231PD  Z5, Z4, Z0
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z1loopt

z1storet:
	CMPB      acc+56(FP), $0
	JNE       z1acct
	MOVQ      bias+64(FP), R9
	TESTQ     R9, R9
	JZ        z1putt
	MOVQ      DI, R10
	SUBQ      dst+0(FP), R10
	VMOVUPD.Z (R9)(R10*1), K1, Z5
	VADDPD    Z5, Z0, Z0
	JMP       z1putt

z1acct:
	VMOVUPD.Z (DI), K1, Z5
	VADDPD    Z5, Z0, Z0

z1putt:
	VMOVUPD Z0, K1, (DI)

z1done:
	VZEROUPPER
	RET

// func gemmRow2FMA512Asm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64)
//
// The 8-lane twin of gemmRow2FMAAsm. A 32-column chunk carries 8
// independent zmm chains (Z0-Z3 row 0, Z4-Z7 row 1), each B vector feeding
// both rows; chunks of 16 and 8 follow, and the last n mod 8 columns run
// under the K1 lane mask as in gemmRowFMA512Asm.
TEXT ·gemmRow2FMA512Asm(SB), NOSPLIT, $0-88
	MOVQ  n+64(FP), CX
	ANDQ  $7, CX
	MOVL  $1, R11
	SHLL  CX, R11
	DECL  R11
	KMOVW R11, K1             // tail mask: the last n mod 8 columns
	MOVQ  dst+0(FP), DI
	MOVQ  ldd+8(FP), R12
	MOVQ  a+16(FP), SI
	MOVQ  ars+24(FP), R13
	MOVQ  as+32(FP), AX
	MOVQ  b+40(FP), BX
	MOVQ  bs+48(FP), DX
	MOVQ  k+56(FP), CX
	MOVQ  n+64(FP), R8
	SHLQ  $3, R12             // dst row-to-row stride in bytes
	SHLQ  $3, R13             // a row-to-row stride in bytes
	SHLQ  $3, AX              // a step stride in bytes
	SHLQ  $3, DX              // b row stride in bytes


z2chunk32:
	CMPQ   R8, $32
	JLT    z2chunk16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   SI, R9             // a cursor (row 0; row 1 at +R13)
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z2store32

z2loop32:
	VMOVUPD      (R10), Z8
	VMOVUPD      64(R10), Z9
	VMOVUPD      128(R10), Z10
	VMOVUPD      192(R10), Z11
	VBROADCASTSD (R9), Z12
	VBROADCASTSD (R9)(R13*1), Z13
	VFMADD231PD  Z8, Z12, Z0
	VFMADD231PD  Z9, Z12, Z1
	VFMADD231PD  Z10, Z12, Z2
	VFMADD231PD  Z11, Z12, Z3
	VFMADD231PD  Z8, Z13, Z4
	VFMADD231PD  Z9, Z13, Z5
	VFMADD231PD  Z10, Z13, Z6
	VFMADD231PD  Z11, Z13, Z7
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z2loop32

z2store32:
	CMPB    acc+72(FP), $0
	JNE     z2acc32
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      z2put32
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Z0, Z0
	VADDPD  64(R9), Z1, Z1
	VADDPD  128(R9), Z2, Z2
	VADDPD  192(R9), Z3, Z3
	VADDPD  (R9), Z4, Z4
	VADDPD  64(R9), Z5, Z5
	VADDPD  128(R9), Z6, Z6
	VADDPD  192(R9), Z7, Z7
	JMP     z2put32

z2acc32:
	VADDPD  (DI), Z0, Z0
	VADDPD  64(DI), Z1, Z1
	VADDPD  128(DI), Z2, Z2
	VADDPD  192(DI), Z3, Z3
	VADDPD  (DI)(R12*1), Z4, Z4
	VADDPD  64(DI)(R12*1), Z5, Z5
	VADDPD  128(DI)(R12*1), Z6, Z6
	VADDPD  192(DI)(R12*1), Z7, Z7

z2put32:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, (DI)(R12*1)
	VMOVUPD Z5, 64(DI)(R12*1)
	VMOVUPD Z6, 128(DI)(R12*1)
	VMOVUPD Z7, 192(DI)(R12*1)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $32, R8
	JMP     z2chunk32

z2chunk16:
	CMPQ   R8, $16
	JLT    z2chunk8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	MOVQ   SI, R9             // a cursor (row 0; row 1 at +R13)
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z2store16

z2loop16:
	VMOVUPD      (R10), Z8
	VMOVUPD      64(R10), Z9
	VBROADCASTSD (R9), Z12
	VBROADCASTSD (R9)(R13*1), Z13
	VFMADD231PD  Z8, Z12, Z0
	VFMADD231PD  Z9, Z12, Z1
	VFMADD231PD  Z8, Z13, Z4
	VFMADD231PD  Z9, Z13, Z5
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z2loop16

z2store16:
	CMPB    acc+72(FP), $0
	JNE     z2acc16
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      z2put16
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Z0, Z0
	VADDPD  64(R9), Z1, Z1
	VADDPD  (R9), Z4, Z4
	VADDPD  64(R9), Z5, Z5
	JMP     z2put16

z2acc16:
	VADDPD  (DI), Z0, Z0
	VADDPD  64(DI), Z1, Z1
	VADDPD  (DI)(R12*1), Z4, Z4
	VADDPD  64(DI)(R12*1), Z5, Z5

z2put16:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z4, (DI)(R12*1)
	VMOVUPD Z5, 64(DI)(R12*1)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, R8

z2chunk8:
	CMPQ   R8, $8
	JLT    z2tail
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	MOVQ   SI, R9             // a cursor (row 0; row 1 at +R13)
	MOVQ   BX, R10            // b cursor at this column offset
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z2store8

z2loop8:
	VMOVUPD      (R10), Z8
	VBROADCASTSD (R9), Z12
	VBROADCASTSD (R9)(R13*1), Z13
	VFMADD231PD  Z8, Z12, Z0
	VFMADD231PD  Z8, Z13, Z4
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z2loop8

z2store8:
	CMPB    acc+72(FP), $0
	JNE     z2acc8
	MOVQ    bias+80(FP), R9
	TESTQ   R9, R9
	JZ      z2put8
	MOVQ    DI, R10
	SUBQ    dst+0(FP), R10
	ADDQ    R10, R9
	VADDPD  (R9), Z0, Z0
	VADDPD  (R9), Z4, Z4
	JMP     z2put8

z2acc8:
	VADDPD  (DI), Z0, Z0
	VADDPD  (DI)(R12*1), Z4, Z4

z2put8:
	VMOVUPD Z0, (DI)
	VMOVUPD Z4, (DI)(R12*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, R8

z2tail:
	TESTQ  R8, R8
	JZ     z2done
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     z2storet

z2loopt:
	VMOVUPD.Z    (R10), K1, Z8
	VBROADCASTSD (R9), Z12
	VBROADCASTSD (R9)(R13*1), Z13
	VFMADD231PD  Z8, Z12, Z0
	VFMADD231PD  Z8, Z13, Z4
	ADDQ         AX, R9
	ADDQ         DX, R10
	DECQ         R11
	JNZ          z2loopt

z2storet:
	CMPB      acc+72(FP), $0
	JNE       z2acct
	MOVQ      bias+80(FP), R9
	TESTQ     R9, R9
	JZ        z2putt
	MOVQ      DI, R10
	SUBQ      dst+0(FP), R10
	VMOVUPD.Z (R9)(R10*1), K1, Z9
	VADDPD    Z9, Z0, Z0
	VADDPD    Z9, Z4, Z4
	JMP       z2putt

z2acct:
	VMOVUPD.Z (DI), K1, Z9
	VADDPD    Z9, Z0, Z0
	VMOVUPD.Z (DI)(R12*1), K1, Z9
	VADDPD    Z9, Z4, Z4

z2putt:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z4, K1, (DI)(R12*1)

z2done:
	VZEROUPPER
	RET
