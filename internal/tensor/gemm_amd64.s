// AVX2+FMA3 micro-kernel for the packed GEMM core (see gemm.go). The 8×4
// accumulator tile lives in Y0-Y7 (one ymm of 4 column lanes per row); each
// K step loads one packed B vector and issues 8 broadcast+FMA pairs.
// VFMADD231PD lanes compute the same correctly-rounded IEEE fused
// multiply-add as math.FMA, so this kernel is bitwise-identical to the
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

// func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int)
//
// dst[j] = fma-chain over p ascending of a[p*as]*b[p*bs+j], from zero, for
// j in [0, n). Lanes run across output columns, so every element keeps its
// own scalar ascending-k chain; VFMADD231PD/SD are the same correctly-rounded
// operation as math.FMA. Strides arrive in elements and are scaled to bytes.
TEXT ·gemmRowFMAAsm(SB), NOSPLIT, $0-56
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
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   R8
	JMP    scalar

rowdone:
	VZEROUPPER
	RET

// func gemmDotFMAAsm(a *float64, as int, b *float64, bs int, k int) float64
//
// The strided scalar FMA chain: s = 0; s = fma(a[p*as], b[p*bs], s) for p
// ascending. Used per output element when B's columns are not unit-stride.
TEXT ·gemmDotFMAAsm(SB), NOSPLIT, $0-48
	MOVQ   a+0(FP), SI
	MOVQ   as+8(FP), AX
	MOVQ   b+16(FP), BX
	MOVQ   bs+24(FP), DX
	MOVQ   k+32(FP), CX
	SHLQ   $3, AX
	SHLQ   $3, DX
	VXORPD X0, X0, X0
	TESTQ  CX, CX
	JZ     dotdone

dotloop:
	VMOVSD      (SI), X1
	VMOVSD      (BX), X2
	VFMADD231SD X2, X1, X0
	ADDQ        AX, SI
	ADDQ        DX, BX
	DECQ        CX
	JNZ         dotloop

dotdone:
	VMOVSD X0, ret+40(FP)
	RET

// func gemmDot4FMAAsm(dst, a *float64, as int, b *float64, bs, brs int, k int)
//
// Four strided scalar FMA-chain dot products at once: for i in [0, 4),
// dst[i] = fma-chain over p ascending of a[p*as]*b[i*brs+p*bs], from zero.
// Each chain runs in its own xmm accumulator — the per-chain instruction
// sequence (and so the result) is exactly gemmDotFMAAsm's; interleaving four
// independent chains merely fills the FMA pipeline, which a lone
// serially-dependent chain leaves three-quarters idle.
TEXT ·gemmDot4FMAAsm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ as+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ bs+32(FP), DX
	MOVQ brs+40(FP), R8
	MOVQ k+48(FP), CX
	SHLQ $3, AX               // a stride in bytes
	SHLQ $3, DX               // b within-chain stride in bytes
	SHLQ $3, R8               // b chain-to-chain stride in bytes
	MOVQ BX, R9               // chain 0 cursor
	LEAQ (BX)(R8*1), R10      // chain 1 cursor
	LEAQ (R10)(R8*1), R11     // chain 2 cursor
	LEAQ (R11)(R8*1), R12     // chain 3 cursor
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	TESTQ  CX, CX
	JZ     dot4done

dot4loop:
	VMOVSD      (SI), X4
	VMOVSD      (R9), X5
	VFMADD231SD X5, X4, X0
	VMOVSD      (R10), X6
	VFMADD231SD X6, X4, X1
	VMOVSD      (R11), X7
	VFMADD231SD X7, X4, X2
	VMOVSD      (R12), X8
	VFMADD231SD X8, X4, X3
	ADDQ        AX, SI
	ADDQ        DX, R9
	ADDQ        DX, R10
	ADDQ        DX, R11
	ADDQ        DX, R12
	DECQ        CX
	JNZ         dot4loop

dot4done:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	RET
