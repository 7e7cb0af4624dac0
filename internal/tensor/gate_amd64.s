// AVX2 gate kernels: exp, sigmoid and tanh over float64 slices, four lanes
// at a time (see gate.go). Each lane runs the instruction sequence of the
// FMA path of Go's math.Exp (math/exp_amd64.s, label avxfma) with the
// scalar SD instructions replaced by their PD forms:
//
//	k  = cvt(x·LOG2E)                       round to nearest even, int32
//	r  = x − k·LN2U − k·LN2L                two fused negated multiply-adds
//	r *= 1/16
//	p  = Horner(r; 1/8!, …, 1/3!, 1/2, 1)   seven VFMADD213
//	y  = r·p
//	y  = y·(y+2)                            three times
//	y  = y·(y+2) + 1                        one fused multiply-add
//	exp = y · 2^k                           exponent bits built with VPSLLQ
//
// Every step is the same correctly-rounded IEEE operation the scalar code
// performs, so a lane is bitwise equal to math.Exp. The scalar code leaves
// this straight line for non-finite input, overflow, and denormal or
// infinite results; those are exactly the lanes whose k lies outside
// [-1022, 1023] (NaN and ±Inf convert to the int32 indefinite value), so the
// kernels flag them in the returned bitmask, store the input unchanged, and
// leave them to the caller's scalar fallback.
//
// Only VEX-encoded instructions appear after the first ymm write, and every
// function ends with VZEROUPPER: a legacy-SSE instruction on dirty upper
// ymm state costs a state transition per call.

//go:build amd64

#include "textflag.h"

// +0: LOG2E
DATA gateconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA gateconst<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA gateconst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA gateconst<>+24(SB)/8, $1.4426950408889634073599246810018920
// +32: LN2U
DATA gateconst<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA gateconst<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA gateconst<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA gateconst<>+56(SB)/8, $0.69314718055966295651160180568695068359375
// +64: LN2L
DATA gateconst<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA gateconst<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA gateconst<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA gateconst<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
// +96: argument reduction scale 1/16
DATA gateconst<>+96(SB)/8, $0.0625
DATA gateconst<>+104(SB)/8, $0.0625
DATA gateconst<>+112(SB)/8, $0.0625
DATA gateconst<>+120(SB)/8, $0.0625
// +128: Taylor coefficient 1/8!
DATA gateconst<>+128(SB)/8, $2.4801587301587301587e-5
DATA gateconst<>+136(SB)/8, $2.4801587301587301587e-5
DATA gateconst<>+144(SB)/8, $2.4801587301587301587e-5
DATA gateconst<>+152(SB)/8, $2.4801587301587301587e-5
// +160: Taylor coefficient 1/7!
DATA gateconst<>+160(SB)/8, $1.9841269841269841270e-4
DATA gateconst<>+168(SB)/8, $1.9841269841269841270e-4
DATA gateconst<>+176(SB)/8, $1.9841269841269841270e-4
DATA gateconst<>+184(SB)/8, $1.9841269841269841270e-4
// +192: Taylor coefficient 1/6!
DATA gateconst<>+192(SB)/8, $1.3888888888888888889e-3
DATA gateconst<>+200(SB)/8, $1.3888888888888888889e-3
DATA gateconst<>+208(SB)/8, $1.3888888888888888889e-3
DATA gateconst<>+216(SB)/8, $1.3888888888888888889e-3
// +224: Taylor coefficient 1/5!
DATA gateconst<>+224(SB)/8, $8.3333333333333333333e-3
DATA gateconst<>+232(SB)/8, $8.3333333333333333333e-3
DATA gateconst<>+240(SB)/8, $8.3333333333333333333e-3
DATA gateconst<>+248(SB)/8, $8.3333333333333333333e-3
// +256: Taylor coefficient 1/4!
DATA gateconst<>+256(SB)/8, $4.1666666666666666667e-2
DATA gateconst<>+264(SB)/8, $4.1666666666666666667e-2
DATA gateconst<>+272(SB)/8, $4.1666666666666666667e-2
DATA gateconst<>+280(SB)/8, $4.1666666666666666667e-2
// +288: Taylor coefficient 1/3!
DATA gateconst<>+288(SB)/8, $1.6666666666666666667e-1
DATA gateconst<>+296(SB)/8, $1.6666666666666666667e-1
DATA gateconst<>+304(SB)/8, $1.6666666666666666667e-1
DATA gateconst<>+312(SB)/8, $1.6666666666666666667e-1
// +320: 0.5
DATA gateconst<>+320(SB)/8, $0.5
DATA gateconst<>+328(SB)/8, $0.5
DATA gateconst<>+336(SB)/8, $0.5
DATA gateconst<>+344(SB)/8, $0.5
// +352: 1.0
DATA gateconst<>+352(SB)/8, $1.0
DATA gateconst<>+360(SB)/8, $1.0
DATA gateconst<>+368(SB)/8, $1.0
DATA gateconst<>+376(SB)/8, $1.0
// +384: 2.0
DATA gateconst<>+384(SB)/8, $2.0
DATA gateconst<>+392(SB)/8, $2.0
DATA gateconst<>+400(SB)/8, $2.0
DATA gateconst<>+408(SB)/8, $2.0
// +416: lowest exponent k of a normal result
DATA gateconst<>+416(SB)/8, $-1022.0
DATA gateconst<>+424(SB)/8, $-1022.0
DATA gateconst<>+432(SB)/8, $-1022.0
DATA gateconst<>+440(SB)/8, $-1022.0
// +448: highest exponent k of a finite result
DATA gateconst<>+448(SB)/8, $1023.0
DATA gateconst<>+456(SB)/8, $1023.0
DATA gateconst<>+464(SB)/8, $1023.0
DATA gateconst<>+472(SB)/8, $1023.0
// +480: IEEE exponent bias (int64 lanes)
DATA gateconst<>+480(SB)/8, $0x3ff
DATA gateconst<>+488(SB)/8, $0x3ff
DATA gateconst<>+496(SB)/8, $0x3ff
DATA gateconst<>+504(SB)/8, $0x3ff
// +512: sign bit
DATA gateconst<>+512(SB)/8, $0x8000000000000000
DATA gateconst<>+520(SB)/8, $0x8000000000000000
DATA gateconst<>+528(SB)/8, $0x8000000000000000
DATA gateconst<>+536(SB)/8, $0x8000000000000000
// +544: magnitude mask
DATA gateconst<>+544(SB)/8, $0x7fffffffffffffff
DATA gateconst<>+552(SB)/8, $0x7fffffffffffffff
DATA gateconst<>+560(SB)/8, $0x7fffffffffffffff
DATA gateconst<>+568(SB)/8, $0x7fffffffffffffff
// +576: tanh exp-branch lower edge
DATA gateconst<>+576(SB)/8, $0.625
DATA gateconst<>+584(SB)/8, $0.625
DATA gateconst<>+592(SB)/8, $0.625
DATA gateconst<>+600(SB)/8, $0.625
// +608: tanh exp-branch upper edge 0.5*MAXLOG
DATA gateconst<>+608(SB)/8, $0x404601e678fc457b
DATA gateconst<>+616(SB)/8, $0x404601e678fc457b
DATA gateconst<>+624(SB)/8, $0x404601e678fc457b
DATA gateconst<>+632(SB)/8, $0x404601e678fc457b
GLOBL gateconst<>(SB), RODATA, $640

// GATEEXP: in Y0 = x. Out Y0 = exp(x) on lanes with k in [-1022, 1023] and
// Y6 = all-ones on the other lanes. Clobbers Y1, Y2, Y3.
#define GATEEXP \
	VMULPD       gateconst<>+0(SB), Y0, Y1 \
	VCVTPD2DQY   Y1, X2 \
	VCVTDQ2PD    X2, Y1 \
	VCMPPD       $0x11, gateconst<>+416(SB), Y1, Y6 \
	VCMPPD       $0x1e, gateconst<>+448(SB), Y1, Y3 \
	VORPD        Y3, Y6, Y6 \
	VFNMADD231PD gateconst<>+32(SB), Y1, Y0 \
	VFNMADD231PD gateconst<>+64(SB), Y1, Y0 \
	VMULPD       gateconst<>+96(SB), Y0, Y0 \
	VMOVUPD      gateconst<>+128(SB), Y1 \
	VFMADD213PD  gateconst<>+160(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+192(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+224(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+256(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+288(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+320(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+352(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       gateconst<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       gateconst<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       gateconst<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       gateconst<>+384(SB), Y0, Y1 \
	VFMADD213PD  gateconst<>+352(SB), Y1, Y0 \
	VPMOVSXDQ    X2, Y2 \
	VPADDQ       gateconst<>+480(SB), Y2, Y2 \
	VPSLLQ       $52, Y2, Y2 \
	VMULPD       Y2, Y0, Y0

// func gateExpAsm(dst, src *float64, n int) uint64
TEXT ·gateExpAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	XORQ R8, R8               // flagged-lane bitmask
	XORQ CX, CX               // bit position of the current chunk

exploop:
	VMOVUPD (SI), Y7          // x
	VMOVAPD Y7, Y0
	GATEEXP
	VBLENDVPD Y6, Y7, Y0, Y0  // flagged lanes keep x
	VMOVUPD   Y0, (DI)
	VMOVMSKPD Y6, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $4, CX
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, DX
	JNZ       exploop

	VZEROUPPER
	MOVQ R8, ret+24(FP)
	RET

// func gateSigmoidAsm(dst, src *float64, n int) uint64
//
// dst = 1/(1+exp(-x)): one VADDPD and one VDIVPD after the exp lanes, the
// same two correctly-rounded operations as the scalar expression.
TEXT ·gateSigmoidAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	XORQ R8, R8
	XORQ CX, CX

sigloop:
	VMOVUPD (SI), Y7                         // x
	VXORPD  gateconst<>+512(SB), Y7, Y0      // -x
	GATEEXP
	VADDPD    gateconst<>+352(SB), Y0, Y0    // 1 + e
	VMOVUPD   gateconst<>+352(SB), Y1
	VDIVPD    Y0, Y1, Y0                     // 1 / (1 + e)
	VBLENDVPD Y6, Y7, Y0, Y0
	VMOVUPD   Y0, (DI)
	VMOVMSKPD Y6, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $4, CX
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, DX
	JNZ       sigloop

	VZEROUPPER
	MOVQ R8, ret+24(FP)
	RET

// func gateTanhAsm(dst, src *float64, n int) uint64
//
// The 0.625 ≤ |x| ≤ 0.5·MAXLOG branch of math.Tanh: ±(1 − 2/(exp(2|x|)+1)),
// the sign applied by XOR since the magnitude is positive. 2|x| lies in
// [1.25, 88.03], so the exp lanes never leave their straight line. Lanes
// outside the branch (the rational branch, the ±1 saturation, NaN) are
// flagged for the scalar math.Tanh.
TEXT ·gateTanhAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	XORQ R8, R8
	XORQ CX, CX

tanhloop:
	VMOVUPD (SI), Y7                              // x
	VANDPD  gateconst<>+544(SB), Y7, Y8           // z = |x|
	VANDPD  gateconst<>+512(SB), Y7, Y10          // sign of x
	VCMPPD  $0x1d, gateconst<>+576(SB), Y8, Y9    // z >= 0.625
	VCMPPD  $0x12, gateconst<>+608(SB), Y8, Y3    // z <= 0.5·MAXLOG
	VANDPD  Y3, Y9, Y9                            // lanes in the exp branch
	VMOVMSKPD Y9, AX
	TESTQ   AX, AX
	JZ      tanhnone                              // no lane needs exp
	VADDPD  Y8, Y8, Y0                            // 2z, exact
	GATEEXP
	VADDPD    gateconst<>+352(SB), Y0, Y0         // s + 1
	VMOVUPD   gateconst<>+384(SB), Y1
	VDIVPD    Y0, Y1, Y0                          // 2 / (s + 1)
	VMOVUPD   gateconst<>+352(SB), Y1
	VSUBPD    Y0, Y1, Y0                          // 1 − 2/(s + 1)
	VXORPD    Y10, Y0, Y0
	VBLENDVPD Y9, Y0, Y7, Y0                      // other lanes keep x
	VMOVUPD   Y0, (DI)
	JMP       tanhflag

tanhnone:
	VMOVUPD Y7, (DI)

tanhflag:
	XORQ      $15, AX                             // flag the lanes outside
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $4, CX
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, DX
	JNZ       tanhloop

	VZEROUPPER
	MOVQ R8, ret+24(FP)
	RET
