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
// +640: tanh rational numerator P: p0 (math.tanhP/tanhQ)
DATA gateconst<>+640(SB)/8, $0xbfeedc5baafd6f4b
DATA gateconst<>+648(SB)/8, $0xbfeedc5baafd6f4b
DATA gateconst<>+656(SB)/8, $0xbfeedc5baafd6f4b
DATA gateconst<>+664(SB)/8, $0xbfeedc5baafd6f4b
// +672: p1
DATA gateconst<>+672(SB)/8, $0xc058d26a0e26682d
DATA gateconst<>+680(SB)/8, $0xc058d26a0e26682d
DATA gateconst<>+688(SB)/8, $0xc058d26a0e26682d
DATA gateconst<>+696(SB)/8, $0xc058d26a0e26682d
// +704: p2
DATA gateconst<>+704(SB)/8, $0xc0993ac030580563
DATA gateconst<>+712(SB)/8, $0xc0993ac030580563
DATA gateconst<>+720(SB)/8, $0xc0993ac030580563
DATA gateconst<>+728(SB)/8, $0xc0993ac030580563
// +736: tanh rational denominator Q: q0 (math.tanhP/tanhQ)
DATA gateconst<>+736(SB)/8, $0x405c33f28a581b86
DATA gateconst<>+744(SB)/8, $0x405c33f28a581b86
DATA gateconst<>+752(SB)/8, $0x405c33f28a581b86
DATA gateconst<>+760(SB)/8, $0x405c33f28a581b86
// +768: q1
DATA gateconst<>+768(SB)/8, $0x40a176fa0e5535fa
DATA gateconst<>+776(SB)/8, $0x40a176fa0e5535fa
DATA gateconst<>+784(SB)/8, $0x40a176fa0e5535fa
DATA gateconst<>+792(SB)/8, $0x40a176fa0e5535fa
// +800: q2
DATA gateconst<>+800(SB)/8, $0x40b2ec102442040c
DATA gateconst<>+808(SB)/8, $0x40b2ec102442040c
DATA gateconst<>+816(SB)/8, $0x40b2ec102442040c
DATA gateconst<>+824(SB)/8, $0x40b2ec102442040c
GLOBL gateconst<>(SB), RODATA, $832

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

// A kernel call covers rows rows of n elements each (n a positive multiple
// of 4), row r at dst/src + r·stride elements, and writes ceil(n/64) flag
// words per row to flags: bit b of row r's word w is set when element
// 64·w+b of that row was left to the scalar fallback. The row loop keeps the
// row's current word in R8 and its next bit in CX; GATEFLAG folds a chunk's
// flag bits from AX into it and stores each word as it fills, GATEROWEND
// stores a row's last, partial word. Registers: DI/SI row starts of dst/src,
// R13/R12 their chunk cursors, DX elements left in the row, R9 the stride in
// bytes, R10 rows left, R11 the next flag word.

#define GATEFLAG(width) \
	SHLQ CX, AX \
	ORQ  AX, R8 \
	ADDQ $width, CX \
	CMPQ CX, $64 \
	JNE  5(PC) \
	MOVQ R8, (R11) \
	ADDQ $8, R11 \
	XORQ R8, R8 \
	XORQ CX, CX

#define GATEROWEND \
	TESTQ CX, CX \
	JZ    3(PC) \
	MOVQ  R8, (R11) \
	ADDQ  $8, R11

// GATEARGS loads the arguments; GATEROW starts a row; GATENEXTROW steps to
// the next row and loops to label while rows are left.
#define GATEARGS \
	MOVQ dst+0(FP), DI \
	MOVQ src+8(FP), SI \
	MOVQ stride+16(FP), R9 \
	SHLQ $3, R9 \
	MOVQ rows+32(FP), R10 \
	MOVQ flags+40(FP), R11

#define GATEROW \
	MOVQ n+24(FP), DX \
	MOVQ SI, R12 \
	MOVQ DI, R13 \
	XORQ R8, R8 \
	XORQ CX, CX

#define GATENEXTROW(label) \
	ADDQ R9, SI \
	ADDQ R9, DI \
	DECQ R10 \
	JNZ  label

// func gateExpAsm(dst, src *float64, stride, n, rows int, flags *uint64)
TEXT ·gateExpAsm(SB), NOSPLIT, $0-48
	GATEARGS

exprow:
	GATEROW

exploop:
	VMOVUPD (R12), Y7         // x
	VMOVAPD Y7, Y0
	GATEEXP
	VBLENDVPD Y6, Y7, Y0, Y0  // flagged lanes keep x
	VMOVUPD   Y0, (R13)
	VMOVMSKPD Y6, AX
	GATEFLAG(4)
	ADDQ      $32, R12
	ADDQ      $32, R13
	SUBQ      $4, DX
	JNZ       exploop
	GATEROWEND
	GATENEXTROW(exprow)

	VZEROUPPER
	RET

// func gateSigmoidAsm(dst, src *float64, stride, n, rows int, flags *uint64)
//
// dst = 1/(1+exp(-x)): one VADDPD and one VDIVPD after the exp lanes, the
// same two correctly-rounded operations as the scalar expression.
TEXT ·gateSigmoidAsm(SB), NOSPLIT, $0-48
	GATEARGS

sigrow:
	GATEROW

sigloop:
	VMOVUPD (R12), Y7                        // x
	VXORPD  gateconst<>+512(SB), Y7, Y0      // -x
	GATEEXP
	VADDPD    gateconst<>+352(SB), Y0, Y0    // 1 + e
	VMOVUPD   gateconst<>+352(SB), Y1
	VDIVPD    Y0, Y1, Y0                     // 1 / (1 + e)
	VBLENDVPD Y6, Y7, Y0, Y0
	VMOVUPD   Y0, (R13)
	VMOVMSKPD Y6, AX
	GATEFLAG(4)
	ADDQ      $32, R12
	ADDQ      $32, R13
	SUBQ      $4, DX
	JNZ       sigloop
	GATEROWEND
	GATENEXTROW(sigrow)

	VZEROUPPER
	RET

// func gateTanhAsm(dst, src *float64, stride, n, rows int, flags *uint64)
//
// Both finite branches of math.Tanh, each run only when one of the four
// lanes needs it. Lanes with 0 < |x| < 0.625 take the rational branch
// x + ((x·s)·P)/Q, s = x·x, P = (p0·s + p1)·s + p2,
// Q = ((s + q0)·s + q1)·s + q2: one rounded VMULPD, VADDPD or VDIVPD per
// scalar operation, in Go's association (the compiler contracts none of
// them into an FMA, at GOAMD64=v1 or v3); ±0 keeps x. Lanes with
// 0.625 ≤ |x| ≤ 0.5·MAXLOG take ±(1 − 2/(exp(2|x|)+1)), the sign applied
// by XOR since the magnitude is positive; 2|x| lies in [1.25, 88.03], so
// the exp lanes never leave their straight line. Only the ±1 saturation
// and NaN are flagged for the scalar math.Tanh.
TEXT ·gateTanhAsm(SB), NOSPLIT, $0-48
	GATEARGS

tanhrow:
	GATEROW

tanhloop:
	VMOVUPD   (R12), Y7                           // x
	VANDPD    gateconst<>+544(SB), Y7, Y8         // z = |x|
	VCMPPD    $0x11, gateconst<>+576(SB), Y8, Y11 // z < 0.625
	VMOVMSKPD Y11, BX
	TESTQ     BX, BX
	JZ        tanhexp                             // no lane is rational
	VMULPD    Y7, Y7, Y0                          // s = x·x
	VMULPD    gateconst<>+640(SB), Y0, Y1         // p0·s
	VADDPD    gateconst<>+672(SB), Y1, Y1         // + p1
	VMULPD    Y0, Y1, Y1                          // ·s
	VADDPD    gateconst<>+704(SB), Y1, Y1         // P = … + p2
	VADDPD    gateconst<>+736(SB), Y0, Y2         // s + q0
	VMULPD    Y0, Y2, Y2                          // ·s
	VADDPD    gateconst<>+768(SB), Y2, Y2         // + q1
	VMULPD    Y0, Y2, Y2                          // ·s
	VADDPD    gateconst<>+800(SB), Y2, Y2         // Q = … + q2
	VMULPD    Y0, Y7, Y0                          // x·s
	VMULPD    Y1, Y0, Y0                          // (x·s)·P
	VDIVPD    Y2, Y0, Y0                          // ((x·s)·P)/Q
	VADDPD    Y0, Y7, Y0                          // x + …
	VXORPD    Y1, Y1, Y1
	VCMPPD    $0x1e, Y1, Y8, Y1                   // z > 0
	VANDPD    Y11, Y1, Y1
	VBLENDVPD Y1, Y0, Y7, Y7                      // ±0 and other lanes keep x

tanhexp:
	VCMPPD    $0x1d, gateconst<>+576(SB), Y8, Y9  // z >= 0.625
	VCMPPD    $0x12, gateconst<>+608(SB), Y8, Y3  // z <= 0.5·MAXLOG
	VANDPD    Y3, Y9, Y9                          // lanes in the exp branch
	VMOVMSKPD Y9, AX
	TESTQ     AX, AX
	JZ        tanhstore                           // no lane needs exp
	VANDPD    gateconst<>+512(SB), Y7, Y10        // sign of x
	VADDPD    Y8, Y8, Y0                          // 2z, exact
	GATEEXP
	VADDPD    gateconst<>+352(SB), Y0, Y0         // s + 1
	VMOVUPD   gateconst<>+384(SB), Y1
	VDIVPD    Y0, Y1, Y0                          // 2 / (s + 1)
	VMOVUPD   gateconst<>+352(SB), Y1
	VSUBPD    Y0, Y1, Y0                          // 1 − 2/(s + 1)
	VXORPD    Y10, Y0, Y0
	VBLENDVPD Y9, Y0, Y7, Y7                      // other lanes keep theirs

tanhstore:
	VMOVUPD Y7, (R13)
	ORQ     BX, AX
	XORQ    $15, AX                               // flag the lanes in neither
	GATEFLAG(4)
	ADDQ    $32, R12
	ADDQ    $32, R13
	SUBQ    $4, DX
	JNZ     tanhloop
	GATEROWEND
	GATENEXTROW(tanhrow)

	VZEROUPPER
	RET

// The 8-lane AVX-512 twins of the sigmoid and tanh kernels. GATEEXP512 is
// GATEEXP on zmm: the same instructions in the same order, with each
// constant broadcast from the first lane of its gateconst row and the
// out-of-range lanes collected in a mask register. Only AVX-512F
// instructions appear (the integer forms VPANDQ/VPXORQ stand in for the
// DQ-only VANDPD/VXORPD on zmm, and the mask ops are the W forms). A row
// runs eight elements at a time; a last chunk of 4 runs under the lane mask
// 0x0f, so its loads read zeros in the upper lanes, its store leaves them
// alone, and its flags ignore them. It still advances the row's flag bit by
// 8, which keeps every chunk inside one flag word.

// GATEEXP512: in Z0 = x. Out Z0 = exp(x) on lanes with k in [-1022, 1023]
// and K1 set on the other lanes. Clobbers Z1, Z2, Y3 and K2.
#define GATEEXP512 \
	VMULPD.BCST       gateconst<>+0(SB), Z0, Z1 \
	VCVTPD2DQ         Z1, Y3 \
	VCVTDQ2PD         Y3, Z1 \
	VCMPPD.BCST       $0x11, gateconst<>+416(SB), Z1, K1 \
	VCMPPD.BCST       $0x1e, gateconst<>+448(SB), Z1, K2 \
	KORW              K2, K1, K1 \
	VFNMADD231PD.BCST gateconst<>+32(SB), Z1, Z0 \
	VFNMADD231PD.BCST gateconst<>+64(SB), Z1, Z0 \
	VMULPD.BCST       gateconst<>+96(SB), Z0, Z0 \
	VBROADCASTSD      gateconst<>+128(SB), Z1 \
	VFMADD213PD.BCST  gateconst<>+160(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+192(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+224(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+256(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+288(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+320(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+352(SB), Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       gateconst<>+384(SB), Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       gateconst<>+384(SB), Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       gateconst<>+384(SB), Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       gateconst<>+384(SB), Z0, Z1 \
	VFMADD213PD.BCST  gateconst<>+352(SB), Z1, Z0 \
	VPMOVSXDQ         Y3, Z2 \
	VPADDQ.BCST       gateconst<>+480(SB), Z2, Z2 \
	VPSLLQ            $52, Z2, Z2 \
	VMULPD            Z2, Z0, Z0

// GATELANES512 sets K3 to the lanes of the chunk at DX elements left: all
// eight, or the low four for a last chunk of 4. Clobbers AX.
#define GATELANES512 \
	MOVL  $0xff, AX \
	CMPQ  DX, $8 \
	JGE   2(PC) \
	MOVL  $0x0f, AX \
	KMOVW AX, K3

// func gateSigmoid512Asm(dst, src *float64, stride, n, rows int, flags *uint64)
TEXT ·gateSigmoid512Asm(SB), NOSPLIT, $0-48
	GATEARGS

zsigrow:
	GATEROW

zsigloop:
	GATELANES512
	VMOVUPD.Z    (R12), K3, Z7                   // x
	VPXORQ.BCST  gateconst<>+512(SB), Z7, Z0     // -x
	GATEEXP512
	VADDPD.BCST  gateconst<>+352(SB), Z0, Z0     // 1 + e
	VBROADCASTSD gateconst<>+352(SB), Z1
	VDIVPD       Z0, Z1, Z0                      // 1 / (1 + e)
	KANDW        K3, K1, K1
	VMOVAPD      Z7, K1, Z0                      // flagged lanes keep x
	VMOVUPD      Z0, K3, (R13)
	KMOVW        K1, AX
	GATEFLAG(8)
	ADDQ         $64, R12
	ADDQ         $64, R13
	SUBQ         $8, DX
	JGT          zsigloop
	GATEROWEND
	GATENEXTROW(zsigrow)

	VZEROUPPER
	RET

// func gateTanh512Asm(dst, src *float64, stride, n, rows int, flags *uint64)
//
// gateTanhAsm on zmm: the same two branches in the same instructions. The
// rational lanes' z ≠ 0 test is VPTESTMQ, which z < 0.625 already cleared
// of NaN.
TEXT ·gateTanh512Asm(SB), NOSPLIT, $0-48
	GATEARGS

ztanhrow:
	GATEROW

ztanhloop:
	GATELANES512
	VMOVUPD.Z   (R12), K3, Z7                       // x
	VPANDQ.BCST gateconst<>+544(SB), Z7, Z8         // z = |x|
	VCMPPD.BCST $0x11, gateconst<>+576(SB), Z8, K6  // z < 0.625
	KANDW       K3, K6, K6
	KMOVW       K6, BX
	TESTQ       BX, BX
	JZ          ztanhexp                            // no lane is rational
	VMULPD      Z7, Z7, Z0                          // s = x·x
	VMULPD.BCST gateconst<>+640(SB), Z0, Z1         // p0·s
	VADDPD.BCST gateconst<>+672(SB), Z1, Z1         // + p1
	VMULPD      Z0, Z1, Z1                          // ·s
	VADDPD.BCST gateconst<>+704(SB), Z1, Z1         // P = … + p2
	VADDPD.BCST gateconst<>+736(SB), Z0, Z2         // s + q0
	VMULPD      Z0, Z2, Z2                          // ·s
	VADDPD.BCST gateconst<>+768(SB), Z2, Z2         // + q1
	VMULPD      Z0, Z2, Z2                          // ·s
	VADDPD.BCST gateconst<>+800(SB), Z2, Z2         // Q = … + q2
	VMULPD      Z0, Z7, Z0                          // x·s
	VMULPD      Z1, Z0, Z0                          // (x·s)·P
	VDIVPD      Z2, Z0, Z0                          // ((x·s)·P)/Q
	VADDPD      Z0, Z7, Z0                          // x + …
	VPTESTMQ    Z8, Z8, K7                          // z ≠ 0
	KANDW       K6, K7, K7
	VMOVAPD     Z0, K7, Z7                          // ±0 and other lanes keep x

ztanhexp:
	VCMPPD.BCST $0x1d, gateconst<>+576(SB), Z8, K4  // z >= 0.625
	VCMPPD.BCST $0x12, gateconst<>+608(SB), Z8, K5  // z <= 0.5·MAXLOG
	KANDW       K5, K4, K4                          // lanes in the exp branch
	KANDW       K3, K4, K4
	KMOVW       K4, AX
	TESTQ       AX, AX
	JZ          ztanhstore                          // no lane needs exp
	VPANDQ.BCST gateconst<>+512(SB), Z7, Z10        // sign of x
	VADDPD      Z8, Z8, Z0                          // 2z, exact
	GATEEXP512
	VADDPD.BCST  gateconst<>+352(SB), Z0, Z0        // s + 1
	VBROADCASTSD gateconst<>+384(SB), Z1
	VDIVPD       Z0, Z1, Z0                         // 2 / (s + 1)
	VBROADCASTSD gateconst<>+352(SB), Z1
	VSUBPD       Z0, Z1, Z0                         // 1 − 2/(s + 1)
	VPXORQ       Z10, Z0, Z0
	VMOVAPD      Z0, K4, Z7                         // other lanes keep theirs

ztanhstore:
	VMOVUPD Z7, K3, (R13)
	KORW    K4, K6, K1
	KANDNW  K3, K1, K1                              // flag the lanes in neither
	KMOVW   K1, AX
	GATEFLAG(8)
	ADDQ    $64, R12
	ADDQ    $64, R13
	SUBQ    $8, DX
	JGT     ztanhloop
	GATEROWEND
	GATENEXTROW(ztanhrow)

	VZEROUPPER
	RET
