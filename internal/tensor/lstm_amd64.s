// The element-wise row kernels of the fused LSTM layer (see lstm.go): the
// cell state, the hidden state, the refill of the running hidden-state
// gradient and the gate gradients of one step, over rows rows of a gate
// buffer whose rows lie zs elements apart. Each lane runs the scalar
// reference's multiplies, adds and subtracts in its association, so every
// element is bitwise equal to it; no FMA appears. A row's last hidden mod 4
// units run through the same instructions one lane at a time (VMOVSD loads
// clear the other lanes, VMOVSD stores write lane 0 only).
//
// Shared registers: AX rows left, CX units left in the row, BX the gate row,
// R9 the gate cursor, R10 hidden and R11 3·hidden in bytes (the f and g
// gate offsets; o is at R10*2), R12 the gate row stride in bytes.

//go:build amd64

#include "textflag.h"

DATA lstmconst<>+0(SB)/8, $1.0
GLOBL lstmconst<>(SB), RODATA, $8

// LSTMGATEOFFS scales hidden in R10 and the gate row stride in R12 to bytes
// and sets R11 to 3·hidden in bytes.
#define LSTMGATEOFFS \
	SHLQ $3, R10 \
	LEAQ (R10)(R10*2), R11 \
	SHLQ $3, R12

// func lstmCellAsm(c, cPrev, z *float64, zs, rows, hidden int)
//
// c = float64(f·cPrev) + float64(i·g). DI and SI walk c and cPrev, whose
// rows are consecutive.
TEXT ·lstmCellAsm(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ cPrev+8(FP), SI
	MOVQ z+16(FP), BX
	MOVQ zs+24(FP), R12
	MOVQ rows+32(FP), AX
	MOVQ hidden+40(FP), R10
	LSTMGATEOFFS

cellrow:
	MOVQ BX, R9
	MOVQ hidden+40(FP), CX

cell4:
	CMPQ    CX, $4
	JLT     cell1
	VMOVUPD (R9)(R10*1), Y0    // f
	VMULPD  (SI), Y0, Y0       // f·cPrev
	VMOVUPD (R9), Y1           // i
	VMULPD  (R9)(R11*1), Y1, Y1 // i·g
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, R9
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     cell4

cell1:
	TESTQ  CX, CX
	JZ     cellnext
	VMOVSD (R9)(R10*1), X0
	VMULSD (SI), X0, X0
	VMOVSD (R9), X1
	VMULSD (R9)(R11*1), X1, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, R9
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    cell1

cellnext:
	ADDQ R12, BX
	DECQ AX
	JNZ  cellrow
	VZEROUPPER
	RET

// func lstmHiddenAsm(h *float64, hs int, z *float64, zs int, th *float64, rows, hidden int)
//
// h = o·tanh(c). DI is h's row, R8 its stride in bytes and R13 its cursor;
// BX starts at the o gate; SI walks th, whose rows are consecutive.
TEXT ·lstmHiddenAsm(SB), NOSPLIT, $0-56
	MOVQ h+0(FP), DI
	MOVQ hs+8(FP), R8
	SHLQ $3, R8
	MOVQ z+16(FP), BX
	MOVQ zs+24(FP), R12
	MOVQ th+32(FP), SI
	MOVQ rows+40(FP), AX
	MOVQ hidden+48(FP), R10
	LSTMGATEOFFS
	LEAQ (BX)(R10*2), BX

hrow:
	MOVQ BX, R9
	MOVQ DI, R13
	MOVQ hidden+48(FP), CX

h4:
	CMPQ    CX, $4
	JLT     h1
	VMOVUPD (R9), Y0
	VMULPD  (SI), Y0, Y0
	VMOVUPD Y0, (R13)
	ADDQ    $32, R9
	ADDQ    $32, SI
	ADDQ    $32, R13
	SUBQ    $4, CX
	JMP     h4

h1:
	TESTQ  CX, CX
	JZ     hnext
	VMOVSD (R9), X0
	VMULSD (SI), X0, X0
	VMOVSD X0, (R13)
	ADDQ   $8, R9
	ADDQ   $8, SI
	ADDQ   $8, R13
	DECQ   CX
	JMP    h1

hnext:
	ADDQ R8, DI
	ADDQ R12, BX
	DECQ AX
	JNZ  hrow
	VZEROUPPER
	RET

// func flushRowsAsm(dst, src *float64, ss, rows, n int)
//
// dst = 0 + src, rows of src ss apart into consecutive rows of dst. BX is
// src's row and R9 its cursor, R12 its stride in bytes; DI walks dst.
TEXT ·flushRowsAsm(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), BX
	MOVQ   ss+16(FP), R12
	SHLQ   $3, R12
	MOVQ   rows+24(FP), AX
	VXORPD Y15, Y15, Y15

flushrow:
	MOVQ BX, R9
	MOVQ n+32(FP), CX

flush4:
	CMPQ    CX, $4
	JLT     flush1
	VADDPD  (R9), Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     flush4

flush1:
	TESTQ  CX, CX
	JZ     flushnext
	VADDSD (R9), X15, X0
	VMOVSD X0, (DI)
	ADDQ   $8, R9
	ADDQ   $8, DI
	DECQ   CX
	JMP    flush1

flushnext:
	ADDQ R12, BX
	DECQ AX
	JNZ  flushrow
	VZEROUPPER
	RET

// LSTMGRAD is the gate-gradient expression of lstmGateGradGo on four lanes,
// in its association: in Y0 dH, Y1 tanh(c), Y2 o, Y3 i, Y4 f, Y5 g,
// Y6 cPrev, Y7 dC, Y14 = 1, Y15 = 0. Out Y11 di, Y12 df, Y8 do, Y9 dg and
// Y10 the new dC. Clobbers Y13.
#define LSTMGRAD \
	VMULPD Y1, Y0, Y8 \
	VADDPD Y8, Y15, Y8 \
	VMULPD Y2, Y0, Y9 \
	VADDPD Y9, Y15, Y9 \
	VMULPD Y1, Y1, Y10 \
	VSUBPD Y10, Y14, Y10 \
	VMULPD Y10, Y9, Y10 \
	VADDPD Y10, Y7, Y10 \
	VADDPD Y10, Y15, Y10 \
	VMULPD Y5, Y10, Y11 \
	VADDPD Y11, Y15, Y11 \
	VMULPD Y3, Y11, Y11 \
	VSUBPD Y3, Y14, Y12 \
	VMULPD Y12, Y11, Y11 \
	VADDPD Y11, Y15, Y11 \
	VMULPD Y6, Y10, Y12 \
	VADDPD Y12, Y15, Y12 \
	VMULPD Y4, Y12, Y12 \
	VSUBPD Y4, Y14, Y13 \
	VMULPD Y13, Y12, Y12 \
	VADDPD Y12, Y15, Y12 \
	VMULPD Y2, Y8, Y8 \
	VSUBPD Y2, Y14, Y13 \
	VMULPD Y13, Y8, Y8 \
	VADDPD Y8, Y15, Y8 \
	VMULPD Y3, Y10, Y9 \
	VADDPD Y9, Y15, Y9 \
	VMULPD Y5, Y5, Y13 \
	VSUBPD Y13, Y14, Y13 \
	VMULPD Y13, Y9, Y9 \
	VADDPD Y9, Y15, Y9 \
	VMULPD Y4, Y10, Y10 \
	VADDPD Y10, Y15, Y10

// LSTMGRADPREFETCH asks for the next row's cache lines at the current
// column: its four gates (R13 is the gate cursor one row on) and its dH,
// tanh(c), dC and cPrev, one row (hidden·8 bytes) past SI, DI, DX and R8.
// Successive gate rows lie T·4·hidden·8 bytes apart, beyond the reach of
// the hardware's stride prefetch.
#define LSTMGRADPREFETCH \
	PREFETCHT0 (R13) \
	PREFETCHT0 (R13)(R10*1) \
	PREFETCHT0 (R13)(R10*2) \
	PREFETCHT0 (R13)(R11*1) \
	PREFETCHT0 (SI)(R10*1) \
	PREFETCHT0 (DI)(R10*1) \
	PREFETCHT0 (DX)(R10*1) \
	PREFETCHT0 (R8)(R10*1)

// LSTMGRADSTEP advances every cursor by bytes.
#define LSTMGRADSTEP(bytes) \
	ADDQ $bytes, R9 \
	ADDQ $bytes, R13 \
	ADDQ $bytes, SI \
	ADDQ $bytes, DI \
	ADDQ $bytes, DX \
	ADDQ $bytes, R8

// func lstmGateGradAsm(z *float64, zs int, dH, th, dC, cPrev *float64, rows, hidden int)
//
// SI, DI, DX and R8 walk dH, tanh(c), dC and cPrev, whose rows are
// consecutive; R13 runs one gate row ahead of R9 for the prefetches.
TEXT ·lstmGateGradAsm(SB), NOSPLIT, $0-64
	MOVQ         z+0(FP), BX
	MOVQ         zs+8(FP), R12
	MOVQ         dH+16(FP), SI
	MOVQ         th+24(FP), DI
	MOVQ         dC+32(FP), DX
	MOVQ         cPrev+40(FP), R8
	MOVQ         rows+48(FP), AX
	MOVQ         hidden+56(FP), R10
	LSTMGATEOFFS
	VBROADCASTSD lstmconst<>+0(SB), Y14
	VXORPD       Y15, Y15, Y15

gradrow:
	MOVQ BX, R9
	LEAQ (BX)(R12*1), R13
	MOVQ hidden+56(FP), CX

grad4:
	CMPQ    CX, $4
	JLT     grad1
	LSTMGRADPREFETCH
	VMOVUPD (SI), Y0
	VMOVUPD (DI), Y1
	VMOVUPD (R9)(R10*2), Y2
	VMOVUPD (R9), Y3
	VMOVUPD (R9)(R10*1), Y4
	VMOVUPD (R9)(R11*1), Y5
	VMOVUPD (R8), Y6
	VMOVUPD (DX), Y7
	LSTMGRAD
	VMOVUPD Y11, (R9)
	VMOVUPD Y12, (R9)(R10*1)
	VMOVUPD Y8, (R9)(R10*2)
	VMOVUPD Y9, (R9)(R11*1)
	VMOVUPD Y10, (DX)
	LSTMGRADSTEP(32)
	SUBQ    $4, CX
	JMP     grad4

grad1:
	TESTQ  CX, CX
	JZ     gradnext
	VMOVSD (SI), X0
	VMOVSD (DI), X1
	VMOVSD (R9)(R10*2), X2
	VMOVSD (R9), X3
	VMOVSD (R9)(R10*1), X4
	VMOVSD (R9)(R11*1), X5
	VMOVSD (R8), X6
	VMOVSD (DX), X7
	LSTMGRAD
	VMOVSD X11, (R9)
	VMOVSD X12, (R9)(R10*1)
	VMOVSD X8, (R9)(R10*2)
	VMOVSD X9, (R9)(R11*1)
	VMOVSD X10, (DX)
	LSTMGRADSTEP(8)
	DECQ   CX
	JMP    grad1

gradnext:
	ADDQ R12, BX
	DECQ AX
	JNZ  gradrow
	VZEROUPPER
	RET
