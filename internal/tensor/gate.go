package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the slice-level gate kernels behind SigmoidTo, TanhTo and
// the fused LSTM recurrence. Where the four-lane kernels in gate_amd64.s may
// run (gateHasAsm: AVX2 and FMA, and a math.Exp that takes its FMA path) they
// port that path of Go's math.Exp instruction for instruction; with
// AVX-512F (gateHas512) sigmoid and tanh run on 8-lane zmm twins of the same
// instruction sequence, and exp, which only the tests call, stays on four
// lanes. Everywhere else they run the scalar expressions. Either way each
// element is bitwise equal to
//
//	exp:     math.Exp(x)
//	sigmoid: 1 / (1 + math.Exp(-x))
//	tanh:    math.Tanh(x)
//
// The vector kernels compute only the lanes on the straight-line part of
// math.Exp — and, for tanh, its two finite branches: ±(1 − 2/(exp(2|x|)+1))
// for 0.625 ≤ |x| ≤ 0.5·MAXLOG and the rational one for |x| < 0.625. They
// flag every other lane (non-finite input, overflow, a denormal result,
// tanh's ±1 saturation) in a bitmask and leave the input in place, and
// gateRows finishes those lanes with the scalar expression.

// gateBlock is the number of elements one flag word covers: the kernels
// report the lanes they flag as one uint64 bitmask per 64 elements of a row.
const gateBlock = 64

// gateFlagWords is the capacity of gateRows' flag buffer, kept on its
// stack: one call of the kernel covers as many rows as their flag words fit
// in it. It is small so that zeroing it costs a short call next to nothing,
// and still large enough that a step of the Volume-Speed LSTM over
// Manhattan's 360 links is 77 kernel calls, where one call per 64 elements
// of a row made 1215.
const gateFlagWords = 16

// gateFunc selects one of the three gate functions.
type gateFunc int

const (
	gateExp gateFunc = iota
	gateSigmoid
	gateTanh
)

// SigmoidSlice sets dst[i] = 1/(1+e^-src[i]) for every i. dst and src must
// have equal length; dst may alias src exactly.
func SigmoidSlice(dst, src []float64) { gateSlice(gateSigmoid, dst, src) }

// TanhSlice sets dst[i] = tanh(src[i]) for every i, bitwise equal to
// math.Tanh. dst and src must have equal length; dst may alias src exactly.
func TanhSlice(dst, src []float64) { gateSlice(gateTanh, dst, src) }

// SigmoidRows applies the sigmoid in place to rows rows of n elements, row r
// at a[r*stride:], with SigmoidSlice's result bits.
func SigmoidRows(a []float64, stride, rows, n int) { gateRows(gateSigmoid, a, a, stride, rows, n) }

// TanhRows is SigmoidRows for tanh.
func TanhRows(a []float64, stride, rows, n int) { gateRows(gateTanh, a, a, stride, rows, n) }

// expSlice sets dst[i] = math.Exp(src[i]) for every i. It has no caller
// outside the tests; it pins the shared exp lanes on their own.
func expSlice(dst, src []float64) { gateSlice(gateExp, dst, src) }

// kernel runs f's assembly kernel over rows rows of n elements, stride
// apart, and writes their flag words to flags.
func (f gateFunc) kernel(dst, src *float64, stride, n, rows int, flags *uint64) {
	switch {
	case f == gateExp:
		gateExpAsm(dst, src, stride, n, rows, flags)
	case f == gateSigmoid && gateHas512:
		gateSigmoid512Asm(dst, src, stride, n, rows, flags)
	case f == gateSigmoid:
		gateSigmoidAsm(dst, src, stride, n, rows, flags)
	case gateHas512:
		gateTanh512Asm(dst, src, stride, n, rows, flags)
	default:
		gateTanhAsm(dst, src, stride, n, rows, flags)
	}
}

// gateSlice runs f over src into dst as one row of gateRows.
func gateSlice(f gateFunc, dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: gate kernel length mismatch %d vs %d", len(dst), len(src)))
	}
	gateRows(f, dst, src, len(src), 1, len(src))
}

// gateRows sets dst to f of src over rows rows of n elements, row r of each
// at [r*stride:]; dst may alias src exactly. The first n&^3 columns of each
// row go through f's kernel, one call for as many rows as their flag words
// fit in gateFlagWords, and the lanes it flags get the scalar expression;
// the last n%4 columns, or everything without the kernels, are all scalar.
func gateRows(f gateFunc, dst, src []float64, stride, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	needRows("gate kernel", dst, stride, rows, n)
	needRows("gate kernel", src, stride, rows, n)
	nv := 0
	if gateHasAsm {
		nv = n &^ 3
	}
	// A row too long for the buffer runs in column pieces.
	var flags [gateFlagWords]uint64
	for c0 := 0; c0 < nv; c0 += gateFlagWords * gateBlock {
		w := min(nv-c0, gateFlagWords*gateBlock)
		words := (w + gateBlock - 1) / gateBlock
		// Rows per kernel call: all of them when their words fit, which
		// spares a short call the division.
		per := rows
		if rows*words > gateFlagWords {
			per = gateFlagWords / words
		}
		for r0 := 0; r0 < rows; r0 += per {
			nr := min(per, rows-r0)
			off := r0*stride + c0
			f.kernel(&dst[off], &src[off], stride, w, nr, &flags[0])
			for r := 0; r < nr; r++ {
				for wi, mask := range flags[r*words : (r+1)*words] {
					if mask != 0 {
						at := off + r*stride + wi*gateBlock
						m := min(gateBlock, w-wi*gateBlock)
						f.finish(dst[at:at+m], src[at:at+m], mask)
					}
				}
			}
		}
	}
	if nv < n {
		for r := 0; r < rows; r++ {
			f.scalar(dst[r*stride+nv:r*stride+n], src[r*stride+nv:r*stride+n])
		}
	}
}

// finish gives the lanes of a block that mask flags the scalar expression,
// one run of adjacent lanes at a time, so a block the kernel flags whole
// (saturated tanh, say) costs one tight scalar loop. The scalar lanes read
// src, which still holds their input: a flagged lane keeps its input in
// dst, so an aliased call reads the same value.
func (f gateFunc) finish(dst, src []float64, mask uint64) {
	for mask != 0 {
		lo := bits.TrailingZeros64(mask)
		hi := lo + bits.TrailingZeros64(^(mask >> lo))
		f.scalar(dst[lo:hi], src[lo:hi])
		mask &^= 1<<hi - 1
	}
}

// scalar sets dst[j] to f's reference expression of src[j]: the expression
// every vector lane must match bit for bit.
func (f gateFunc) scalar(dst, src []float64) {
	dst = dst[:len(src)]
	switch f {
	case gateExp:
		for j, x := range src {
			dst[j] = math.Exp(x)
		}
	case gateSigmoid:
		for j, x := range src {
			dst[j] = 1 / (1 + math.Exp(-x))
		}
	default:
		for j, x := range src {
			dst[j] = math.Tanh(x)
		}
	}
}
