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
// math.Exp — and, for tanh, only its 0.625 ≤ |x| ≤ 0.5·MAXLOG branch
// ±(1 − 2/(exp(2|x|)+1)). They flag every other lane (non-finite input,
// overflow, a denormal result, tanh's rational branch and its ±1
// saturation) in a bitmask and leave the input in place, and gateSlice
// finishes those lanes with the scalar expression.

// gateBlock is the most elements one kernel call covers: the flagged-lane
// bitmask is a uint64.
const gateBlock = 64

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

// expSlice sets dst[i] = math.Exp(src[i]) for every i. It has no caller
// outside the tests; it pins the shared exp lanes on their own.
func expSlice(dst, src []float64) { gateSlice(gateExp, dst, src) }

// kernel runs f's assembly kernel over n elements and returns the mask of
// flagged lanes.
func (f gateFunc) kernel(dst, src *float64, n int) uint64 {
	switch f {
	case gateExp:
		return gateExpAsm(dst, src, n)
	case gateSigmoid:
		if gateHas512 {
			return gateSigmoid512Asm(dst, src, n)
		}
		return gateSigmoidAsm(dst, src, n)
	default:
		if gateHas512 {
			return gateTanh512Asm(dst, src, n)
		}
		return gateTanhAsm(dst, src, n)
	}
}

// gateSlice walks src in blocks of up to gateBlock elements. A block whose
// length is a multiple of 4 goes through f's kernel, and the lanes it flags
// get the scalar expression; any other block — the last len%4 elements, or
// every block without the kernels — is all scalar. The flagged lanes are
// finished one run of adjacent lanes at a time, so a block the kernel
// flags whole (tanh on small inputs) costs one tight scalar loop. The
// scalar lanes read src, which still holds their input: a flagged lane
// keeps its input in dst, so an aliased call reads the same value.
func gateSlice(f gateFunc, dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: gate kernel length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := 0; i < len(src); {
		n := min(gateBlock, len(src)-i)
		var mask uint64
		if gateHasAsm && n >= 4 {
			n &^= 3
			mask = f.kernel(&dst[i], &src[i], n)
		} else {
			mask = 1<<n - 1 // n = 64 shifts to 0, so the mask is all ones
		}
		for mask != 0 {
			lo := bits.TrailingZeros64(mask)
			hi := lo + bits.TrailingZeros64(^(mask >> lo))
			f.scalar(dst[i+lo:i+hi], src[i+lo:i+hi])
			mask &^= 1<<hi - 1
		}
		i += n
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
