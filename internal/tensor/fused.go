package tensor

import (
	"fmt"
	"math"

	"ovs/internal/parallel"
)

// This file holds the fused and destination-passing kernels of the
// zero-allocation training path. The *To kernels write into a caller-provided
// output (typically an arena tensor), the *Acc kernels accumulate a backward
// rule directly into a gradient without materializing intermediates, and the
// *InPlace kernels fuse optimizer updates. Every kernel partitions work over
// output indices with the per-index computation fixed, so results are
// bitwise-identical at any worker count (see ops.go).
//
// Each kernel checks its size against the parallel grain before constructing
// the parallel.For closure: a closure passed to another function escapes to
// the heap, so small inputs — the common case in the training hot loop — take
// a branch to an explicit serial loop instead and allocate nothing.

// AddTo computes dst = a + b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func AddTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("AddTo", a, b)
	assertSameShape("AddTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		addToRange(dst, a, b, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { addToRange(dst, a, b, lo, hi) })
	}
	return dst
}

func addToRange(dst, a, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubTo computes dst = a - b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func SubTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("SubTo", a, b)
	assertSameShape("SubTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		subToRange(dst, a, b, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { subToRange(dst, a, b, lo, hi) })
	}
	return dst
}

func subToRange(dst, a, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulTo computes the elementwise product dst = a * b and returns dst. dst may
// alias a or b. Shapes must match.
func MulTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("MulTo", a, b)
	assertSameShape("MulTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		mulToRange(dst, a, b, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { mulToRange(dst, a, b, lo, hi) })
	}
	return dst
}

func mulToRange(dst, a, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ScaleTo computes dst = a * s elementwise and returns dst. dst may alias a.
func ScaleTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("ScaleTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		scaleToRange(dst, a, s, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { scaleToRange(dst, a, s, lo, hi) })
	}
	return dst
}

func scaleToRange(dst, a *Tensor, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] * s
	}
}

// AddScalarTo computes dst = a + s elementwise and returns dst. dst may
// alias a.
func AddScalarTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("AddScalarTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		addScalarToRange(dst, a, s, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { addScalarToRange(dst, a, s, lo, hi) })
	}
	return dst
}

func addScalarToRange(dst, a *Tensor, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] + s
	}
}

// AxpyTo computes the fused add-scale dst = a + alpha*b and returns dst. dst
// may alias a or b. Shapes must match.
func AxpyTo(dst, a *Tensor, alpha float64, b *Tensor) *Tensor {
	assertSameShape("AxpyTo", a, b)
	assertSameShape("AxpyTo", dst, a)
	if n := len(dst.Data); n <= parMinWork {
		axpyToRange(dst, a, alpha, b, 0, n)
	} else {
		parallel.For(n, parMinWork, func(lo, hi int) { axpyToRange(dst, a, alpha, b, lo, hi) })
	}
	return dst
}

func axpyToRange(dst, a *Tensor, alpha float64, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] + alpha*b.Data[i]
	}
}

// ScaleInPlace multiplies every element of t by s and returns t.
func ScaleInPlace(t *Tensor, s float64) *Tensor {
	ScaleTo(t, t, s)
	t.NoteMutation()
	return t
}

// MatMulTo computes the matrix product dst = a · b for rank-2 operands
// (m×k)·(k×n)→(m×n) and returns dst. dst must not alias a or b; its prior
// contents are overwritten. It routes through the packed, cache-blocked GEMM
// core (see gemm.go).
func MatMulTo(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTo requires rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTo inner dimensions differ: %v x %v", a.shape, b.shape))
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTo output shape %v, want [%d %d]", dst.shape, m, n))
	}
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, n, 1}, m, n, k, false, nil, packSource(b))
	return dst
}

// AffineTo computes the affine map dst = x · w + bias for x (m×k), w (k×n)
// and bias (n), broadcast over rows, and returns dst. dst must not alias x,
// w or bias; its prior contents are overwritten. The bias is added in the
// GEMM epilogue as each output tile is stored — the same single IEEE add
// per element as MatMulTo followed by AddRowVectorTo, so the result is
// bitwise identical without the second pass over the output.
func AffineTo(dst, x, w, bias *Tensor) *Tensor {
	if x.Rank() != 2 || w.Rank() != 2 || bias.Rank() != 1 {
		panic(fmt.Sprintf("tensor: AffineTo requires rank-2 x, w and rank-1 bias, got %v x %v + %v", x.shape, w.shape, bias.shape))
	}
	m, k := x.shape[0], x.shape[1]
	k2, n := w.shape[0], w.shape[1]
	if k != k2 || bias.shape[0] != n {
		panic(fmt.Sprintf("tensor: AffineTo shape mismatch %v x %v + %v", x.shape, w.shape, bias.shape))
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: AffineTo output shape %v, want [%d %d]", dst.shape, m, n))
	}
	gemm(dst.Data, n, gemmView{x.Data, k, 1}, gemmView{w.Data, n, 1}, m, n, k, false, bias.Data, packSource(w))
	return dst
}

// MatMulNTAcc accumulates dst += a · bᵀ where a is (m×k), b is (n×k), and dst
// is (m×n). It fuses the dL/dA = dL/dOut · Bᵀ backward rule of MatMul,
// avoiding the transpose and product temporaries; the GEMM core absorbs the
// transpose into B's packing strides.
func MatMulNTAcc(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulNTAcc requires rank-2 operands, got %v += %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulNTAcc shape mismatch %v += %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, 1, k}, m, n, k, true, nil, packSource(b))
	return dst
}

// MatMulTNAcc accumulates dst += aᵀ · b where a is (m×k), b is (m×n), and dst
// is (k×n). It fuses the dL/dB = Aᵀ · dL/dOut backward rule of MatMul; the
// GEMM core absorbs the transpose into A's packing strides.
func MatMulTNAcc(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTNAcc shape mismatch %v += %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	m2, n := b.shape[0], b.shape[1]
	if m != m2 || dst.shape[0] != k || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTNAcc shape mismatch %v += %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	gemm(dst.Data, n, gemmView{a.Data, 1, k}, gemmView{b.Data, n, 1}, k, n, m, true, nil, packSource(b))
	return dst
}

// TransposeTo computes dst = aᵀ for a rank-2 tensor and returns dst. dst must
// not alias a.
func TransposeTo(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != a.shape[0] {
		panic(fmt.Sprintf("tensor: TransposeTo shape mismatch %v = %vᵀ", dst.shape, a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if grain := elemGrain(n); m <= grain {
		transposeToRange(dst, a, m, n, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { transposeToRange(dst, a, m, n, lo, hi) })
	}
	return dst
}

func transposeToRange(dst, a *Tensor, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			dst.Data[j*m+i] = a.Data[i*n+j]
		}
	}
}

// TransposeAcc accumulates dst += aᵀ for rank-2 tensors. It fuses the
// Transpose backward rule. dst must not alias a.
func TransposeAcc(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != a.shape[0] {
		panic(fmt.Sprintf("tensor: TransposeAcc shape mismatch %v += %vᵀ", dst.shape, a.shape))
	}
	m, n := dst.shape[0], dst.shape[1]
	if grain := elemGrain(n); m <= grain {
		transposeAccRange(dst, a, m, n, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { transposeAccRange(dst, a, m, n, lo, hi) })
	}
	return dst
}

func transposeAccRange(dst, a *Tensor, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] += a.Data[j*m+i]
		}
	}
}

// AddRowVectorTo computes dst = a + v broadcast over rows, where a and dst
// are (m×n) and v is (n). dst may alias a.
func AddRowVectorTo(dst, a, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVectorTo shape mismatch %v + %v", a.shape, v.shape))
	}
	assertSameShape("AddRowVectorTo", dst, a)
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[i*n+j] = a.Data[i*n+j] + v.Data[j]
		}
	}
	return dst
}

// SigmoidTo computes dst = 1/(1+e^-a) elementwise and returns dst. dst may
// alias a. It runs the vector gate kernel (see gate.go).
func SigmoidTo(dst, a *Tensor) *Tensor {
	assertSameShape("SigmoidTo", dst, a)
	SigmoidSlice(dst.Data, a.Data)
	return dst
}

// SigmoidBackwardAcc accumulates dst += grad * val * (1-val), the fused
// sigmoid backward rule, where val holds the forward sigmoid outputs.
func SigmoidBackwardAcc(dst, grad, val *Tensor) *Tensor {
	assertSameShape("SigmoidBackwardAcc", grad, val)
	assertSameShape("SigmoidBackwardAcc", dst, grad)
	for i := range dst.Data {
		s := val.Data[i]
		dst.Data[i] += grad.Data[i] * s * (1 - s)
	}
	return dst
}

// TanhTo computes dst = tanh(a) elementwise and returns dst. dst may alias a.
// It runs the vector gate kernel (see gate.go).
func TanhTo(dst, a *Tensor) *Tensor {
	assertSameShape("TanhTo", dst, a)
	TanhSlice(dst.Data, a.Data)
	return dst
}

// TanhBackwardAcc accumulates dst += grad * (1 - val²), the fused tanh
// backward rule, where val holds the forward tanh outputs.
func TanhBackwardAcc(dst, grad, val *Tensor) *Tensor {
	assertSameShape("TanhBackwardAcc", grad, val)
	assertSameShape("TanhBackwardAcc", dst, grad)
	for i := range dst.Data {
		th := val.Data[i]
		dst.Data[i] += grad.Data[i] * (1 - th*th)
	}
	return dst
}

// ReLUTo computes dst = max(0, a) elementwise and returns dst. dst may
// alias a.
func ReLUTo(dst, a *Tensor) *Tensor {
	assertSameShape("ReLUTo", dst, a)
	for i, x := range a.Data {
		if x > 0 {
			dst.Data[i] = x
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// SqrtTo computes dst = √a elementwise and returns dst. dst may alias a.
func SqrtTo(dst, a *Tensor) *Tensor {
	assertSameShape("SqrtTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = math.Sqrt(x)
	}
	return dst
}

// SoftplusTo computes dst = log(1+e^a) elementwise (with the same overflow
// guard as the autodiff op) and returns dst. dst may alias a.
func SoftplusTo(dst, a *Tensor) *Tensor {
	assertSameShape("SoftplusTo", dst, a)
	for i, x := range a.Data {
		if x > 30 {
			dst.Data[i] = x // avoids overflow; log(1+e^x) ≈ x
		} else {
			dst.Data[i] = math.Log1p(math.Exp(x))
		}
	}
	return dst
}

// AdamStepInPlace applies one fused Adam update to value from grad, using m
// and v as the persistent first/second moment buffers. bc1 and bc2 are the
// bias-correction terms 1-β₁ᵗ and 1-β₂ᵗ for the current step t. The update
// order per element matches the reference loop exactly, so results are
// bitwise-identical to the unfused optimizer.
func AdamStepInPlace(value, grad, m, v *Tensor, lr, beta1, beta2, eps, bc1, bc2 float64) {
	assertSameShape("AdamStepInPlace", value, grad)
	assertSameShape("AdamStepInPlace", value, m)
	assertSameShape("AdamStepInPlace", value, v)
	n := len(value.Data)
	if grain := elemGrain(8); n <= grain {
		adamStepRange(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2, 0, n)
	} else {
		parallel.For(n, grain, func(lo, hi int) {
			adamStepRange(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2, lo, hi)
		})
	}
	value.NoteMutation()
}

func adamStepRange(value, grad, m, v *Tensor, lr, beta1, beta2, eps, bc1, bc2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := grad.Data[i]
		m.Data[i] = beta1*m.Data[i] + (1-beta1)*g
		v.Data[i] = beta2*v.Data[i] + (1-beta2)*g*g
		mHat := m.Data[i] / bc1
		vHat := v.Data[i] / bc2
		value.Data[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// SGDMomentumStepInPlace applies one fused momentum-SGD update to value from
// grad, using vel as the persistent velocity buffer:
// vel = momentum*vel - lr*grad; value += vel.
func SGDMomentumStepInPlace(value, grad, vel *Tensor, lr, momentum float64) {
	assertSameShape("SGDMomentumStepInPlace", value, grad)
	assertSameShape("SGDMomentumStepInPlace", value, vel)
	n := len(value.Data)
	if grain := elemGrain(4); n <= grain {
		sgdMomentumStepRange(value, grad, vel, lr, momentum, 0, n)
	} else {
		parallel.For(n, grain, func(lo, hi int) {
			sgdMomentumStepRange(value, grad, vel, lr, momentum, lo, hi)
		})
	}
	value.NoteMutation()
}

func sgdMomentumStepRange(value, grad, vel *Tensor, lr, momentum float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		vel.Data[i] = momentum*vel.Data[i] - lr*grad.Data[i]
		value.Data[i] += vel.Data[i]
	}
}
