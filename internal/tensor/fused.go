package tensor

import (
	"fmt"
	"math"
)

// This file holds the fused and destination-passing kernels of the
// zero-allocation training path. The *To kernels write into a caller-provided
// output (typically an arena tensor), the *Acc kernels accumulate a backward
// rule directly into a gradient without materializing intermediates, and the
// *InPlace kernels fuse optimizer updates. Each kernel is one plain loop on
// the calling goroutine: the independent work that runs concurrently is the
// fit restarts and experiment cells above this package, never a kernel.

// AddTo computes dst = a + b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func AddTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("AddTo", a, b)
	assertSameShape("AddTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// SubTo computes dst = a - b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func SubTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("SubTo", a, b)
	assertSameShape("SubTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// MulTo computes the elementwise product dst = a * b and returns dst. dst may
// alias a or b. Shapes must match.
func MulTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("MulTo", a, b)
	assertSameShape("MulTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// ScaleTo computes dst = a * s elementwise and returns dst. dst may alias a.
func ScaleTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("ScaleTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = x * s
	}
	return dst
}

// AddScalarTo computes dst = a + s elementwise and returns dst. dst may
// alias a.
func AddScalarTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("AddScalarTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = x + s
	}
	return dst
}

// ScaleInPlace multiplies every element of t by s and returns t.
func ScaleInPlace(t *Tensor, s float64) *Tensor {
	ScaleTo(t, t, s)
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
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, n, 1}, m, n, k, false, nil)
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
	gemm(dst.Data, n, gemmView{x.Data, k, 1}, gemmView{w.Data, n, 1}, m, n, k, false, bias.Data)
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
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, 1, k}, m, n, k, true, nil)
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
	gemm(dst.Data, n, gemmView{a.Data, 1, k}, gemmView{b.Data, n, 1}, k, n, m, true, nil)
	return dst
}

// transposeDims checks that dst has the shape of aᵀ — a rank-2 transpose,
// or for rank 3 (B × m × n) the transpose of each of the B matrices — and
// returns B (1 for rank 2) and a's matrix shape m × n.
func transposeDims(op, sym string, dst, a *Tensor) (batch, m, n int) {
	r := a.Rank()
	if (r != 2 && r != 3) || dst.Rank() != r || dst.shape[r-2] != a.shape[r-1] ||
		dst.shape[r-1] != a.shape[r-2] || r == 3 && dst.shape[0] != a.shape[0] {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v %s %vᵀ", op, dst.shape, sym, a.shape))
	}
	if r == 2 {
		return 1, a.shape[0], a.shape[1]
	}
	return a.shape[0], a.shape[1], a.shape[2]
}

// TransposeTo computes dst = aᵀ and returns dst: the transpose of a rank-2
// tensor, or of each matrix of a rank-3 (B × m × n) one. dst must not alias
// a.
func TransposeTo(dst, a *Tensor) *Tensor {
	batch, m, n := transposeDims("TransposeTo", "=", dst, a)
	for b := 0; b < batch; b++ {
		d, s := dst.Data[b*m*n:(b+1)*m*n], a.Data[b*m*n:(b+1)*m*n]
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d[j*m+i] = s[i*n+j]
			}
		}
	}
	return dst
}

// TransposeAcc accumulates dst += aᵀ, for the shapes TransposeTo takes. It
// fuses the Transpose backward rule. dst must not alias a.
func TransposeAcc(dst, a *Tensor) *Tensor {
	batch, n, m := transposeDims("TransposeAcc", "+=", dst, a)
	for b := 0; b < batch; b++ {
		d, s := dst.Data[b*m*n:(b+1)*m*n], a.Data[b*m*n:(b+1)*m*n]
		for i := 0; i < m; i++ {
			drow := d[i*n : (i+1)*n]
			for j := range drow {
				drow[j] += s[j*m+i]
			}
		}
	}
	return dst
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
	for i := range value.Data {
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
	for i := range value.Data {
		vel.Data[i] = momentum*vel.Data[i] - lr*grad.Data[i]
		value.Data[i] += vel.Data[i]
	}
}
