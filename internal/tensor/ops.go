package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	assertSameShape("Add", a, b)
	return AddTo(New(a.shape...), a, b)
}

// Sub returns a - b elementwise. Shapes must match.
func Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	return SubTo(New(a.shape...), a, b)
}

// Mul returns the elementwise (Hadamard) product a * b. Shapes must match.
func Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	return MulTo(New(a.shape...), a, b)
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	return ScaleTo(New(a.shape...), a, s)
}

// AddInPlace accumulates b into a (a += b) and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	assertSameShape("AddInPlace", a, b)
	for i, x := range b.Data {
		a.Data[i] += x
	}
	return a
}

// AxpyInPlace computes a += alpha*b and returns a.
func AxpyInPlace(a *Tensor, alpha float64, b *Tensor) *Tensor {
	assertSameShape("AxpyInPlace", a, b)
	for i, x := range b.Data {
		a.Data[i] += alpha * x
	}
	return a
}

// MatMul returns the matrix product of two rank-2 tensors: (m×k)·(k×n)→(m×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v x %v", a.shape, b.shape))
	}
	return MatMulTo(New(m, n), a, b)
}

// MatVec returns the matrix-vector product of a (m×k) and v (k) as a rank-1
// tensor of length m.
func MatVec(a, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 {
		panic(fmt.Sprintf("tensor: MatVec requires (rank-2, rank-1), got %v, %v", a.shape, v.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if k != v.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec dimensions differ: %v x %v", a.shape, v.shape))
	}
	out := New(m)
	for i := range out.Data {
		row := a.Data[i*k : (i+1)*k]
		s := 0.0
		for j, rv := range row {
			s += rv * v.Data[j]
		}
		out.Data[i] = s
	}
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank-2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	return TransposeTo(New(n, m), a)
}

// AddRowVector adds vector v (length n) to every row of a (m×n).
func AddRowVector(a, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v + %v", a.shape, v.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[i*n+j] = a.Data[i*n+j] + v.Data[j]
		}
	}
	return out
}

// Sum returns the sum over all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean over all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// SumRows returns, for a rank-2 tensor (m×n), a length-n vector holding the
// sum over rows (i.e., column sums).
func SumRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SumRows requires rank-2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j] += a.Data[i*n+j]
		}
	}
	return out
}

// SumCols returns, for a rank-2 tensor (m×n), a length-m vector holding the
// sum over columns (i.e., row sums).
func SumCols(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SumCols requires rank-2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(m)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.Data[i*n+j]
		}
		out.Data[i] = s
	}
	return out
}

// Row returns a copy of row i of a rank-2 tensor as a rank-1 tensor.
func (t *Tensor) Row(i int) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Row requires rank-2, got %v", t.shape))
	}
	n := t.shape[1]
	out := New(n)
	copy(out.Data, t.Data[i*n:(i+1)*n])
	return out
}

// SetRow copies vector v into row i of a rank-2 tensor.
func (t *Tensor) SetRow(i int, v *Tensor) {
	if t.Rank() != 2 || v.Rank() != 1 || t.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: SetRow shape mismatch %v row <- %v", t.shape, v.shape))
	}
	copy(t.Data[i*t.shape[1]:(i+1)*t.shape[1]], v.Data)
}

// Softmax returns the softmax of a rank-1 tensor, computed stably.
func Softmax(v *Tensor) *Tensor {
	if v.Rank() != 1 {
		panic(fmt.Sprintf("tensor: Softmax requires rank-1, got %v", v.shape))
	}
	out := New(v.shape...)
	max := v.Max()
	sum := 0.0
	for i, x := range v.Data {
		e := math.Exp(x - max)
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// Dot returns the inner product of two rank-1 tensors of equal length.
func Dot(a, b *Tensor) float64 {
	assertSameShape("Dot", a, b)
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor's elements.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MSE returns the mean squared error between two tensors of equal shape.
func MSE(a, b *Tensor) float64 {
	assertSameShape("MSE", a, b)
	s := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return s / float64(len(a.Data))
}

// AllClose reports whether all corresponding elements of a and b differ by at
// most tol. It returns false on shape mismatch rather than panicking, so it
// can be used inside property tests.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
