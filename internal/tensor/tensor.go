// Package tensor implements dense row-major float64 tensors and the linear
// algebra needed by the autodiff engine, the neural-network stack, and the
// statistical baselines. It is deliberately small, allocation-conscious, and
// free of external dependencies.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major float64 tensor. The zero value is not usable;
// construct tensors with New, Zeros, FromSlice, or the random constructors.
type Tensor struct {
	shape   []int
	strides []int
	Data    []float64
}

// CopyDataFrom copies src's elements into t. The two must hold the same
// number of elements; it panics otherwise.
func (t *Tensor) CopyDataFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyDataFrom length %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is non-positive, because a malformed shape is always a
// programming error in this codebase.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		Data:    make([]float64, n),
	}
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Full returns a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data into a tensor of the given shape. The slice is used
// directly (not copied); it panics if the length does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		Data:    data,
	}
}

// Randn returns a tensor with entries drawn i.i.d. from N(0, stddev^2).
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// RandUniform returns a tensor with entries drawn i.i.d. from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// Xavier returns a tensor initialized with Glorot-uniform values for a layer
// with the given fan-in and fan-out, the initialization used throughout the
// paper's architecture (sigmoid activations).
func Xavier(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, -limit, limit, shape...)
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy: handing shape itself to fmt would make the
			// parameter escape, forcing every variadic Get/New call site to
			// heap-allocate its shape literal just to cover this panic path.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		badIndex(idx, t.shape)
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			badIndex(idx, t.shape)
		}
		off += ix * t.strides[i]
	}
	return off
}

// badIndex panics for a multi-index that does not fit shape. It formats
// copies of both slices, so idx does not escape: the variadic index slice of
// At, Set and Add2 stays on the caller's stack.
//
//go:noinline
func badIndex(idx, shape []int) {
	ix, sh := append([]int(nil), idx...), append([]int(nil), shape...)
	if len(ix) != len(sh) {
		panic(fmt.Sprintf("tensor: index %v does not match rank-%d tensor", ix, len(sh)))
	}
	panic(fmt.Sprintf("tensor: index %v out of range for shape %v", ix, sh))
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

// Add2 adds v to the element at the given multi-index.
func (t *Tensor) Add2(v float64, idx ...int) {
	t.Data[t.offset(idx)] += v
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data. It
// panics when the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		Data:    t.Data,
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Apply replaces each element x with f(x), in place, and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	c := t.Clone()
	return c.Apply(f)
}

// String renders small tensors fully and large tensors by shape summary.
func (t *Tensor) String() string {
	if t.Size() > 64 {
		return fmt.Sprintf("Tensor(shape=%v, size=%d)", t.shape, t.Size())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	b.WriteString("[")
	for i, v := range t.Data {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteString("]")
	return b.String()
}
