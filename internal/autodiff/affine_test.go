package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// TestAffineMatchesMatMulAddRowVector is Affine's oracle: its value and the
// gradients of x, w and b must be bitwise equal to the unfused
// AddRowVector(MatMul(x, w), b) pair. The shapes run the forward product
// on both GEMM paths: on the unpacked row kernels, with an odd last row and
// column counts off the vector width, and on the packed path, whose B (w,
// k·n elements) is past the row kernels' cache budget, with edge tiles on
// both axes and k > gemmKC so partial sums park in dst across K panels
// before the bias epilogue. The inputs carry signed zeros — including an
// all-(-0) row of x, whose empty-of-magnitude sum meets a -0 bias.
func TestAffineMatchesMatMulAddRowVector(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{3, 5, 7},      // rows: odd m, n below the vector width
		{1, 24, 96},    // rows: a single row, the LSTM input-projection width
		{37, 41, 50},   // rows: odd m, n not a multiple of 4
		{19, 300, 14},  // rows: k longer than a packed K panel
		{64, 1, 1100},  // rows: k = 1
		{17, 390, 350}, // packed: k·n = 136,500, fringe rows and columns, two K panels
	}
	negZero := math.Copysign(0, -1)
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.k*10 + sh.n)))
			xT := tensor.Randn(rng, 1, sh.m, sh.k)
			wT := tensor.Randn(rng, 1, sh.k, sh.n)
			bT := tensor.Randn(rng, 1, sh.n)
			cT := tensor.Randn(rng, 1, sh.m, sh.n)
			for j := 0; j < sh.k; j++ {
				xT.Data[j] = negZero // row 0 of x is all -0
			}
			for i := range wT.Data {
				if i%7 == 3 {
					wT.Data[i] = negZero
				}
			}
			for j := range bT.Data {
				if j%3 == 0 {
					bT.Data[j] = negZero
				}
			}
			run := func(fused bool) (val, gx, gw, gb []float64) {
				px := NewParameter("x", xT.Clone())
				pw := NewParameter("w", wT.Clone())
				pb := NewParameter("b", bT.Clone())
				g := NewGraph()
				defer g.Release()
				x, w, b := g.Param(px), g.Param(pw), g.Param(pb)
				var out *Node
				if fused {
					out = Affine(x, w, b)
				} else {
					out = AddRowVector(MatMul(x, w), b)
				}
				g.Backward(Sum(Mul(out, g.Const(cT))))
				return out.Value.Clone().Data, px.Grad.Data, pw.Grad.Data, pb.Grad.Data
			}
			wantV, wantX, wantW, wantB := run(false)
			gotV, gotX, gotW, gotB := run(true)
			requireBits(t, "value", gotV, wantV)
			requireBits(t, "dx", gotX, wantX)
			requireBits(t, "dw", gotW, wantW)
			requireBits(t, "db", gotB, wantB)
			for j := range gotV[:sh.n] {
				if math.Float64bits(gotV[j]) == math.Float64bits(negZero) {
					t.Fatalf("value[0,%d] = -0: the empty-magnitude sum +0 plus a -0 bias is +0", j)
				}
			}
		})
	}
}
