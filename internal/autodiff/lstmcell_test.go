package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// unfusedLSTMRef builds the reference graph-op LSTM over a (T × in) input
// node: hoisted input projection, then the explicit per-step op chain the
// fused cell replaces. It is the oracle every fused-path test compares
// against.
func unfusedLSTMRef(g *Graph, x, wx, wh, b *Node, hidden int) *Node {
	steps := x.Value.Dim(0)
	pre := AddRowVector(MatMul(x, wx), b)
	hMat := g.Const(g.Alloc(1, hidden))
	c := g.Const(g.Alloc(hidden))
	outs := make([]*Node, steps)
	for t := 0; t < steps; t++ {
		flat := Add(Row(pre, t), Reshape(MatMul(hMat, wh), 4*hidden))
		in := Sigmoid(SliceVec(flat, 0, hidden))
		fg := Sigmoid(SliceVec(flat, hidden, 2*hidden))
		og := Sigmoid(SliceVec(flat, 2*hidden, 3*hidden))
		gg := Tanh(SliceVec(flat, 3*hidden, 4*hidden))
		c = Add(Mul(fg, c), Mul(in, gg))
		hFlat := Mul(og, Tanh(c))
		hMat = Reshape(hFlat, 1, hidden)
		outs[t] = hFlat
	}
	return StackRows(outs)
}

// fusedLSTMRef builds the same recurrence from LSTMCell nodes over batch
// sequence-major sequences of x (batch·T × in).
func fusedLSTMRef(x, wx, wh, b *Node, batch, hidden int) *Node {
	steps := x.Value.Dim(0) / batch
	pre := AddRowVector(MatMul(x, wx), b)
	outs := make([]*Node, steps)
	var prev *Node
	for t := 0; t < steps; t++ {
		prev = LSTMCell(pre, batch, t, prev, wh, hidden)
		outs[t] = prev
	}
	return StackSteps(outs)
}

// bitsEqual compares bit patterns, treating any NaN as equal to any NaN:
// x86 NaN propagation returns the first NaN source operand, and operand order
// for commutative float ops is a compiler choice, so NaN payload/sign bits
// are the one quantity the two paths legitimately may not share. Everything
// else — signed zeros, infinities, every finite value — must match exactly.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("%s[%d]: fused %v (%#x) vs unfused %v (%#x)",
			what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// runLSTMBitwiseCase runs both paths from identical parameters and input and
// asserts the stacked outputs, the loss-weighted backward, and every
// parameter gradient are bitwise-identical.
func runLSTMBitwiseCase(t *testing.T, x *tensor.Tensor, wxT, whT, bT *tensor.Tensor, hidden int) {
	t.Helper()
	build := func(fused bool) (*tensor.Tensor, []*tensor.Tensor) {
		wx := NewParameter("wx", wxT.Clone())
		wh := NewParameter("wh", whT.Clone())
		bias := NewParameter("b", bT.Clone())
		g := NewGraph()
		defer g.Release()
		var out *Node
		if fused {
			out = fusedLSTMRef(g.Const(x), g.Param(wx), g.Param(wh), g.Param(bias), 1, hidden)
		} else {
			out = unfusedLSTMRef(g, g.Const(x), g.Param(wx), g.Param(wh), g.Param(bias), hidden)
		}
		// A non-uniform seed gradient so backward symmetry can't hide bugs:
		// scale each output element by a deterministic pattern before Sum.
		weights := g.Alloc(out.Value.Dim(0), out.Value.Dim(1))
		for i := range weights.Data {
			weights.Data[i] = float64(i%7) - 3
		}
		loss := Sum(Mul(out, g.Const(weights)))
		g.Backward(loss)
		val := out.Value.Clone()
		return val, []*tensor.Tensor{wx.Grad.Clone(), wh.Grad.Clone(), bias.Grad.Clone()}
	}

	fusedVal, fusedGrads := build(true)
	refVal, refGrads := build(false)
	requireBits(t, "output", fusedVal.Data, refVal.Data)
	for i, name := range []string{"wx.Grad", "wh.Grad", "b.Grad"} {
		requireBits(t, name, fusedGrads[i].Data, refGrads[i].Data)
	}
}

func TestLSTMCellBitwiseVsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ steps, in, hidden int }{
		{1, 3, 4},
		{5, 5, 8},
		{12, 7, 16},
		{24, 4, 32},
	} {
		x := tensor.Randn(rng, 1, tc.steps, tc.in)
		wx := tensor.Randn(rng, 0.4, tc.in, 4*tc.hidden)
		wh := tensor.Randn(rng, 0.4, tc.hidden, 4*tc.hidden)
		b := tensor.Randn(rng, 0.2, 4*tc.hidden)
		runLSTMBitwiseCase(t, x, wx, wh, b, tc.hidden)
	}
}

// TestLSTMCellBitwiseSpecialValues injects ±0, NaN, and infinities into the
// input and weights: the fused kernels must propagate non-finite values (and
// signed zeros) through the exact arithmetic the graph ops perform, not
// shortcut around them.
func TestLSTMCellBitwiseSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const steps, in, hidden = 6, 4, 8
	x := tensor.Randn(rng, 1, steps, in)
	wx := tensor.Randn(rng, 0.4, in, 4*hidden)
	wh := tensor.Randn(rng, 0.4, hidden, 4*hidden)
	b := tensor.Randn(rng, 0.2, 4*hidden)
	x.Data[0] = math.Inf(1)
	x.Data[1] = math.Inf(-1)
	x.Data[2] = math.NaN()
	x.Data[3] = math.Copysign(0, -1)
	x.Data[in] = 0
	wx.Data[5] = math.Inf(1)
	wx.Data[6] = math.NaN()
	wh.Data[3] = math.Copysign(0, -1)
	wh.Data[4] = math.Inf(-1)
	b.Data[1] = math.NaN()
	runLSTMBitwiseCase(t, x, wx, wh, b, hidden)
}

func TestLSTMCellGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const steps, in, hidden = 5, 3, 6
	x := tensor.Randn(rng, 1, steps, in)
	target := tensor.Randn(rng, 1, steps, hidden)
	wx := randParam(rng, "wx", in, 4*hidden)
	wh := randParam(rng, "wh", hidden, 4*hidden)
	b := randParam(rng, "b", 4*hidden)
	gradCheck(t, []*Parameter{wx, wh, b}, func(g *Graph) *Node {
		out := fusedLSTMRef(g.Const(x), g.Param(wx), g.Param(wh), g.Param(b), 1, hidden)
		return MSE(out, target)
	})
}

// TestLSTMCellChildTape records batch-1 cells for several sequences on one
// tape — the build the per-link Volume-Speed oracle (core's
// v2s_oracle_test.go) uses — and requires the shared weights' gradients to
// equal, bit for bit, those of every sequence run on a tape of its own,
// backward in reverse sequence order into the same parameters.
func TestLSTMCellChildTape(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const steps, in, hidden, links = 7, 3, 5, 9
	wx := NewParameter("wx", tensor.Randn(rng, 0.4, in, 4*hidden))
	wh := NewParameter("wh", tensor.Randn(rng, 0.4, hidden, 4*hidden))
	b := NewParameter("b", tensor.Randn(rng, 0.2, 4*hidden))
	xs := make([]*tensor.Tensor, links)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, steps, in)
	}
	zeroGrads := func() {
		wx.ZeroGrad()
		wh.ZeroGrad()
		b.ZeroGrad()
	}
	sequence := func(g *Graph, i int) *Node {
		return Sum(fusedLSTMRef(g.Const(xs[i]), g.Param(wx), g.Param(wh), g.Param(b), 1, hidden))
	}

	zeroGrads()
	g := NewGraph()
	defer g.Release()
	total := sequence(g, 0)
	for i := 1; i < links; i++ {
		total = Add(total, sequence(g, i))
	}
	g.Backward(total)
	whShared, wxShared := wh.Grad.Clone(), wx.Grad.Clone()

	zeroGrads()
	for i := links - 1; i >= 0; i-- {
		own := NewGraph()
		own.Backward(sequence(own, i))
		own.Release()
	}
	requireBits(t, "wh.Grad shared tape", whShared.Data, wh.Grad.Data)
	requireBits(t, "wx.Grad shared tape", wxShared.Data, wx.Grad.Data)
}

// requireClose requires every element of got to lie within tol of want,
// relative to want's largest magnitude: the bound for sums a batched GEMM
// reassociates.
func requireClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			t.Fatalf("%s[%d]: batched %v vs per-sequence %v (|Δ| %.3g > %.3g·%.3g)", what, i, got[i], want[i], d, tol, scale)
		}
	}
}

// TestLSTMCellBatchMatchesPerSequence holds the batched cell's contract: a
// batch of B sequences in one recurrence gives, row for row, bitwise the
// outputs and input gradients of B batch-1 recurrences, and the shared
// weights' gradients — the sums the batch GEMMs reassociate — agree to
// 1e-12 relative. The shapes straddle the blocked-GEMM threshold, and one
// case carries non-finite and signed-zero inputs.
func TestLSTMCellBatchMatchesPerSequence(t *testing.T) {
	for _, tc := range []struct {
		batch, steps, in, hidden int
		special                  bool
	}{
		{1, 4, 3, 5, false},
		{3, 5, 4, 8, false},
		{40, 6, 5, 24, false}, // (40×24)·(24×96) takes the blocked path
		{4, 6, 4, 8, true},
	} {
		rng := rand.New(rand.NewSource(int64(45 + tc.batch)))
		x := tensor.Randn(rng, 1, tc.batch*tc.steps, tc.in)
		wxT := tensor.Randn(rng, 0.4, tc.in, 4*tc.hidden)
		whT := tensor.Randn(rng, 0.4, tc.hidden, 4*tc.hidden)
		bT := tensor.Randn(rng, 0.2, 4*tc.hidden)
		if tc.special {
			x.Data[0] = math.Inf(1)
			x.Data[tc.steps*tc.in+1] = math.NaN()
			x.Data[2*tc.steps*tc.in+2] = math.Copysign(0, -1)
			whT.Data[3] = math.Copysign(0, -1)
		}
		weights := tensor.New(tc.batch*tc.steps, tc.hidden)
		for i := range weights.Data {
			weights.Data[i] = float64(i%7) - 3
		}

		// Batched: one recurrence over every sequence.
		xb := NewParameter("x", x.Clone())
		wx, wh, b := NewParameter("wx", wxT.Clone()), NewParameter("wh", whT.Clone()), NewParameter("b", bT.Clone())
		g := NewGraph()
		out := fusedLSTMRef(g.Param(xb), g.Param(wx), g.Param(wh), g.Param(b), tc.batch, tc.hidden)
		g.Backward(Sum(Mul(out, g.Const(weights))))

		// Per sequence: B batch-1 recurrences on one tape, sharing weights.
		rows := tc.steps * tc.in
		wx1, wh1, b1 := NewParameter("wx", wxT.Clone()), NewParameter("wh", whT.Clone()), NewParameter("b", bT.Clone())
		g1 := NewGraph()
		xs := make([]*Parameter, tc.batch)
		outs := make([]*Node, tc.batch)
		var loss *Node
		for s := range xs {
			xs[s] = NewParameter("x", tensor.FromSlice(append([]float64(nil), x.Data[s*rows:(s+1)*rows]...), tc.steps, tc.in))
			outs[s] = fusedLSTMRef(g1.Param(xs[s]), g1.Param(wx1), g1.Param(wh1), g1.Param(b1), 1, tc.hidden)
			w := tensor.FromSlice(weights.Data[s*tc.steps*tc.hidden:(s+1)*tc.steps*tc.hidden], tc.steps, tc.hidden)
			l := Sum(Mul(outs[s], g1.Const(w)))
			if loss == nil {
				loss = l
			} else {
				loss = Add(loss, l)
			}
		}
		g1.Backward(loss)

		label := fmt.Sprintf("batch=%d T=%d in=%d hidden=%d special=%v", tc.batch, tc.steps, tc.in, tc.hidden, tc.special)
		n := tc.steps * tc.hidden
		for s := range xs {
			requireBits(t, label+" output", out.Value.Data[s*n:(s+1)*n], outs[s].Value.Data)
			requireBits(t, label+" x.Grad", xb.Grad.Data[s*rows:(s+1)*rows], xs[s].Grad.Data)
		}
		if !tc.special {
			requireClose(t, label+" wx.Grad", wx.Grad.Data, wx1.Grad.Data, 1e-12)
			requireClose(t, label+" wh.Grad", wh.Grad.Data, wh1.Grad.Data, 1e-12)
			requireClose(t, label+" b.Grad", b.Grad.Data, b1.Grad.Data, 1e-12)
		}
		g.Release()
		g1.Release()
	}
}

func TestLSTMCellBatchGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const batch, steps, in, hidden = 3, 4, 2, 5
	x := randParam(rng, "x", batch*steps, in)
	target := tensor.Randn(rng, 1, batch*steps, hidden)
	wx := randParam(rng, "wx", in, 4*hidden)
	wh := randParam(rng, "wh", hidden, 4*hidden)
	b := randParam(rng, "b", 4*hidden)
	gradCheck(t, []*Parameter{x, wx, wh, b}, func(g *Graph) *Node {
		out := fusedLSTMRef(g.Param(x), g.Param(wx), g.Param(wh), g.Param(b), batch, hidden)
		return MSE(out, target)
	})
}

// TestGradStackStepsConcatCols checks the two layout ops of the batched
// recurrence: StackSteps' sequence-major row order, ConcatCols' side-by-side
// columns, and both backward rules against finite differences.
func TestGradStackStepsConcatCols(t *testing.T) {
	g := NewGraph()
	s0 := g.Const(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)) // step 0, batch 2
	s1 := g.Const(tensor.FromSlice([]float64{5, 6, 7, 8}, 2, 2)) // step 1
	got := StackSteps([]*Node{s0, s1}).Value.Data
	want := []float64{1, 2, 5, 6, 3, 4, 7, 8} // rows b·T+t
	requireBits(t, "StackSteps", got, want)
	got = ConcatCols(s0, g.Const(tensor.FromSlice([]float64{9, 10}, 2, 1))).Value.Data
	requireBits(t, "ConcatCols", got, []float64{1, 2, 9, 3, 4, 10})
	g.Release()

	rng := rand.New(rand.NewSource(47))
	a := randParam(rng, "a", 3, 2)
	b := randParam(rng, "b", 3, 2)
	c := randParam(rng, "c", 6, 1)
	target := tensor.Randn(rng, 1, 6, 5)
	gradCheck(t, []*Parameter{a, b, c}, func(g *Graph) *Node {
		steps := StackSteps([]*Node{g.Param(a), Tanh(g.Param(b))}) // (6 × 2)
		return MSE(ConcatCols(steps, g.Param(c), Sigmoid(steps)), target)
	})
}
