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
// fused LSTM node replaces. It is the oracle every fused-path test compares
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

// perStepLSTMRef builds the recurrence from the per-step oracle below: one
// LSTMCell node per timestep, whose cell-state gradient crosses to the
// previous step's node through a parked dcAcc slot, and a StackSteps node
// that reassembles the per-step states sequence-major. It is the build LSTM
// replaced; TestLSTMMatchesPerStepOracle holds the one node to it bit for
// bit.
func perStepLSTMRef(pre, wh *Node, batch, hidden int) *Node {
	steps := pre.Value.Dim(0) / batch
	outs := make([]*Node, steps)
	var prev *Node
	for t := 0; t < steps; t++ {
		prev = LSTMCell(pre, batch, t, prev, wh, hidden)
		outs[t] = prev
	}
	return StackSteps(outs)
}

// lstmCellExtSlots is the number of (batch × hidden) slots in a cell's
// auxiliary buffer: the forward saves [c | i | f | o | g | tanh(c)] and the
// backward parks the incoming cell-state gradient in the seventh slot
// (dcAcc), written by step t+1's backward before step t's runs (reverse tape
// order guarantees it).
const lstmCellExtSlots = 7

// LSTMCell records one fused LSTM timestep of batch independent sequences
// and returns h(t) as a (batch × hidden) node, row b for sequence b. pre is
// the hoisted input projection X·Wx+b of every sequence, shape
// (batch·T × 4*hidden) with gate order [i|f|o|g], laid out sequence-major:
// row b·T+t holds sequence b at step t. t is the timestep; prev is the
// LSTMCell node of step t-1, or nil at t=0 (zero initial state); wh is the
// (hidden × 4*hidden) recurrent weight node.
func LSTMCell(pre *Node, batch, t int, prev *Node, wh *Node, hidden int) *Node {
	h4 := 4 * hidden
	if batch <= 0 || pre.Value.Rank() != 2 || pre.Value.Dim(1) != h4 || pre.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("autodiff: LSTMCell pre shape %v, want (%d·T × %d)", pre.Value.Shape(), batch, h4))
	}
	steps := pre.Value.Dim(0) / batch
	if t < 0 || t >= steps {
		panic(fmt.Sprintf("autodiff: LSTMCell step %d out of range for %d-step pre", t, steps))
	}
	if wh.Value.Rank() != 2 || wh.Value.Dim(0) != hidden || wh.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTMCell wh shape %v, want [%d %d]", wh.Value.Shape(), hidden, h4))
	}
	bh := batch * hidden
	var g *Graph
	if prev != nil {
		pv := prev.Value
		if prev.ext == nil || len(prev.ext.Data) != lstmCellExtSlots*bh || pv.Rank() != 2 || pv.Dim(0) != batch || pv.Dim(1) != hidden {
			panic("autodiff: LSTMCell prev is not an LSTMCell node of matching batch and hidden size")
		}
		g = sameGraph("LSTMCell", pre, wh, prev)
	} else {
		g = sameGraph("LSTMCell", pre, wh)
	}

	// Slots 0–5 are written in full below before anything reads them; the
	// dcAcc slot is read by this cell's backward and written only if a step
	// t+1 backward runs, so it alone starts from zero.
	ext := g.AllocUninit(lstmCellExtSlots * bh)
	clear(ext.Data[6*bh : 7*bh])
	cv := ext.Data[0:bh]
	iv := ext.Data[bh : 2*bh]
	fv := ext.Data[2*bh : 3*bh]
	ov := ext.Data[3*bh : 4*bh]
	gv := ext.Data[4*bh : 5*bh]
	th := ext.Data[5*bh : 6*bh]

	var hPrev *tensor.Tensor
	var cPrev []float64
	var zero *tensor.Tensor
	if prev != nil {
		hPrev = prev.Value
		cPrev = prev.ext.Data[0:bh]
	} else {
		// The initial state is a genuine zero matrix, and the projection and
		// gate arithmetic run on it honestly: 0·Wh is only ±0 when Wh is
		// finite, and the unfused path computes it, so the fused one must.
		zero = tensor.Get(batch, hidden)
		hPrev, cPrev = zero, zero.Data
	}

	// The gate pre-activations land in their own slots — the i, f, o, g
	// slots are (batch × hidden) each, and i, f, o are adjacent — so the
	// nonlinearities run in place as one kernel call per (batch × gate)
	// slab: one sigmoid call covers i, f and o for the whole batch.
	hw := tensor.MatMulTo(tensor.GetUninit(batch, h4), hPrev, wh.Value)
	for b := 0; b < batch; b++ {
		preRow := pre.Value.Data[(b*steps+t)*h4 : (b*steps+t+1)*h4]
		hwd := hw.Data[b*h4 : (b+1)*h4]
		for gate, slot := range [4][]float64{iv, fv, ov, gv} {
			z := slot[b*hidden : (b+1)*hidden]
			p := preRow[gate*hidden : (gate+1)*hidden]
			q := hwd[gate*hidden : (gate+1)*hidden]
			for j := range z {
				z[j] = p[j] + q[j]
			}
		}
	}
	tensor.Put(hw)
	tensor.SigmoidSlice(ext.Data[bh:4*bh], ext.Data[bh:4*bh])
	tensor.TanhSlice(gv, gv)
	for k := range cv {
		// Two rounded products then one add: the exact association of the
		// graph path's Mul/Mul/Add (the conversions forbid FMA contraction).
		cv[k] = float64(fv[k]*cPrev[k]) + float64(iv[k]*gv[k])
	}
	tensor.TanhSlice(th, cv)
	val := g.AllocUninit(batch, hidden)
	for k, o := range ov {
		val.Data[k] = o * th[k]
	}
	if zero != nil {
		tensor.Put(zero)
	}

	req := pre.requires || wh.requires || (prev != nil && prev.requires)
	out := g.newNode(val, req)
	out.backFn, out.a, out.b, out.c = backLSTMCell, prev, pre, wh
	out.ext, out.i0, out.i1 = ext, t, hidden
	return out
}

// backLSTMCell is the fused backward rule of one batched LSTM step. out.Grad
// holds the total dL/dH(t): the sequence-consumer contribution (StackSteps'
// row gradients) plus DG(t+1)·Whᵀ, which step t+1's backward accumulated
// into this node before the reverse sweep reached it — the same two adds, in
// the same order, the unfused graph performs. The incoming cell-state
// gradient dL/dC(t) waits in this cell's dcAcc slot, parked there by step
// t+1.
//
// Every "0 +" below marks a point where the graph path materializes an
// intermediate gradient by accumulating into a freshly zeroed buffer; the add
// flushes a negative zero to +0 exactly as the unfused accumulation does.
func backLSTMCell(out *Node) {
	prev, pre, wh := out.a, out.b, out.c
	hidden, t := out.i1, out.i0
	batch := out.Value.Dim(0)
	steps := pre.Value.Dim(0) / batch
	h4 := 4 * hidden
	bh := batch * hidden
	ext := out.ext.Data
	iv := ext[bh : 2*bh]
	fv := ext[2*bh : 3*bh]
	ov := ext[3*bh : 4*bh]
	gv := ext[4*bh : 5*bh]
	th := ext[5*bh : 6*bh]
	dcAcc := ext[6*bh : 7*bh]
	grad := out.Grad.Data

	var hPrev *tensor.Tensor
	var cPrev, prevDc []float64
	var zero *tensor.Tensor
	if prev != nil {
		hPrev = prev.Value
		cPrev = prev.ext.Data[0:bh]
		if prev.requires {
			prevDc = prev.ext.Data[6*bh : 7*bh]
		}
	} else {
		zero = tensor.Get(batch, hidden)
		hPrev, cPrev = zero, zero.Data
	}

	dg := tensor.GetUninit(batch, h4) // every gate column is written below
	for b := 0; b < batch; b++ {
		dgd := dg.Data[b*h4 : (b+1)*h4]
		o := b * hidden
		for j := 0; j < hidden; j++ {
			k := o + j
			gj := grad[k]
			tj, oj := th[k], ov[k]
			ij, fj, ggj := iv[k], fv[k], gv[k]
			do := 0 + gj*tj  // o-gate output grad (fresh += G·tanh(c))
			dth := 0 + gj*oj // tanh(c) grad (fresh += G·o)
			// dc = parked dc(t+1) contribution, then the fused tanh-backward
			// add.
			dc := dcAcc[k] + dth*(1-tj*tj)
			dcF := 0 + dc // the fresh Add-backward copies both Mul grads receive
			dgd[j] = 0 + (0+dcF*ggj)*ij*(1-ij)
			dgd[hidden+j] = 0 + (0+dcF*cPrev[k])*fj*(1-fj)
			dgd[2*hidden+j] = 0 + do*oj*(1-oj)
			dgd[3*hidden+j] = 0 + (0+dcF*ij)*(1-ggj*ggj)
			if prevDc != nil {
				prevDc[k] = 0 + dcF*fj // parked for step t-1's backward
			}
		}
	}

	// dH(t-1) += DG·Whᵀ — skipped at t=0, where the unfused path's h(0) is a
	// gradient-free Const leaf.
	if prev != nil && prev.requires {
		tensor.MatMulNTAcc(prev.ensureGrad(), dg, wh.Value)
	}
	// dWh += H(t-1)ᵀ·DG — at t=0 H(t-1) is the zero matrix and the unfused
	// path still accumulates the ±0 products; reproduce that rather than
	// skip it.
	if wh.requires {
		tensor.MatMulTNAcc(wh.ensureGrad(), hPrev, dg)
	}
	if pre.requires {
		pg := pre.ensureGrad().Data
		for b := 0; b < batch; b++ {
			prow := pg[(b*steps+t)*h4 : (b*steps+t+1)*h4]
			for j, v := range dg.Data[b*h4 : (b+1)*h4] {
				prow[j] += v
			}
		}
	}
	tensor.Put(dg)
	if zero != nil {
		tensor.Put(zero)
	}
}

func backStackSteps(out *Node) {
	n := out.Value.Dim(1)
	steps := len(out.srcs)
	for t, s := range out.srcs {
		if !s.requires {
			continue
		}
		gs := s.ensureGrad().Data
		for b := 0; b < s.Value.Dim(0); b++ {
			row := out.Grad.Data[(b*steps+t)*n : (b*steps+t+1)*n]
			gr := gs[b*n : (b+1)*n]
			for j, v := range row {
				gr[j] += v
			}
		}
	}
}

// StackSteps assembles the per-timestep outputs of a batched recurrence into
// one sequence-major node: every steps[t] is (batch × n), and row b·T+t of
// the (batch·T × n) result is row b of steps[t], so each sequence's T rows
// are contiguous. With batch 1 it stacks the steps' single rows in order, as
// StackRows does.
func StackSteps(steps []*Node) *Node {
	if len(steps) == 0 {
		panic("autodiff: StackSteps requires at least one step")
	}
	g := sameGraph("StackSteps", steps...)
	first := steps[0].Value
	req := false
	for t, s := range steps {
		if first.Rank() != 2 || !s.Value.SameShape(first) {
			panic(fmt.Sprintf("autodiff: StackSteps step %d shape %v, want a rank-2 %v", t, s.Value.Shape(), first.Shape()))
		}
		req = req || s.requires
	}
	batch, n := first.Dim(0), first.Dim(1)
	// Every row b·T+t is copied from exactly one step below.
	val := g.AllocUninit(batch*len(steps), n)
	for t, s := range steps {
		for b := 0; b < batch; b++ {
			copy(val.Data[(b*len(steps)+t)*n:(b*len(steps)+t+1)*n], s.Value.Data[b*n:(b+1)*n])
		}
	}
	out := g.newNode(val, req)
	out.backFn, out.srcs = backStackSteps, steps
	return out
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
			out = LSTM(g.Const(x), g.Param(wx), g.Param(bias), g.Param(wh), 1, hidden)
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
		out := LSTM(g.Const(x), g.Param(wx), g.Param(b), g.Param(wh), 1, hidden)
		return MSE(out, target)
	})
}

// TestLSTMCellChildTape records batch-1 LSTM nodes for several sequences on
// one tape — the build the per-link Volume-Speed oracle (core's
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
		return Sum(LSTM(g.Const(xs[i]), g.Param(wx), g.Param(b), g.Param(wh), 1, hidden))
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

// TestLSTMCellBatchMatchesPerSequence holds the batched node's contract: a
// batch of B sequences in one recurrence gives, row for row, bitwise the
// outputs and input gradients of B batch-1 recurrences, and the shared
// weights' gradients — the sums the batch GEMMs reassociate — agree to
// 1e-12 relative. One case carries non-finite and signed-zero inputs.
func TestLSTMCellBatchMatchesPerSequence(t *testing.T) {
	for _, tc := range []struct {
		batch, steps, in, hidden int
		special                  bool
	}{
		{1, 4, 3, 5, false},
		{3, 5, 4, 8, false},
		{40, 6, 5, 24, false}, // the production hidden width, 40 links
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
		out := LSTM(g.Param(xb), g.Param(wx), g.Param(b), g.Param(wh), tc.batch, tc.hidden)
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
			outs[s] = LSTM(g1.Param(xs[s]), g1.Param(wx1), g1.Param(b1), g1.Param(wh1), 1, tc.hidden)
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
		out := LSTM(g.Param(x), g.Param(wx), g.Param(b), g.Param(wh), batch, hidden)
		return MSE(out, target)
	})
}

// TestLSTMMatchesPerStepOracle holds the one-node layer to the per-step
// oracle it replaced — an Affine node, one LSTMCell node per step and a
// StackSteps node: output, input gradient and every parameter gradient — dWh
// included — bitwise, NaN payloads excepted. The sweep covers batch
// {1, 3, 8} × T {1, 2, 7} × hidden {5, 48}, and the production widths:
// hidden 24 over T 6 at batch 24 and 40, where the gate rows (96 columns)
// and the dH product (24 columns) fill whole vector chunks. Every shape
// also runs with signed zeros, infinities and a NaN planted in the input
// and weights.
func TestLSTMMatchesPerStepOracle(t *testing.T) {
	const in = 3
	type shape struct{ batch, steps, hidden int }
	var shapes []shape
	for _, batch := range []int{1, 3, 8} {
		for _, steps := range []int{1, 2, 7} {
			for _, hidden := range []int{5, 48} {
				shapes = append(shapes, shape{batch, steps, hidden})
			}
		}
	}
	shapes = append(shapes, shape{24, 6, 24}, shape{40, 6, 24})
	for _, sh := range shapes {
		batch, steps, hidden := sh.batch, sh.steps, sh.hidden
		for _, special := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(100*batch + 10*steps + hidden)))
			xT := tensor.Randn(rng, 1, batch*steps, in)
			wxT := tensor.Randn(rng, 0.4, in, 4*hidden)
			whT := tensor.Randn(rng, 0.4, hidden, 4*hidden)
			bT := tensor.Randn(rng, 0.2, 4*hidden)
			if special {
				// One NaN, in a middle row, so the other rows' values stay
				// finite.
				xT.Data[0] = math.Copysign(0, -1)
				xT.Data[len(xT.Data)-1] = math.Inf(1)
				xT.Data[len(xT.Data)/2] = math.NaN()
				wxT.Data[1] = math.Inf(-1)
				whT.Data[2] = math.Copysign(0, -1)
				bT.Data[hidden] = math.Copysign(0, -1)
			}
			weights := tensor.New(batch*steps, hidden)
			for i := range weights.Data {
				weights.Data[i] = float64(i%7) - 3
			}
			build := func(oneNode bool) []*tensor.Tensor {
				x := NewParameter("x", xT.Clone())
				wx, wh, b := NewParameter("wx", wxT.Clone()), NewParameter("wh", whT.Clone()), NewParameter("b", bT.Clone())
				g := NewGraph()
				defer g.Release()
				var out *Node
				if oneNode {
					out = LSTM(g.Param(x), g.Param(wx), g.Param(b), g.Param(wh), batch, hidden)
				} else {
					out = perStepLSTMRef(Affine(g.Param(x), g.Param(wx), g.Param(b)), g.Param(wh), batch, hidden)
				}
				g.Backward(Sum(Mul(out, g.Const(weights))))
				return []*tensor.Tensor{out.Value.Clone(), x.Grad, wx.Grad, wh.Grad, b.Grad}
			}
			got, want := build(true), build(false)
			label := fmt.Sprintf("batch=%d T=%d hidden=%d special=%v", batch, steps, hidden, special)
			for i, name := range []string{"output", "x.Grad", "wx.Grad", "wh.Grad", "b.Grad"} {
				requireBits(t, label+" "+name, got[i].Data, want[i].Data)
			}
		}
	}
}

// TestLSTMInputGradBothOrders holds the input gradient of a layer whose
// input has a second consumer (a weighted sum) to the per-step oracle,
// bitwise with NaN payloads excepted. The consumer is recorded once before
// the LSTM node, so the node's backward adds its dX product to a fresh
// gradient and the consumer adds after it, and once after the node, so the
// consumer's gradient is already there when the node adds to it. Signed
// zeros, infinities and a NaN are planted in the input, the weights and the
// consumer's weights.
func TestLSTMInputGradBothOrders(t *testing.T) {
	const in, hidden = 3, 5
	for _, batch := range []int{1, 3} {
		for _, steps := range []int{1, 4} {
			for _, special := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(300 + 10*batch + steps)))
				xT := tensor.Randn(rng, 1, batch*steps, in)
				wxT := tensor.Randn(rng, 0.4, in, 4*hidden)
				whT := tensor.Randn(rng, 0.4, hidden, 4*hidden)
				bT := tensor.Randn(rng, 0.2, 4*hidden)
				side := tensor.Randn(rng, 1, batch*steps, in)
				if special {
					xT.Data[0] = math.Copysign(0, -1)
					xT.Data[len(xT.Data)-1] = math.Inf(-1)
					xT.Data[len(xT.Data)/2] = math.NaN()
					wxT.Data[2] = math.Inf(1)
					whT.Data[1] = math.Copysign(0, -1)
					bT.Data[0] = math.Copysign(0, -1)
					side.Data[0] = math.Copysign(0, -1)
					side.Data[1] = math.Inf(1)
				}
				weights := tensor.New(batch*steps, hidden)
				for i := range weights.Data {
					weights.Data[i] = float64(i%5) - 2
				}
				for _, after := range []bool{false, true} {
					build := func(oneNode bool) []*tensor.Tensor {
						x := NewParameter("x", xT.Clone())
						wx, wh, b := NewParameter("wx", wxT.Clone()), NewParameter("wh", whT.Clone()), NewParameter("b", bT.Clone())
						g := NewGraph()
						defer g.Release()
						xn := g.Param(x)
						var other *Node
						if !after {
							other = Sum(Mul(xn, g.Const(side)))
						}
						var out *Node
						if oneNode {
							out = LSTM(xn, g.Param(wx), g.Param(b), g.Param(wh), batch, hidden)
						} else {
							out = perStepLSTMRef(Affine(xn, g.Param(wx), g.Param(b)), g.Param(wh), batch, hidden)
						}
						if after {
							other = Sum(Mul(xn, g.Const(side)))
						}
						g.Backward(Add(Sum(Mul(out, g.Const(weights))), other))
						return []*tensor.Tensor{out.Value.Clone(), x.Grad, wx.Grad, wh.Grad, b.Grad}
					}
					got, want := build(true), build(false)
					label := fmt.Sprintf("batch=%d T=%d special=%v consumer after=%v", batch, steps, special, after)
					for i, name := range []string{"output", "x.Grad", "wx.Grad", "wh.Grad", "b.Grad"} {
						requireBits(t, label+" "+name, got[i].Data, want[i].Data)
					}
				}
			}
		}
	}
}

// TestGradConcatCols checks ConcatCols' side-by-side columns and its backward
// rule against finite differences.
func TestGradConcatCols(t *testing.T) {
	g := NewGraph()
	s0 := g.Const(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	got := ConcatCols(s0, g.Const(tensor.FromSlice([]float64{9, 10}, 2, 1))).Value.Data
	requireBits(t, "ConcatCols", got, []float64{1, 2, 9, 3, 4, 10})
	g.Release()

	rng := rand.New(rand.NewSource(47))
	a := randParam(rng, "a", 6, 2)
	c := randParam(rng, "c", 6, 1)
	target := tensor.Randn(rng, 1, 6, 5)
	gradCheck(t, []*Parameter{a, c}, func(g *Graph) *Node {
		x := Tanh(g.Param(a))
		return MSE(ConcatCols(x, g.Param(c), Sigmoid(x)), target)
	})
}
