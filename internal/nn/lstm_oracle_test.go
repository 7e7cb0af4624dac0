package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// forwardGraphOracle is the unfused reference for LSTM.Forward: the same
// hoisted input projection, followed by the explicit graph-op chain that one
// fused autodiff.LSTMCell node replaces per timestep. Values and gradients
// of the two must agree bit for bit (NaN payloads excepted; see
// autodiff.LSTMCell), which TestLSTMMatchesGraphOracle and FuzzLSTMCell
// hold.
func (l *LSTM) forwardGraphOracle(x *autodiff.Node) *autodiff.Node {
	g := x.Graph()
	steps := x.Value.Dim(0)
	wx, wh, b := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	pre := autodiff.AddRowVector(autodiff.MatMul(x, wx), b) // (T × 4*hidden)
	outs := make([]*autodiff.Node, steps)

	h := g.Const(g.Alloc(1, l.hidden))
	c := g.Const(g.Alloc(l.hidden))
	for step := 0; step < steps; step++ {
		flat := autodiff.Add(
			autodiff.Row(pre, step),
			autodiff.Reshape(autodiff.MatMul(h, wh), 4*l.hidden),
		)
		in := autodiff.Sigmoid(autodiff.SliceVec(flat, 0, l.hidden))
		fg := autodiff.Sigmoid(autodiff.SliceVec(flat, l.hidden, 2*l.hidden))
		og := autodiff.Sigmoid(autodiff.SliceVec(flat, 2*l.hidden, 3*l.hidden))
		gg := autodiff.Tanh(autodiff.SliceVec(flat, 3*l.hidden, 4*l.hidden))

		c = autodiff.Add(autodiff.Mul(fg, c), autodiff.Mul(in, gg))
		hFlat := autodiff.Mul(og, autodiff.Tanh(c))

		outs[step] = hFlat
		h = autodiff.Reshape(hFlat, 1, l.hidden)
	}
	return autodiff.StackRows(outs)
}

// TestLSTMMatchesGraphOracle is the deterministic counterpart of
// FuzzLSTMCell: over a shape sweep that includes the Volume-Speed LSTMs of
// core.DefaultConfig (LSTMHidden 24) and core.PaperConfig (LSTMHidden 128),
// both fed 1 volume + 4 static link features, it trains a fused and an
// oracle copy of the same LSTM for several Adam steps, each on one recycled
// Graph, and requires the outputs and all three parameter gradients to agree
// bit for bit at every step — with arena pooling on and off.
func TestLSTMMatchesGraphOracle(t *testing.T) {
	restorePool := tensor.PoolingEnabled()
	defer tensor.SetPooling(restorePool)

	const steps = 12
	shapes := []struct{ steps, in, hidden int }{
		{1, 1, 1},
		{3, 2, 4},
		{7, 4, 16},
		{steps, 5, 24},    // DefaultConfig v2s.lstm1
		{steps, 24, 24},   // DefaultConfig v2s.lstm2
		{steps, 5, 128},   // PaperConfig v2s.lstm1
		{steps, 128, 128}, // PaperConfig v2s.lstm2
	}
	for _, pooled := range []bool{true, false} {
		tensor.SetPooling(pooled)
		for _, sh := range shapes {
			label := fmt.Sprintf("pooled=%v T=%d in=%d hidden=%d", pooled, sh.steps, sh.in, sh.hidden)
			rng := rand.New(rand.NewSource(int64(7 + sh.hidden)))
			x := tensor.Randn(rng, 1, sh.steps, sh.in)
			seedWeights := tensor.Randn(rng, 1, sh.steps, sh.hidden)
			fused := NewLSTM(rand.New(rand.NewSource(3)), "lstm", sh.in, sh.hidden)
			oracle := NewLSTM(rand.New(rand.NewSource(3)), "lstm", sh.in, sh.hidden)
			fusedOpt, oracleOpt := NewAdam(0.01), NewAdam(0.01)
			fg, og := autodiff.NewGraph(), autodiff.NewGraph()

			for step := 0; step < 4; step++ {
				fg.Reset()
				og.Reset()
				fout := fused.Forward(fg.Const(x), 1)
				oout := oracle.forwardGraphOracle(og.Const(x))
				fg.Backward(autodiff.Sum(autodiff.Mul(fout, fg.Const(seedWeights))))
				og.Backward(autodiff.Sum(autodiff.Mul(oout, og.Const(seedWeights))))

				at := fmt.Sprintf("%s step %d", label, step)
				requireSameBits(t, at+" output", fout.Value.Data, oout.Value.Data)
				for i, p := range fused.Params() {
					requireSameBits(t, at+" "+p.Name+".Grad", p.Grad.Data, oracle.Params()[i].Grad.Data)
				}
				fusedOpt.Step(fused.Params())
				oracleOpt.Step(oracle.Params())
				ZeroGrads(fused.Params())
				ZeroGrads(oracle.Params())
			}
			fg.Release()
			og.Release()
		}
	}
}
