package baselines

import (
	"fmt"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// LSTM implements the sequence baseline [35]: the city speed observation is
// treated as a T-step sequence of M-dimensional vectors, passed through two
// LSTM layers and a fully connected head that emits each interval's TOD
// column. Trained on the generated samples, applied to the observation.
type LSTM struct {
	// Hidden width of both LSTM layers (default 32).
	Hidden int
	// Epochs over the sample set (default 60).
	Epochs int
	// LR is the Adam learning rate.
	LR float64
}

// Name returns the paper's method label.
func (m *LSTM) Name() string { return "LSTM" }

// Recover trains the sequence model and applies it to the observation.
func (m *LSTM) Recover(ctx *Context) (*tensor.Tensor, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if len(ctx.Samples) == 0 {
		return nil, fmt.Errorf("baselines: LSTM requires training samples")
	}
	hidden := m.Hidden
	if hidden <= 0 {
		hidden = 32
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 60
	}
	lr := m.LR
	if lr <= 0 {
		lr = 0.01
	}
	n, mm := ctx.N(), ctx.M()
	_, speedNorm := sampleNorms(ctx.Samples)

	rng := rand.New(rand.NewSource(ctx.Seed + 17))
	l1 := nn.NewLSTM(rng, "lstmbase.l1", mm, hidden)
	l2 := nn.NewLSTM(rng, "lstmbase.l2", hidden, hidden)
	head := nn.NewDense(rng, "lstmbase.head", hidden, n, nn.ActSigmoid)
	params := append(append(l1.Params(), l2.Params()...), head.Params()...)

	forward := func(g *autodiff.Graph, speed *tensor.Tensor, train bool) *autodiff.Node {
		in := tensor.Scale(tensor.Transpose(speed), 1/speedNorm) // (T × M)
		h := l1.Forward(g.Const(in), 1)
		h = l2.Forward(h, 1)
		return head.Forward(h, train) // (T × N) in (0,1)
	}

	opt := nn.NewAdam(lr)
	for e := 0; e < epochs; e++ {
		for _, s := range ctx.Samples {
			g := autodiff.NewGraph()
			out := forward(g, s.Speed, true)
			target := tensor.Scale(tensor.Transpose(s.G), 1/ctx.MaxTrips)
			loss := autodiff.MSE(out, target)
			g.Backward(loss)
			nn.ClipGrads(params, 5)
			opt.Step(params)
			nn.ZeroGrads(params)
		}
	}
	g := autodiff.NewGraph()
	out := forward(g, ctx.SpeedObs, false)
	return tensor.Scale(tensor.Transpose(out.Value), ctx.MaxTrips), nil
}
