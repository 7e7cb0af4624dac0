package baselines

import (
	"context"
	"fmt"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/core"
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
func (m *LSTM) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("baselines: LSTM requires training samples")
	}
	hidden, epochs, lr := orDefault(m.Hidden, 32), orDefault(m.Epochs, 60), orDefault(m.LR, 0.01)
	n, mm := c.N(), c.M()
	_, speedNorm := sampleNorms(c.Samples)

	rng := rand.New(rand.NewSource(c.Seed + 17))
	l1 := nn.NewLSTM(rng, "lstmbase.l1", mm, hidden)
	l2 := nn.NewLSTM(rng, "lstmbase.l2", hidden, hidden)
	head := nn.NewDense(rng, "lstmbase.head", hidden, n, nn.ActSigmoid)
	params := append(append(l1.Params(), l2.Params()...), head.Params()...)

	// seq turns an (M × T) speed tensor into the (T × M) normalized input.
	seq := func(speed *tensor.Tensor) *tensor.Tensor {
		return tensor.Scale(tensor.Transpose(speed), 1/speedNorm)
	}
	forward := func(x *autodiff.Node, train bool) *autodiff.Node {
		h := l2.Forward(l1.Forward(x, 1), 1)
		return head.Forward(h, train) // (T × N) in (0,1)
	}
	loop := nn.Loop{Params: params, Opt: nn.NewAdam(lr), Clip: 5, Epochs: epochs}
	if err := c.fitPairs(ctx, loop, forward, func(s core.Sample) (*tensor.Tensor, *tensor.Tensor) {
		return seq(s.Speed), tensor.Scale(tensor.Transpose(s.G), 1/c.MaxTrips)
	}); err != nil {
		return nil, fmt.Errorf("baselines: LSTM training: %w", err)
	}
	g := autodiff.NewGraph()
	defer g.Release()
	out := forward(g.Const(seq(c.SpeedObs)), false)
	return tensor.Scale(tensor.Transpose(out.Value), c.MaxTrips), nil
}
