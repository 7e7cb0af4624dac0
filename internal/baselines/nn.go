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

// NN implements the direct-regression baseline [34] as the paper describes
// it: a network of two fully connected layers that predicts the TOD tensor
// from the speed tensor. The whole (M × T) speed observation is flattened
// into one input vector and mapped to the flattened (N × T) TOD — one
// training example per generated sample.
type NN struct {
	// Hidden width (default 64).
	Hidden int
	// Epochs over the sample set (default 80).
	Epochs int
	// LR is the Adam learning rate.
	LR float64
}

// Name returns the paper's method label.
func (m *NN) Name() string { return "NN" }

// Recover trains speed→TOD regression and applies it to the observation.
func (m *NN) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("baselines: NN requires training samples")
	}
	hidden, epochs, lr := orDefault(m.Hidden, 64), orDefault(m.Epochs, 80), orDefault(m.LR, 0.01)
	n, mm, t := c.N(), c.M(), c.T
	_, speedNorm := sampleNorms(c.Samples)

	rng := rand.New(rand.NewSource(c.Seed + 13))
	net := nn.MLP(rng, "nnbase", []int{mm * t, hidden, n * t}, nn.ActSigmoid, nn.ActSigmoid)
	flatten := func(speed *tensor.Tensor) *tensor.Tensor {
		return tensor.Scale(speed, 1/speedNorm).Reshape(1, mm*t)
	}
	loop := nn.Loop{Params: net.Params(), Opt: nn.NewAdam(lr), Epochs: epochs}
	if err := c.fitPairs(ctx, loop, net.Forward, func(s core.Sample) (*tensor.Tensor, *tensor.Tensor) {
		return flatten(s.Speed), tensor.Scale(s.G, 1/c.MaxTrips).Reshape(1, n*t)
	}); err != nil {
		return nil, fmt.Errorf("baselines: NN training: %w", err)
	}
	g := autodiff.NewGraph()
	defer g.Release()
	out := net.Forward(g.Const(flatten(c.SpeedObs)), false)
	return tensor.Scale(out.Value, c.MaxTrips).Reshape(n, t), nil
}
