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

// GLS implements the generalized-least-squares baseline [3]-[6]: a linear
// assignment matrix A maps TOD to link volume (estimated by ridge-regularized
// least squares on the generated samples), and a small neural network is
// stacked behind it to predict speed from volume. Recovery then optimizes a
// TOD tensor through the frozen chain to match the observed speed.
type GLS struct {
	// Lambda is the ridge regularizer for the assignment matrix.
	Lambda float64
	// Hidden is the width of the volume→speed network.
	Hidden int
	// TrainEpochs trains the volume→speed network; FitEpochs optimizes the
	// recovered TOD.
	TrainEpochs, FitEpochs int
	// LR is the Adam learning rate.
	LR float64
}

// Name returns the paper's method label.
func (m *GLS) Name() string { return "GLS" }

func (m *GLS) defaults() GLS {
	return GLS{
		Lambda:      orDefault(m.Lambda, 1e-2),
		Hidden:      orDefault(m.Hidden, 32),
		TrainEpochs: orDefault(m.TrainEpochs, 60),
		FitEpochs:   orDefault(m.FitEpochs, 120),
		LR:          orDefault(m.LR, 0.02),
	}
}

// Recover estimates A, trains the speed net, and inverts the chain.
func (m *GLS) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("baselines: GLS requires training samples")
	}
	cfg := m.defaults()
	n, mm, t := c.N(), c.M(), c.T

	// 1. Assignment matrix by ridge least squares on per-interval columns.
	x, y := c.intervalDesign(func(s core.Sample) *tensor.Tensor { return s.Volume })
	assign, err := tensor.Ridge(x, y, cfg.Lambda) // (N × M)
	if err != nil {
		return nil, fmt.Errorf("baselines: GLS assignment: %w", err)
	}

	// 2. Volume→speed network on per-interval columns.
	rng := rand.New(rand.NewSource(c.Seed + 11))
	volNorm, speedNorm := sampleNorms(c.Samples)
	net := nn.MLP(rng, "gls.v2s", []int{mm, cfg.Hidden, mm}, nn.ActReLU, nn.ActSigmoid)
	train := nn.Loop{Params: net.Params(), Opt: nn.NewAdam(cfg.LR), Epochs: cfg.TrainEpochs}
	if err := c.fitPairs(ctx, train, net.Forward, func(s core.Sample) (*tensor.Tensor, *tensor.Tensor) {
		// (T × M) volume in, (T × M) speed out.
		return tensor.Scale(tensor.Transpose(s.Volume), 1/volNorm), tensor.Scale(tensor.Transpose(s.Speed), 1/speedNorm)
	}); err != nil {
		return nil, fmt.Errorf("baselines: GLS training: %w", err)
	}

	// 3. Recover TOD by gradient descent through the frozen chain. Each step
	// clamps the previous step's update into [0, MaxTrips] before the
	// forward pass, and the last update is clamped after the loop.
	for _, p := range net.Params() {
		p.SetFrozen(true)
	}
	gParam := autodiff.NewParameter("gls.G", tensor.RandUniform(rng, 0, c.MaxTrips/4, n, t))
	obs := tensor.Scale(c.SpeedObs, 1/speedNorm)
	assignT := tensor.Transpose(assign) // (M × N)
	fit := nn.Loop{Params: []*autodiff.Parameter{gParam}, Opt: nn.NewAdam(cfg.LR * 2), Steps: 1, Epochs: cfg.FitEpochs}
	if _, err := nn.Train(ctx, fit, func(g *autodiff.Graph, _ int) *autodiff.Node {
		clampInPlace(gParam.Value, 0, c.MaxTrips)
		vol := autodiff.MatMul(g.Const(assignT), g.Param(gParam)) // (M × T)
		volIn := autodiff.Transpose(autodiff.Scale(vol, 1/volNorm))
		speed := net.Forward(volIn, false) // (T × M)
		return autodiff.MSE(autodiff.Transpose(speed), obs)
	}); err != nil {
		return nil, fmt.Errorf("baselines: GLS fit: %w", err)
	}
	clampInPlace(gParam.Value, 0, c.MaxTrips)
	return gParam.Value.Clone(), nil
}
