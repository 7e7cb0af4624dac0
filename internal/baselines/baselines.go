// Package baselines implements the six compared methods of §V-F: Gravity,
// Genetic, GLS, EM, NN, and LSTM. Every method consumes the same Context —
// the generated training triples, the observed speed tensor, and (for the
// search-based methods) a simulator closure — and produces a recovered TOD
// tensor, making the Tables VI/VIII comparison a uniform loop.
package baselines

import (
	"context"
	"fmt"
	"math"

	"ovs/internal/autodiff"
	"ovs/internal/core"
	"ovs/internal/nn"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// Context bundles everything a recovery method may consume.
type Context struct {
	// Net is the road network.
	Net *roadnet.Network
	// Regions and Pairs define the OD space; Regions carry the populations
	// the Gravity baseline needs.
	Regions []roadnet.Region
	Pairs   []roadnet.ODPair
	// T is the interval count; N and M are derived.
	T int
	// Samples are generated (TOD, volume, speed) triples for the learned
	// methods (Fig. 7 training stage).
	Samples []core.Sample
	// SpeedObs is the observed (M × T) speed tensor to invert.
	SpeedObs *tensor.Tensor
	// Simulate runs a TOD tensor through the traffic simulator, for the
	// search-based methods (Gravity's grid search, Genetic's fitness). It
	// observes ctx the way the simulator does, and a cancelled run's error
	// wraps the context's cause.
	Simulate func(ctx context.Context, g *tensor.Tensor) (speed *tensor.Tensor, err error)
	// MaxTrips bounds per-cell trip counts for search initialization.
	MaxTrips float64
	// Seed fixes stochastic behavior.
	Seed int64
}

// N returns the OD pair count.
func (c *Context) N() int { return len(c.Pairs) }

// M returns the link count.
func (c *Context) M() int { return c.Net.NumLinks() }

// Validate checks the context is complete enough for any method.
func (c *Context) Validate() error {
	if c.Net == nil || len(c.Pairs) == 0 || c.T <= 0 {
		return fmt.Errorf("baselines: incomplete context (net/pairs/T)")
	}
	if c.SpeedObs == nil || c.SpeedObs.Rank() != 2 || c.SpeedObs.Dim(0) != c.M() || c.SpeedObs.Dim(1) != c.T {
		return fmt.Errorf("baselines: speed observation must be (%d × %d)", c.M(), c.T)
	}
	if c.MaxTrips <= 0 {
		return fmt.Errorf("baselines: MaxTrips must be positive")
	}
	return nil
}

// Method recovers a TOD tensor (N × T) from the context. Recover observes
// ctx at its safe points — epoch boundaries of the learned methods, EM
// iterations, and the simulator's interval boundaries for the search
// methods — and a cancelled call returns an error wrapping the context's
// cause.
type Method interface {
	Name() string
	Recover(ctx context.Context, c *Context) (*tensor.Tensor, error)
}

// intervalDesign stacks the samples' per-interval TOD columns into the rows
// of x (samples·T × N) and the matching columns of target(sample) into the
// rows of y (samples·T × M): the design both linear baselines regress on,
// GLS's assignment matrix on volume and EM's B on speed.
func (c *Context) intervalDesign(target func(core.Sample) *tensor.Tensor) (x, y *tensor.Tensor) {
	n, m, t := c.N(), c.M(), c.T
	x = tensor.New(len(c.Samples)*t, n)
	y = tensor.New(len(c.Samples)*t, m)
	r := 0
	for _, s := range c.Samples {
		obs := target(s)
		for tt := 0; tt < t; tt++ {
			for i := 0; i < n; i++ {
				x.Set(s.G.At(i, tt), r, i)
			}
			for j := 0; j < m; j++ {
				y.Set(obs.At(j, tt), r, j)
			}
			r++
		}
	}
	return x, y
}

// speedRMSE is the fitness used by search methods: the paper's per-interval
// RMSE between a candidate's simulated speed and the observation.
func speedRMSE(pred, obs *tensor.Tensor) float64 {
	m, t := obs.Dim(0), obs.Dim(1)
	total := 0.0
	for tt := 0; tt < t; tt++ {
		sq := 0.0
		for j := 0; j < m; j++ {
			d := pred.At(j, tt) - obs.At(j, tt)
			sq += d * d
		}
		total += math.Sqrt(sq / float64(m))
	}
	return total / float64(t)
}

// sampleNorms returns normalization scales for volumes and speeds across the
// training samples (never zero).
func sampleNorms(samples []core.Sample) (volNorm, speedNorm float64) {
	for _, s := range samples {
		volNorm = math.Max(volNorm, s.Volume.Max())
		speedNorm = math.Max(speedNorm, s.Speed.Max())
	}
	if volNorm <= 0 {
		volNorm = 1
	}
	if speedNorm <= 0 {
		speedNorm = 1
	}
	return volNorm, speedNorm
}

// fitPairs trains forward under an MSE loss on one (input, target) pair per
// sample, one optimizer step per sample per epoch. pair runs once per
// sample, before the first epoch.
func (c *Context) fitPairs(ctx context.Context, l nn.Loop, forward func(x *autodiff.Node, train bool) *autodiff.Node, pair func(core.Sample) (in, target *tensor.Tensor)) error {
	inputs := make([]*tensor.Tensor, len(c.Samples))
	targets := make([]*tensor.Tensor, len(c.Samples))
	for i, s := range c.Samples {
		inputs[i], targets[i] = pair(s)
	}
	l.Steps = len(c.Samples)
	_, err := nn.Train(ctx, l, func(g *autodiff.Graph, i int) *autodiff.Node {
		return autodiff.MSE(forward(g.Const(inputs[i]), true), targets[i])
	})
	return err
}

// orDefault returns v, or def when v is not positive (an unset field).
func orDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// clampInPlace bounds every element of x to [lo, hi].
func clampInPlace(x *tensor.Tensor, lo, hi float64) {
	for i, v := range x.Data {
		if v < lo {
			x.Data[i] = lo
		} else if v > hi {
			x.Data[i] = hi
		}
	}
}
