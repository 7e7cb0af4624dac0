package baselines

import (
	"context"
	"fmt"

	"ovs/internal/core"
	"ovs/internal/tensor"
)

// EM implements the expectation-maximization baseline [19], [33] under a
// linear-Gaussian model of the speed generation:
//
//	g_t ~ N(μ, τ² I)          (TOD prior, per interval)
//	v_t = B g_t + ε,  ε ~ N(0, σ² I)
//
// B is estimated from the generated samples by ridge regression; the E-step
// computes the Gaussian posterior mean of each interval's TOD given the
// observed speed, and the M-step re-estimates the prior mean from the
// posteriors. Iterating maximizes the likelihood of the observed speeds.
type EM struct {
	// Iterations of EM (default 15).
	Iterations int
	// Lambda is the ridge regularizer for B.
	Lambda float64
}

// Name returns the paper's method label.
func (m *EM) Name() string { return "EM" }

// Recover runs the EM loop.
func (m *EM) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("baselines: EM requires training samples")
	}
	iters, lambda := orDefault(m.Iterations, 15), orDefault(m.Lambda, 1e-2)
	n, mm, t := c.N(), c.M(), c.T

	// Estimate B: speed columns regressed on TOD columns.
	x, y := c.intervalDesign(func(s core.Sample) *tensor.Tensor { return s.Speed })
	w, err := tensor.Ridge(x, y, lambda) // (N × M)
	if err != nil {
		return nil, fmt.Errorf("baselines: EM regression: %w", err)
	}
	b := tensor.Transpose(w) // (M × N): v = B g

	// Residual variance σ² and prior (μ, τ²) from the samples.
	pred := tensor.MatMul(x, w)
	sigma2 := tensor.MSE(pred, y)
	if sigma2 < 1e-6 {
		sigma2 = 1e-6
	}
	mu := tensor.New(n)
	tau2 := 0.0
	for _, s := range c.Samples {
		for i := 0; i < n; i++ {
			mu.Data[i] += s.G.Row(i).Mean()
		}
	}
	for i := range mu.Data {
		mu.Data[i] /= float64(len(c.Samples))
	}
	for _, s := range c.Samples {
		for i := 0; i < n; i++ {
			for tt := 0; tt < t; tt++ {
				d := s.G.At(i, tt) - mu.Data[i]
				tau2 += d * d
			}
		}
	}
	tau2 /= float64(len(c.Samples) * n * t)
	if tau2 < 1e-6 {
		tau2 = 1e-6
	}

	// Precompute S = τ² B Bᵀ + σ² I (M × M), reused in every E-step solve.
	bbT := tensor.MatMul(b, tensor.Transpose(b))
	s := tensor.Scale(bbT, tau2)
	for j := 0; j < mm; j++ {
		s.Data[j*mm+j] += sigma2
	}

	g := tensor.New(n, t)
	for iter := 0; iter < iters; iter++ {
		// E-step: posterior mean per interval.
		bmu := tensor.MatVec(b, mu) // (M)
		for tt := 0; tt < t; tt++ {
			resid := tensor.New(mm)
			for j := 0; j < mm; j++ {
				resid.Data[j] = c.SpeedObs.At(j, tt) - bmu.Data[j]
			}
			z, err := tensor.Solve(s, resid)
			if err != nil {
				return nil, fmt.Errorf("baselines: EM solve interval %d: %w", tt, err)
			}
			// m_t = μ + τ² Bᵀ z
			corr := tensor.MatVec(tensor.Transpose(b), z)
			for i := 0; i < n; i++ {
				v := mu.Data[i] + tau2*corr.Data[i]
				if v < 0 {
					v = 0
				}
				if v > c.MaxTrips {
					v = c.MaxTrips
				}
				g.Set(v, i, tt)
			}
		}
		// M-step: update the prior mean from the posterior means.
		for i := 0; i < n; i++ {
			mu.Data[i] = g.Row(i).Mean()
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("baselines: EM iteration %d: %w", iter, context.Cause(ctx))
		}
	}
	return g, nil
}
