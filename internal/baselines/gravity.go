package baselines

import (
	"context"
	"fmt"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// Gravity implements the census-driven baseline [7], [8]: the trip count
// from region i to j is k·p_i·p_j/d_ij², constant across time intervals. The
// scale k is tuned by grid search against the observed speed (each candidate
// is simulated and scored by speed RMSE), as described in §V-F.
type Gravity struct {
	// Candidates is the number of grid-search points for k (log-spaced).
	Candidates int
}

// Name returns the paper's method label.
func (gr *Gravity) Name() string { return "Gravity" }

// Recover builds the gravity TOD and grid-searches k.
func (gr *Gravity) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Simulate == nil {
		return nil, fmt.Errorf("baselines: Gravity requires a Simulate closure")
	}
	candidates := orDefault(gr.Candidates, 8)
	// Unit-k shape: s_i = p_o·p_d/d², normalized so its max cell is 1.
	shape := make([]float64, c.N())
	maxShape := 0.0
	for i, p := range c.Pairs {
		o, d := c.Regions[p.Origin], c.Regions[p.Dest]
		dist := roadnet.RegionDistance(o, d)
		if dist < 1 {
			dist = 1
		}
		shape[i] = o.Population * d.Population / (dist * dist)
		if shape[i] > maxShape {
			maxShape = shape[i]
		}
	}
	//ovslint:ignore floateq exact zero detects all-zero degenerate populations; any nonzero maximum is usable
	if maxShape == 0 {
		return nil, fmt.Errorf("baselines: Gravity degenerate populations")
	}
	for i := range shape {
		shape[i] /= maxShape
	}

	build := func(k float64) *tensor.Tensor {
		g := tensor.New(c.N(), c.T)
		for i := range shape {
			v := k * shape[i]
			for t := 0; t < c.T; t++ {
				g.Set(v, i, t)
			}
		}
		return g
	}

	// Log-spaced k from MaxTrips/64 up to MaxTrips (per-cell peak counts).
	bestK, bestScore := 0.0, 0.0
	first := true
	k := c.MaxTrips / 64
	for cand := 0; cand < candidates; cand++ {
		g := build(k)
		speed, err := c.Simulate(ctx, g)
		if err != nil {
			return nil, fmt.Errorf("baselines: Gravity candidate %d: %w", cand, err)
		}
		score := speedRMSE(speed, c.SpeedObs)
		if first || score < bestScore {
			bestK, bestScore, first = k, score, false
		}
		k *= 2
	}
	return build(bestK), nil
}
