package experiment

import (
	"context"
	"fmt"

	"ovs/internal/baselines"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// RoadWorkResult reproduces Figure 11 / RQ3: the same hidden TOD is
// simulated through a regular simulator and through one whose volume-speed
// mapping is perturbed on some links (road work). A robust method recovers
// nearly the same TOD from both observations; a speed-pattern-matching
// method (the LSTM baseline) shifts.
type RoadWorkResult struct {
	// Divergence between the two recovered TODs, per method (lower = more
	// robust to the road-work factor).
	OVSDivergence  float64
	LSTMDivergence float64
	// Fit errors against ground truth, per scenario, as context.
	OVSRegular, OVSRoadWork   float64
	LSTMRegular, LSTMRoadWork float64
}

// RunRoadWork runs the two-simulator protocol: a random fifth of links get
// a 0.55× speed factor in the road-work simulator.
func RunRoadWork(ctx context.Context, sc Scale, seed int64) (*RoadWorkResult, error) {
	env, err := NewSyntheticEnv(ctx, dataset.PatternGaussian, sc, seed)
	if err != nil {
		return nil, err
	}
	// Road-work scenario: a fifth of the links drop to 55% speed (lane
	// closures), the regime of the paper's "some roads are under
	// maintenance". Perturbing much more than this stops being "some roads"
	// and becomes a different city, where no speed-only method can separate
	// environment from demand.
	rng := newRand(seed + 31)
	work := map[int]float64{}
	for j := 0; j < env.City.Net.NumLinks(); j++ {
		if rng.Float64() < 0.2 {
			work[j] = 0.55
		}
	}
	workCfg := env.SimCfg
	workCfg.RoadWork = work
	res2, err := sim.New(env.City.Net, workCfg).RunCtx(ctx, sim.Demand{ODs: env.City.ODs, G: env.GT.G})
	if err != nil {
		return nil, err
	}
	speedRegular := env.GT.Speed
	speedRoadWork := res2.Speed

	// OVS: train once on the regular environment, then fit each observation
	// with a fresh TOD generator. The fit uses the robust (pseudo-Huber)
	// speed loss: links whose physics changed are outliers with respect to
	// the trained chain and must not dominate the recovered demand.
	model, err := env.BuildOVS()
	if err != nil {
		return nil, err
	}
	model.Cfg.RobustDelta = 0.3
	if _, err := model.TrainV2SCtx(ctx, env.Samples, sc.V2SEpochs); err != nil {
		return nil, err
	}
	if _, err := model.TrainT2VCtx(ctx, env.Samples, sc.T2VEpochs); err != nil {
		return nil, err
	}
	fitFresh := func(obs *tensor.Tensor, reseed int64) (*tensor.Tensor, error) {
		// A truly fresh fit needs fresh generator weights, not just fresh
		// Gaussian seeds: after a previous fit the layer weights are adapted
		// to the old seeds, and new seeds through old weights start the
		// optimization saturated.
		model.TODGen = core.NewTODGenerator(model.Topo, model.Cfg, newRand(reseed))
		// Detect environment-changed links from the observation itself: a
		// link whose fastest observed interval is far below its speed limit
		// has changed physics (road work caps speed even when empty) and is
		// excluded from the fit. Demand is recovered from the rest.
		weights := make([]float64, env.City.Net.NumLinks())
		for j := range weights {
			maxObs := 0.0
			for t := 0; t < obs.Dim(1); t++ {
				if v := obs.At(j, t); v > maxObs {
					maxObs = v
				}
			}
			if maxObs >= 0.75*env.City.Net.Links[j].SpeedLimit {
				weights[j] = 1
			}
		}
		rec, _, err := model.FitBestCtx(ctx, obs, sc.FitEpochs, 1, &core.AuxData{LinkWeights: weights})
		return rec, err
	}
	ovs1, err := fitFresh(speedRegular, seed+41)
	if err != nil {
		return nil, err
	}
	ovs2, err := fitFresh(speedRoadWork, seed+42)
	if err != nil {
		return nil, err
	}

	// LSTM baseline: trained on the regular samples (training is
	// deterministic per seed, so both calls learn identical weights) and
	// applied to each observation.
	lstm := &baselines.LSTM{Epochs: sc.LSTMEpochs}
	bc1 := env.Context()
	bc1.SpeedObs = speedRegular
	l1, err := lstm.Recover(ctx, bc1)
	if err != nil {
		return nil, err
	}
	bc2 := env.Context()
	bc2.SpeedObs = speedRoadWork
	l2, err := lstm.Recover(ctx, bc2)
	if err != nil {
		return nil, err
	}

	return &RoadWorkResult{
		OVSDivergence:  metrics.RMSE(ovs1, ovs2),
		LSTMDivergence: metrics.RMSE(l1, l2),
		OVSRegular:     metrics.RMSE(ovs1, env.GT.G),
		OVSRoadWork:    metrics.RMSE(ovs2, env.GT.G),
		LSTMRegular:    metrics.RMSE(l1, env.GT.G),
		LSTMRoadWork:   metrics.RMSE(l2, env.GT.G),
	}, nil
}

// Render prints the Figure 11 comparison.
func (r *RoadWorkResult) Render() string {
	rows := [][]string{
		{"Method", "TOD divergence (regular vs road work)", "RMSE regular", "RMSE road work"},
		{"OVS", fmt.Sprintf("%.2f", r.OVSDivergence), fmt.Sprintf("%.2f", r.OVSRegular), fmt.Sprintf("%.2f", r.OVSRoadWork)},
		{"LSTM", fmt.Sprintf("%.2f", r.LSTMDivergence), fmt.Sprintf("%.2f", r.LSTMRegular), fmt.Sprintf("%.2f", r.LSTMRoadWork)},
	}
	return "Figure 11: road-work robustness of recovered TOD\n" + renderTable(rows)
}
