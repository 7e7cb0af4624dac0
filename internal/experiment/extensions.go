package experiment

import (
	"context"
	"fmt"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
	"ovs/internal/sim"
)

// Extension experiments beyond the paper's evaluation section, covering the
// design choices DESIGN.md calls out and the paper's stated future work.

// RouteChoiceResult compares single-route OVS (the paper's simplification)
// against the k-shortest route-split extension when the underlying traffic
// actually spreads over routes (dynamic routing in the simulator) — the
// "better modeling the relation between routes and TOD" the conclusion
// names as future work.
type RouteChoiceResult struct {
	// RMSE triples for k=1 and k=2 OVS variants.
	K1, K2 metrics.Triple
}

// RunRouteChoice builds an environment whose every simulation, training data
// and observation alike, uses dynamic (congestion-aware) routing, so that
// several routes per OD genuinely carry traffic, then recovers TOD with k=1
// and k=2 route splits.
func RunRouteChoice(ctx context.Context, sc Scale, seed int64) (*RouteChoiceResult, error) {
	city := dataset.SyntheticGrid(sc.ODPairs, seed+3)
	simCfg := sim.Config{Intervals: sc.Intervals, IntervalSec: sc.IntervalSec, Seed: seed, Routing: sim.DynamicRouting}
	simulator := sim.New(city.Net, simCfg)
	samples, err := generateSamples(ctx, simulator, city, sc, [2]float64{0.5, 1.5}, seed)
	if err != nil {
		return nil, err
	}
	// The hidden demand is the one NewEnv would draw (dataset.GroundTruthCtx
	// uses the same rng), observed under dynamic routing.
	g := city.GroundTruthTOD(sc.Intervals, sc.GTScale, newRand(seed+2))
	gtRes, err := simulator.RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
	if err != nil {
		return nil, err
	}
	env := &Env{
		City:    city,
		SimCfg:  simCfg,
		Samples: samples,
		GT:      core.Sample{G: g, Volume: gtRes.Volume, Speed: gtRes.Speed},
		Scale:   sc,
		Seed:    seed,
	}

	out := &RouteChoiceResult{}
	for _, k := range []int{1, 2} {
		c, err := env.trainChain(ctx, core.AblateNone, k)
		if err != nil {
			return nil, fmt.Errorf("experiment: route choice k=%d: %w", k, err)
		}
		rec, err := c.fit(ctx, env.GT.Speed, sc.FitEpochs, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: route choice k=%d: %w", k, err)
		}
		triple, err := env.Evaluate(ctx, rec)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			out.K1 = triple
		} else {
			out.K2 = triple
		}
	}
	return out, nil
}

// Render prints the route-choice comparison.
func (r *RouteChoiceResult) Render() string {
	rows := [][]string{
		{"Variant", "TOD", "vol", "speed"},
		{"OVS k=1 (paper)", fmt.Sprintf("%.2f", r.K1.TOD), fmt.Sprintf("%.2f", r.K1.Volume), fmt.Sprintf("%.2f", r.K1.Speed)},
		{"OVS k=2 routes", fmt.Sprintf("%.2f", r.K2.TOD), fmt.Sprintf("%.2f", r.K2.Volume), fmt.Sprintf("%.2f", r.K2.Speed)},
	}
	return "Extension: route-choice split under dynamic routing\n" + renderTable(rows)
}

// EngineCrossResult measures robustness to the simulator family: the chain
// is trained on mesoscopic data but the observation comes from the
// microscopic IDM engine (or vice versa), probing whether OVS depends on
// simulator internals or only on the congestion phenomenology.
type EngineCrossResult struct {
	// MesoMeso is the in-domain control; MesoMicro trains on meso and
	// observes micro.
	MesoMeso, MesoMicro metrics.Triple
}

// RunEngineCross runs the cross-engine experiment on the synthetic grid.
func RunEngineCross(ctx context.Context, sc Scale, seed int64) (*EngineCrossResult, error) {
	env, err := NewSyntheticEnv(ctx, dataset.PatternGaussian, sc, seed)
	if err != nil {
		return nil, err
	}
	out := &EngineCrossResult{}
	// One chain, trained on meso data, fits both observations.
	c, err := env.trainChain(ctx, core.AblateNone, 1)
	if err != nil {
		return nil, err
	}

	// Control: meso-trained, meso-observed (the standard pipeline).
	rec, err := c.fit(ctx, env.GT.Speed, sc.FitEpochs, nil)
	if err != nil {
		return nil, err
	}
	triple, err := env.Evaluate(ctx, rec)
	if err != nil {
		return nil, err
	}
	out.MesoMeso = triple

	// Cross: observe the same hidden TOD through the micro engine.
	microCfg := env.SimCfg
	microCfg.Engine = sim.Micro
	microRes, err := sim.New(env.City.Net, microCfg).RunCtx(ctx, sim.Demand{ODs: env.City.ODs, G: env.GT.G})
	if err != nil {
		return nil, err
	}
	rec2, err := c.fit(ctx, microRes.Speed, sc.FitEpochs, nil)
	if err != nil {
		return nil, err
	}
	// Score the recovery against the micro-engine observation world.
	crossSim := sim.New(env.City.Net, microCfg)
	recRes, err := crossSim.RunCtx(ctx, sim.Demand{ODs: env.City.ODs, G: rec2})
	if err != nil {
		return nil, err
	}
	out.MesoMicro = metrics.Triple{
		TOD:    metrics.RMSE(rec2, env.GT.G),
		Volume: metrics.RMSE(recRes.Volume, microRes.Volume),
		Speed:  metrics.RMSE(recRes.Speed, microRes.Speed),
	}
	return out, nil
}

// Render prints the cross-engine comparison.
func (r *EngineCrossResult) Render() string {
	rows := [][]string{
		{"Train → Observe", "TOD", "vol", "speed"},
		{"meso → meso", fmt.Sprintf("%.2f", r.MesoMeso.TOD), fmt.Sprintf("%.2f", r.MesoMeso.Volume), fmt.Sprintf("%.2f", r.MesoMeso.Speed)},
		{"meso → micro", fmt.Sprintf("%.2f", r.MesoMicro.TOD), fmt.Sprintf("%.2f", r.MesoMicro.Volume), fmt.Sprintf("%.2f", r.MesoMicro.Speed)},
	}
	return "Extension: cross-engine robustness (simulator mismatch)\n" + renderTable(rows)
}
