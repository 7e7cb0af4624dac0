package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// opResult is what one op hands back for the run-level checks.
type opResult struct {
	hash uint64  // digest of every output, for the determinism check
	rmse float64 // the op's contribution to tod_rmse
}

// opFunc runs the k-th op of a workload's seed cycle.
type opFunc func(ctx context.Context, tr *tracer, k int) (opResult, error)

// workload is one closed-loop input set: set-up builds the state every op
// shares and returns the op function and the length of its seed cycle.
type workload struct {
	name    string
	workers int // pinned process-wide worker count
	setup   func(ctx context.Context, tr *tracer, seed int64) (opFunc, int, error)
}

var workloads = []workload{
	{
		name:    "grid3-recover",
		workers: 1,
		setup:   setupGrid3,
	},
	{
		name:    "manhattan-refit",
		workers: 2,
		setup:   setupManhattan,
	},
	{
		name:    "grid500-datagen",
		workers: 2,
		setup:   setupGrid500,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycleSeeds derives the n per-op seeds of a run from its seed.
func cycleSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

// recoveryScale is the effort of the recovery workloads: 5 training samples,
// 7 V2S and 5 T2V epochs, a 25-epoch fit, 5 OD pairs.
func recoveryScale() experiment.Scale {
	sc := experiment.TestScale()
	sc.Samples = 5
	sc.V2SEpochs, sc.T2VEpochs, sc.FitEpochs = 7, 5, 25
	sc.ODPairs = 5
	return sc
}

// checkEnv verifies every simulated tensor an environment holds.
func checkEnv(env *experiment.Env) error {
	minSpeed := sim.New(env.City.Net, env.SimCfg).Cfg.MinSpeed
	for i, s := range append([]core.Sample{env.GT}, env.Samples...) {
		if err := checkTraffic(env.City.Net, s.Volume, s.Speed, env.SimCfg.Intervals, minSpeed); err != nil {
			return fmt.Errorf("environment sample %d: %w", i, err)
		}
	}
	return nil
}

// ---- grid3-recover ----

// grid3Cycle is the number of distinct cities a grid3-recover run recovers;
// enough that tod_rmse, their mean, varies little from seed to seed.
const grid3Cycle = 40

func setupGrid3(ctx context.Context, tr *tracer, seed int64) (opFunc, int, error) {
	sc := recoveryScale()
	seeds := cycleSeeds(seed, grid3Cycle)
	op := func(ctx context.Context, tr *tracer, k int) (opResult, error) {
		city := dataset.SyntheticGrid(sc.ODPairs, seeds[k]+3)
		var env *experiment.Env
		err := tr.call("experiment.NewEnv", func() (err error) {
			env, err = experiment.NewEnv(ctx, city, sc, seeds[k])
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		if err := checkEnv(env); err != nil {
			return opResult{}, err
		}
		var m *core.Model
		if err := tr.call("experiment.BuildOVS", func() (err error) { m, err = env.BuildOVS(); return err }); err != nil {
			return opResult{}, err
		}
		if err := tr.call("core.TrainV2SCtx", func() error {
			_, err := m.TrainV2SCtx(ctx, env.Samples, sc.V2SEpochs)
			return err
		}); err != nil {
			return opResult{}, err
		}
		if err := tr.call("core.TrainT2VCtx", func() error {
			_, err := m.TrainT2VCtx(ctx, env.Samples, sc.T2VEpochs)
			return err
		}); err != nil {
			return opResult{}, err
		}
		return fitAndEvaluate(ctx, tr, m, env, env.GT.Speed, sc.FitEpochs, m.Cfg.FitRestarts)
	}
	return op, grid3Cycle, nil
}

// fitAndEvaluate fits m to an observed speed tensor, checks the recovery
// and scores it against env's hidden ground truth.
func fitAndEvaluate(ctx context.Context, tr *tracer, m *core.Model, env *experiment.Env, speedObs *tensor.Tensor, epochs, restarts int) (opResult, error) {
	id := tr.begin("core.FitBestCtx")
	rec, _, err := m.FitBestCtx(ctx, speedObs, epochs, restarts, nil)
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	if tr.timed() {
		tr.fit.calls++
		tr.fit.epochs += epochs * restarts
		tr.fit.restarts += restarts
		tr.fit.ms += tr.spans[id].dur()
	}
	if err := checkTOD(rec, m.Topo.N, m.Topo.T, m.Cfg.MaxTrips); err != nil {
		return opResult{}, err
	}
	var score [3]float64
	if err := tr.call("experiment.Evaluate", func() error {
		tri, err := env.Evaluate(ctx, rec)
		score = [3]float64{tri.TOD, tri.Volume, tri.Speed}
		return err
	}); err != nil {
		return opResult{}, err
	}
	d := newDigest()
	d.tensors(rec)
	d.floats(score[:]...)
	return opResult{hash: d.sum(), rmse: score[0]}, nil
}

// ---- manhattan-refit ----

const (
	// manhattanCity fixes the preset's regions, OD pairs and training data:
	// the workload models one city whose model is trained once, and the
	// run's seed draws the days it is refitted to.
	manhattanCity     = 1
	manhattanDays     = 10 // held-out days in the refit cycle, two per pattern
	manhattanEpochs   = 3
	manhattanRestarts = 2
)

func setupManhattan(ctx context.Context, tr *tracer, seed int64) (opFunc, int, error) {
	sc := recoveryScale()
	city := dataset.Manhattan(dataset.CityOptions{ODPairs: sc.ODPairs, Seed: manhattanCity})
	var env *experiment.Env
	if err := tr.call("experiment.NewEnv", func() (err error) {
		env, err = experiment.NewEnv(ctx, city, sc, manhattanCity)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := checkEnv(env); err != nil {
		return nil, 0, err
	}
	var m *core.Model
	if err := tr.call("experiment.BuildOVS", func() (err error) { m, err = env.BuildOVS(); return err }); err != nil {
		return nil, 0, err
	}
	if err := tr.call("core.TrainV2SCtx", func() error {
		_, err := m.TrainV2SCtx(ctx, env.Samples, sc.V2SEpochs)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := tr.call("core.TrainT2VCtx", func() error {
		_, err := m.TrainT2VCtx(ctx, env.Samples, sc.T2VEpochs)
		return err
	}); err != nil {
		return nil, 0, err
	}
	trained := m.TODGen.StateTensors()
	entry := make([]*tensor.Tensor, len(trained))
	for i, t := range trained {
		entry[i] = t.Clone()
	}

	// Each held-out day is a ground-truth draw of its own pattern and seed,
	// simulated once; ops score against the day's hidden demand.
	minSpeed := sim.New(city.Net, env.SimCfg).Cfg.MinSpeed
	days := make([]experiment.Env, manhattanDays)
	for d, daySeed := range cycleSeeds(seed, manhattanDays) {
		g := dataset.GenerateTOD(dataset.AllPatterns[d%len(dataset.AllPatterns)], dataset.TODConfig{
			Pairs:           city.NumPairs(),
			Intervals:       sc.Intervals,
			IntervalMinutes: sc.IntervalSec / 60,
			Scale:           sc.GTScale,
		}, rand.New(rand.NewSource(daySeed)))
		var res *sim.Result
		if err := tr.call("experiment.Simulate", func() (err error) { res, err = env.Simulate(ctx, g); return err }); err != nil {
			return nil, 0, err
		}
		if err := checkTraffic(city.Net, res.Volume, res.Speed, sc.Intervals, minSpeed); err != nil {
			return nil, 0, fmt.Errorf("day %d: %w", d, err)
		}
		days[d] = *env
		days[d].GT = core.Sample{G: g, Volume: res.Volume, Speed: res.Speed}
	}

	op := func(ctx context.Context, tr *tracer, k int) (opResult, error) {
		// Restore the trained generator so every refit starts from the same
		// state whatever ran before it.
		for i, t := range trained {
			t.CopyDataFrom(entry[i])
		}
		return fitAndEvaluate(ctx, tr, m, &days[k], days[k].GT.Speed, manhattanEpochs, manhattanRestarts)
	}
	return op, manhattanDays, nil
}

// ---- grid500-datagen ----

const (
	grid500Nodes     = 500
	grid500Pairs     = 20
	grid500Intervals = 6
	// grid500Strata splits the light-to-heavy demand scale range [0.5, 1.5)
	// into strata; the seed cycle crosses every pattern with every stratum,
	// so each run simulates the same mix of light and heavy demand.
	grid500Strata = 5
)

func setupGrid500(ctx context.Context, tr *tracer, seed int64) (opFunc, int, error) {
	net := roadnet.GridForIntersections(grid500Nodes)
	simCfg := sim.Config{Intervals: grid500Intervals, IntervalSec: 300, Routing: sim.DynamicRouting}
	minSpeed := sim.New(net, simCfg).Cfg.MinSpeed
	cycle := len(dataset.AllPatterns) * grid500Strata
	seeds := cycleSeeds(seed, cycle)

	op := func(ctx context.Context, tr *tracer, k int) (opResult, error) {
		// Each op draws its own OD pairs, so a run averages over many cities
		// of the same network.
		rng := rand.New(rand.NewSource(seeds[k]))
		regions := roadnet.Partition(net, 3, 3, rng)
		city := &dataset.City{
			Name:    fmt.Sprintf("grid-%d", grid500Nodes),
			Net:     net,
			Regions: regions,
			Kinds:   make([]dataset.RegionKind, len(regions)),
			Pairs:   roadnet.SelectODPairs(regions, grid500Pairs, rng),
		}
		city.ResolveODs()
		pairs := make([][2]int, len(city.ODs))
		for i, od := range city.ODs {
			pairs[i] = [2]int{od.Origin, od.Dest}
		}
		var topo *core.Topology
		if err := tr.call("core.NewTopology", func() (err error) {
			topo, err = core.NewTopology(net, pairs, grid500Intervals, 1)
			return err
		}); err != nil {
			return opResult{}, err
		}
		if topo.N != len(pairs) || topo.M != net.NumLinks() || len(topo.Routes) != len(pairs) {
			return opResult{}, fmt.Errorf("topology has %d ODs, %d links, %d routes; want %d, %d, %d",
				topo.N, topo.M, len(topo.Routes), len(pairs), net.NumLinks(), len(pairs))
		}
		// As dataset.GenerateCtx draws one training sample: the pattern
		// cycles, the demand scale jitters within [0.5, 1.5), and the sample
		// gets its own simulator seed.
		pattern, stratum := k%len(dataset.AllPatterns), k/len(dataset.AllPatterns)
		cfg := dataset.TODConfig{
			Pairs:           len(pairs),
			Intervals:       grid500Intervals,
			IntervalMinutes: simCfg.IntervalSec / 60,
			Scale:           0.5 + (float64(stratum)+rng.Float64())/grid500Strata,
		}
		var g *tensor.Tensor
		if err := tr.call("dataset.MixedTOD", func() error { g = dataset.MixedTOD(pattern, cfg, rng); return nil }); err != nil {
			return opResult{}, err
		}
		runner := sim.New(net, simCfg)
		runner.Cfg.Seed = seeds[k] + 7919
		res, err := tr.simRun(func() (*sim.Result, error) {
			return runner.RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
		})
		if err != nil {
			return opResult{}, err
		}
		if err := checkTraffic(net, res.Volume, res.Speed, grid500Intervals, minSpeed); err != nil {
			return opResult{}, err
		}
		d := newDigest()
		d.tensors(g, res.Volume, res.Speed)
		d.floats(float64(res.Spawned), float64(res.DijkstraCalls))
		// Nothing is recovered here, so the op's TOD RMSE is that of a zero
		// recovery: the root-mean-square generated demand.
		sumSq := 0.0
		for _, v := range g.Data {
			sumSq += v * v
		}
		return opResult{hash: d.sum(), rmse: math.Sqrt(sumSq / float64(len(g.Data)))}, nil
	}
	return op, cycle, nil
}
