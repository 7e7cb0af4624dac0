package experiment

import (
	"context"
	"fmt"
	"time"

	"ovs/internal/baselines"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// Env is one fully prepared evaluation environment: a city, its simulator,
// the generated training samples, and the hidden ground truth.
type Env struct {
	City    *dataset.City
	SimCfg  sim.Config
	Samples []core.Sample
	GT      core.Sample // hidden ground truth (G, Volume, Speed)
	Scale   Scale
	Seed    int64
}

// NewEnv generates the training data and ground truth for a city following
// the Fig. 7 protocol. Data generation runs many simulations, so ctx is
// threaded through to cancel mid-build. A city with no OD pair is an error.
func NewEnv(ctx context.Context, city *dataset.City, sc Scale, seed int64) (*Env, error) {
	env, simulator, err := newSampledEnv(ctx, city, sc, seed)
	if err != nil {
		return nil, err
	}
	gt, err := dataset.GroundTruthCtx(ctx, simulator, city, sc.GTScale, seed+2)
	if err != nil {
		return nil, err
	}
	env.GT = core.Sample{G: gt.G, Volume: gt.Volume, Speed: gt.Speed}
	return env, nil
}

// newSampledEnv is NewEnv without the ground truth: the environment with its
// training samples, and the simulator they ran on. The caller sets GT.
func newSampledEnv(ctx context.Context, city *dataset.City, sc Scale, seed int64) (*Env, *sim.Simulator, error) {
	if city.NumPairs() == 0 {
		return nil, nil, fmt.Errorf("experiment: city %q has no OD pair", city.Name)
	}
	simCfg := sim.Config{Intervals: sc.Intervals, IntervalSec: sc.IntervalSec, Seed: seed}
	simulator := sim.New(city.Net, simCfg)
	// Span light to moderately heavy congestion so the learned mappings
	// cover whatever regime the hidden observation sits in.
	samples, err := generateSamples(ctx, simulator, city, sc, [2]float64{0.5, 1.5}, seed)
	if err != nil {
		return nil, nil, err
	}
	return &Env{City: city, SimCfg: simCfg, Samples: samples, Scale: sc, Seed: seed}, simulator, nil
}

// generateSamples runs the Fig. 7 protocol through simulator: sc.Samples
// random TODs over sc.Intervals, their demand scale jittered within jitter,
// all drawn from seed+1.
func generateSamples(ctx context.Context, simulator *sim.Simulator, city *dataset.City, sc Scale, jitter [2]float64, seed int64) ([]core.Sample, error) {
	raw, err := dataset.GenerateCtx(ctx, simulator, city, dataset.GenerateOptions{
		Count: sc.Samples,
		TOD: dataset.TODConfig{
			Intervals:       sc.Intervals,
			IntervalMinutes: sc.IntervalSec / 60,
			Scale:           sc.TODScale,
		},
		ScaleJitter: jitter,
		Seed:        seed + 1,
	})
	if err != nil {
		return nil, err
	}
	samples := make([]core.Sample, len(raw))
	for i, s := range raw {
		samples[i] = core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed}
	}
	return samples, nil
}

// NewSyntheticEnv prepares an environment on the 3×3 grid whose hidden
// ground truth follows one specific pattern (Table VIII's columns).
func NewSyntheticEnv(ctx context.Context, p dataset.Pattern, sc Scale, seed int64) (*Env, error) {
	city := dataset.SyntheticGrid(sc.ODPairs, seed+3)
	env, _, err := newSampledEnv(ctx, city, sc, seed)
	if err != nil {
		return nil, err
	}
	// The ground truth is a draw from the requested pattern.
	rng := newRand(seed + 4)
	g := dataset.GenerateTOD(p, dataset.TODConfig{
		Pairs:           city.NumPairs(),
		Intervals:       sc.Intervals,
		IntervalMinutes: sc.IntervalSec / 60,
		Scale:           sc.GTScale,
	}, rng)
	res, err := env.Simulate(ctx, g)
	if err != nil {
		return nil, err
	}
	env.GT = core.Sample{G: g, Volume: res.Volume, Speed: res.Speed}
	return env, nil
}

// MaxTrips returns the TOD scale bound used by all recovery methods.
func (e *Env) MaxTrips() float64 {
	m := e.GT.G.Max()
	for _, s := range e.Samples {
		if s.G.Max() > m {
			m = s.G.Max()
		}
	}
	return m * 1.2
}

// Simulate runs a TOD tensor through the environment's simulator, observing
// ctx at interval boundaries.
func (e *Env) Simulate(ctx context.Context, g *tensor.Tensor) (*sim.Result, error) {
	return sim.New(e.City.Net, e.SimCfg).RunCtx(ctx, sim.Demand{ODs: e.City.ODs, G: g})
}

// Context assembles the baselines.Context view of the environment. Its
// Simulate closure runs Env.Simulate under the context the recovering
// method passes in.
func (e *Env) Context() *baselines.Context {
	return &baselines.Context{
		Net:      e.City.Net,
		Regions:  e.City.Regions,
		Pairs:    e.City.Pairs,
		T:        e.SimCfg.Intervals,
		Samples:  e.Samples,
		SpeedObs: e.GT.Speed,
		Simulate: func(ctx context.Context, g *tensor.Tensor) (*tensor.Tensor, error) {
			res, err := e.Simulate(ctx, g)
			if err != nil {
				return nil, err
			}
			return res.Speed, nil
		},
		MaxTrips: e.MaxTrips(),
		Seed:     e.Seed,
	}
}

// Evaluate computes the paper's three RMSE metrics for a recovered TOD: the
// tensor itself against ground truth, then volume and speed by feeding the
// recovery back through the simulator (§V-G).
func (e *Env) Evaluate(ctx context.Context, rec *tensor.Tensor) (metrics.Triple, error) {
	res, err := e.Simulate(ctx, rec)
	if err != nil {
		return metrics.Triple{}, err
	}
	return metrics.Triple{
		TOD:    metrics.RMSE(rec, e.GT.G),
		Volume: metrics.RMSE(res.Volume, e.GT.Volume),
		Speed:  metrics.RMSE(res.Speed, e.GT.Speed),
	}, nil
}

// BuildOVS constructs an OVS model for the environment (MaxTrips calibrated
// to the data) without training it.
func (e *Env) BuildOVS() (*core.Model, error) {
	return e.buildOVSModel(core.AblateNone, 1)
}

// buildOVSModel builds the model with the given ablation and route slots per
// OD, calibrating its configuration to the environment's data: MaxTrips from
// the demand range, InitTripLevel from the mean demand, and VolumeNorm from
// the occupancy range.
func (e *Env) buildOVSModel(ab core.Ablation, routes int) (*core.Model, error) {
	pairs := make([][2]int, len(e.City.ODs))
	for i, od := range e.City.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := core.NewTopology(e.City.Net, pairs, e.SimCfg.Intervals, routes)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.RoutesPerOD = routes
	cfg.MaxTrips = e.MaxTrips()
	meanG := 0.0
	maxVol := 0.0
	for _, s := range e.Samples {
		meanG += s.G.Mean()
		if s.Volume.Max() > maxVol {
			maxVol = s.Volume.Max()
		}
	}
	meanG /= float64(len(e.Samples))
	cfg.InitTripLevel = meanG / cfg.MaxTrips
	if maxVol > 0 {
		cfg.VolumeNorm = maxVol / 4
	}
	cfg.Seed = e.Seed + 5
	if ab == core.AblateNone {
		return core.NewModel(topo, cfg), nil
	}
	return core.NewAblatedModel(topo, cfg, ab), nil
}

// chain is an OVS model whose two mappings are trained, together with the
// TOD generator the model was built with. FitBestCtx installs its winner
// into m.TODGen, so every fit starts from a clone of entry instead: fitting
// m.TODGen again would warm-start from the previous observation's answer.
type chain struct {
	m     *core.Model
	entry core.TODGenModule
}

// trainChain builds the environment's model (see buildOVSModel) and runs the
// two training stages of Fig. 8 on its samples, once.
func (e *Env) trainChain(ctx context.Context, ab core.Ablation, routes int) (*chain, error) {
	m, err := e.buildOVSModel(ab, routes)
	if err != nil {
		return nil, err
	}
	entry := m.TODGen.CloneTODGen()
	if _, err := m.TrainV2SCtx(ctx, e.Samples, e.Scale.V2SEpochs); err != nil {
		return nil, fmt.Errorf("experiment: OVS (%v): %w", ab, err)
	}
	if _, err := m.TrainT2VCtx(ctx, e.Samples, e.Scale.T2VEpochs); err != nil {
		return nil, fmt.Errorf("experiment: OVS (%v): %w", ab, err)
	}
	return &chain{m: m, entry: entry}, nil
}

// fit recovers the TOD behind one speed observation, starting from the
// chain's entry generator, with Cfg.FitRestarts restarts.
func (c *chain) fit(ctx context.Context, obs *tensor.Tensor, epochs int, aux *core.AuxData) (*tensor.Tensor, error) {
	c.m.TODGen = c.entry.CloneTODGen()
	rec, _, err := c.m.FitBestCtx(ctx, obs, epochs, c.m.Cfg.FitRestarts, aux)
	if err != nil {
		return nil, fmt.Errorf("experiment: OVS fit: %w", err)
	}
	return rec, nil
}

// RunOVS trains the full pipeline and fits the environment's observation,
// returning the recovered TOD and the wall-clock time of building, training
// and fitting. Cancellation is observed at the pipeline's
// epoch/restart boundaries.
func (e *Env) RunOVS(ctx context.Context, aux *core.AuxData) (*tensor.Tensor, time.Duration, error) {
	start := time.Now() //ovslint:ignore globalrand wall-clock timing is reported in tables but never feeds fitted results
	c, err := e.trainChain(ctx, core.AblateNone, 1)
	if err != nil {
		return nil, 0, err
	}
	rec, err := c.fit(ctx, e.GT.Speed, e.Scale.FitEpochs, aux)
	if err != nil {
		return nil, 0, err
	}
	return rec, time.Since(start), nil
}

// RunOVSCkpt is RunOVS with fault-tolerant checkpointing: the pipeline
// snapshots its state into opts.Dir as it goes and, when resume is set,
// continues from the newest valid checkpoint instead of starting over. It
// returns the path of the checkpoint resumed from ("" when starting fresh).
// Cancelling ctx surfaces as core.ErrInterrupted after a final checkpoint
// is written.
func (e *Env) RunOVSCkpt(ctx context.Context, aux *core.AuxData, opts core.CkptOptions, resume bool) (*tensor.Tensor, time.Duration, string, error) {
	m, err := e.BuildOVS()
	if err != nil {
		return nil, 0, "", err
	}
	c, err := core.NewCheckpointer(m, opts)
	if err != nil {
		return nil, 0, "", err
	}
	resumedFrom := ""
	if resume {
		resumedFrom, err = c.Resume()
		if err != nil {
			return nil, 0, "", err
		}
	}
	start := time.Now() //ovslint:ignore globalrand wall-clock timing is reported but never feeds fitted results
	res, err := c.TrainFull(ctx, e.Samples, e.GT.Speed, e.Scale.V2SEpochs, e.Scale.T2VEpochs, e.Scale.FitEpochs, aux)
	if err != nil {
		return nil, 0, resumedFrom, fmt.Errorf("experiment: OVS: %w", err)
	}
	return res.TOD, time.Since(start), resumedFrom, nil
}

// Methods returns the six baselines configured at the environment's scale.
func (e *Env) Methods() []baselines.Method {
	sc := e.Scale
	return []baselines.Method{
		&baselines.Gravity{Candidates: sc.GravityCandidates},
		&baselines.Genetic{Population: sc.GeneticPopulation, Generations: sc.GeneticGenerations},
		&baselines.GLS{TrainEpochs: sc.GLSTrainEpochs, FitEpochs: sc.GLSFitEpochs},
		&baselines.EM{Iterations: sc.EMIterations},
		&baselines.NN{Epochs: sc.NNEpochs},
		&baselines.LSTM{Epochs: sc.LSTMEpochs},
	}
}
