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
// threaded through to cancel mid-build.
func NewEnv(ctx context.Context, city *dataset.City, sc Scale, seed int64) (*Env, error) {
	simCfg := sim.Config{Intervals: sc.Intervals, IntervalSec: sc.IntervalSec, Seed: seed}
	simulator := sim.New(city.Net, simCfg)
	raw, err := dataset.GenerateCtx(ctx, simulator, city, dataset.GenerateOptions{
		Count: sc.Samples,
		TOD: dataset.TODConfig{
			Intervals:       sc.Intervals,
			IntervalMinutes: sc.IntervalSec / 60,
			Scale:           sc.TODScale,
		},
		// Span light to moderately heavy congestion so the learned mappings
		// cover whatever regime the hidden observation sits in.
		ScaleJitter: [2]float64{0.5, 1.5},
		Seed:        seed + 1,
	})
	if err != nil {
		return nil, err
	}
	samples := make([]core.Sample, len(raw))
	for i, s := range raw {
		samples[i] = core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed}
	}
	gt, err := dataset.GroundTruthCtx(ctx, simulator, city, sc.GTScale, seed+2)
	if err != nil {
		return nil, err
	}
	return &Env{
		City:    city,
		SimCfg:  simCfg,
		Samples: samples,
		GT:      core.Sample{G: gt.G, Volume: gt.Volume, Speed: gt.Speed},
		Scale:   sc,
		Seed:    seed,
	}, nil
}

// NewSyntheticEnv prepares an environment on the 3×3 grid whose hidden
// ground truth follows one specific pattern (Table VIII's columns).
func NewSyntheticEnv(ctx context.Context, p dataset.Pattern, sc Scale, seed int64) (*Env, error) {
	city := dataset.SyntheticGrid(sc.ODPairs, seed+3)
	env, err := NewEnv(ctx, city, sc, seed)
	if err != nil {
		return nil, err
	}
	// Replace the ground truth with a draw from the requested pattern.
	rng := newRand(seed + 4)
	g := dataset.GenerateTOD(p, dataset.TODConfig{
		Pairs:           city.NumPairs(),
		Intervals:       sc.Intervals,
		IntervalMinutes: sc.IntervalSec / 60,
		Scale:           sc.GTScale,
	}, rng)
	res, err := sim.New(city.Net, env.SimCfg).RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
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
	return e.buildOVSModel(core.AblateNone)
}

// modelConfig calibrates the model configuration to the environment's data:
// MaxTrips from the demand range, InitTripLevel from the mean demand, and
// VolumeNorm from the occupancy range.
func (e *Env) modelConfig() core.Config {
	cfg := core.DefaultConfig()
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
	return cfg
}

func (e *Env) buildOVSModel(ab core.Ablation) (*core.Model, error) {
	pairs := make([][2]int, len(e.City.ODs))
	for i, od := range e.City.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := core.NewTopology(e.City.Net, pairs, e.SimCfg.Intervals, 1)
	if err != nil {
		return nil, err
	}
	cfg := e.modelConfig()
	if ab == core.AblateNone {
		return core.NewModel(topo, cfg), nil
	}
	return core.NewAblatedModel(topo, cfg, ab), nil
}

// RunOVS trains the full pipeline and fits the environment's observation,
// returning the recovered TOD, the trained model, and the wall-clock time.
// Cancellation is observed at the pipeline's epoch/restart boundaries.
func (e *Env) RunOVS(ctx context.Context, aux *core.AuxData) (*tensor.Tensor, *core.Model, time.Duration, error) {
	return e.runOVSVariant(ctx, core.AblateNone, aux)
}

func (e *Env) runOVSVariant(ctx context.Context, ab core.Ablation, aux *core.AuxData) (*tensor.Tensor, *core.Model, time.Duration, error) {
	m, err := e.buildOVSModel(ab)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now() //ovslint:ignore globalrand wall-clock timing is reported in tables but never feeds fitted results
	rec, err := m.TrainFullCtx(ctx, e.Samples, e.GT.Speed, e.Scale.V2SEpochs, e.Scale.T2VEpochs, e.Scale.FitEpochs, aux)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("experiment: OVS (%v): %w", ab, err)
	}
	return rec, m, time.Since(start), nil
}

// RunOVSCkpt is RunOVS with fault-tolerant checkpointing: the pipeline
// snapshots its state into opts.Dir as it goes and, when resume is set,
// continues from the newest valid checkpoint instead of starting over. It
// returns the path of the checkpoint resumed from ("" when starting fresh).
// Cancelling ctx surfaces as core.ErrInterrupted after a final checkpoint
// is written.
func (e *Env) RunOVSCkpt(ctx context.Context, aux *core.AuxData, opts core.CkptOptions, resume bool) (*tensor.Tensor, *core.Model, time.Duration, string, error) {
	m, err := e.BuildOVS()
	if err != nil {
		return nil, nil, 0, "", err
	}
	c, err := core.NewCheckpointer(m, opts)
	if err != nil {
		return nil, nil, 0, "", err
	}
	resumedFrom := ""
	if resume {
		resumedFrom, err = c.Resume()
		if err != nil {
			return nil, nil, 0, "", err
		}
	}
	start := time.Now() //ovslint:ignore globalrand wall-clock timing is reported but never feeds fitted results
	res, err := c.TrainFull(ctx, e.Samples, e.GT.Speed, e.Scale.V2SEpochs, e.Scale.T2VEpochs, e.Scale.FitEpochs, aux)
	if err != nil {
		return nil, nil, 0, resumedFrom, fmt.Errorf("experiment: OVS: %w", err)
	}
	return res.TOD, m, time.Since(start), resumedFrom, nil
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
