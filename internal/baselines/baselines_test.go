package baselines

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// buildContext assembles a small synthetic context shared by the tests: a
// 3×3 grid, 6 OD pairs, simulator-generated samples, and a ground-truth
// observation.
func buildContext(t *testing.T) (*Context, *tensor.Tensor) {
	t.Helper()
	city := dataset.SyntheticGrid(6, 21)
	simulator := sim.New(city.Net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: 3})
	raw, err := dataset.Generate(simulator, city, dataset.GenerateOptions{
		Count: 8,
		TOD:   dataset.TODConfig{Intervals: 6, IntervalMinutes: 5, Scale: 0.6},
		Seed:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]core.Sample, len(raw))
	maxTrips := 0.0
	for i, s := range raw {
		samples[i] = core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed}
		if s.G.Max() > maxTrips {
			maxTrips = s.G.Max()
		}
	}
	gt, err := dataset.GroundTruth(simulator, city, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{
		Net:      city.Net,
		Regions:  city.Regions,
		Pairs:    city.Pairs,
		T:        6,
		Samples:  samples,
		SpeedObs: gt.Speed,
		Simulate: func(ctx context.Context, g *tensor.Tensor) (*tensor.Tensor, error) {
			res, err := sim.New(city.Net, simulator.Cfg).RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
			if err != nil {
				return nil, err
			}
			return res.Speed, nil
		},
		MaxTrips: maxTrips * 1.2,
		Seed:     6,
	}
	return ctx, gt.G
}

func checkRecovery(t *testing.T, method Method, ctx *Context, gtG *tensor.Tensor, maxRMSEFactor float64) *tensor.Tensor {
	t.Helper()
	rec, err := method.Recover(context.Background(), ctx)
	if err != nil {
		t.Fatalf("%s: %v", method.Name(), err)
	}
	if rec.Dim(0) != ctx.N() || rec.Dim(1) != ctx.T {
		t.Fatalf("%s: recovered shape %v", method.Name(), rec.Shape())
	}
	if rec.Min() < 0 {
		t.Fatalf("%s: negative trip counts", method.Name())
	}
	// Sanity ceiling: better than the all-MaxTrips straw man by some margin.
	straw := gtG.Map(func(float64) float64 { return ctx.MaxTrips })
	rmse := metrics.RMSE(rec, gtG)
	strawRMSE := metrics.RMSE(straw, gtG)
	if rmse > strawRMSE*maxRMSEFactor {
		t.Fatalf("%s: RMSE %v worse than %vx straw man (%v)", method.Name(), rmse, maxRMSEFactor, strawRMSE)
	}
	return rec
}

func TestGravityRecover(t *testing.T) {
	ctx, gtG := buildContext(t)
	rec := checkRecovery(t, &Gravity{Candidates: 6}, ctx, gtG, 0.9)
	// Gravity is static: every interval column must be identical.
	for i := 0; i < ctx.N(); i++ {
		first := rec.At(i, 0)
		for tt := 1; tt < ctx.T; tt++ {
			if rec.At(i, tt) != first {
				t.Fatal("gravity TOD must be constant over time")
			}
		}
	}
}

func TestGravityRequiresSimulator(t *testing.T) {
	ctx, _ := buildContext(t)
	ctx.Simulate = nil
	if _, err := (&Gravity{}).Recover(context.Background(), ctx); err == nil {
		t.Fatal("gravity without simulator did not error")
	}
}

func TestGeneticRecoverImproves(t *testing.T) {
	ctx, gtG := buildContext(t)
	rec := checkRecovery(t, &Genetic{Population: 8, Generations: 4}, ctx, gtG, 0.9)
	// The evolved candidate must beat a random tensor on speed fitness.
	recSpeed, err := ctx.Simulate(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	randG := tensor.RandUniform(randSource(1), 0, ctx.MaxTrips, ctx.N(), ctx.T)
	randSpeed, err := ctx.Simulate(context.Background(), randG)
	if err != nil {
		t.Fatal(err)
	}
	if speedRMSE(recSpeed, ctx.SpeedObs) > speedRMSE(randSpeed, ctx.SpeedObs) {
		t.Fatal("genetic search did not beat a random candidate on fitness")
	}
}

func TestGLSRecover(t *testing.T) {
	ctx, gtG := buildContext(t)
	checkRecovery(t, &GLS{TrainEpochs: 30, FitEpochs: 60}, ctx, gtG, 0.8)
}

func TestEMRecover(t *testing.T) {
	ctx, gtG := buildContext(t)
	checkRecovery(t, &EM{Iterations: 8}, ctx, gtG, 0.8)
}

func TestNNRecover(t *testing.T) {
	ctx, gtG := buildContext(t)
	checkRecovery(t, &NN{Epochs: 40}, ctx, gtG, 0.8)
}

func TestLSTMRecover(t *testing.T) {
	ctx, gtG := buildContext(t)
	checkRecovery(t, &LSTM{Epochs: 30}, ctx, gtG, 0.8)
}

func TestLearnedMethodsNeedSamples(t *testing.T) {
	ctx, _ := buildContext(t)
	ctx.Samples = nil
	for _, m := range []Method{&GLS{}, &EM{}, &NN{}, &LSTM{}} {
		if _, err := m.Recover(context.Background(), ctx); err == nil {
			t.Fatalf("%s without samples did not error", m.Name())
		}
	}
}

// TestRecoverCancelled runs every method under an already-cancelled
// context: each must stop at its first safe point with an error wrapping
// context.Canceled.
func TestRecoverCancelled(t *testing.T) {
	c, _ := buildContext(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range pinnedMethods {
		if _, err := p.method.Recover(ctx, c); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", p.method.Name(), err)
		}
	}
}

func TestContextValidate(t *testing.T) {
	ctx, _ := buildContext(t)
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *ctx
	bad.SpeedObs = tensor.New(2, 2)
	if err := bad.Validate(); err == nil {
		t.Fatal("bad observation shape validated")
	}
	bad2 := *ctx
	bad2.MaxTrips = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero MaxTrips validated")
	}
}

func TestMethodNames(t *testing.T) {
	want := map[Method]string{
		&Gravity{}: "Gravity",
		&Genetic{}: "Genetic",
		&GLS{}:     "GLS",
		&EM{}:      "EM",
		&NN{}:      "NN",
		&LSTM{}:    "LSTM",
	}
	for m, name := range want {
		if m.Name() != name {
			t.Fatalf("Name = %q, want %q", m.Name(), name)
		}
	}
}

// randSource is a tiny helper returning a deterministic rand.Rand.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
