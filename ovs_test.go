package ovs_test

import (
	"context"
	"math/rand"
	"testing"

	"ovs"
)

// TestFacadeEndToEnd exercises the public API exactly as README's quickstart
// does, at a miniature scale: build a city, generate data, train, recover.
func TestFacadeEndToEnd(t *testing.T) {
	const (
		intervals   = 4
		intervalSec = 180
		seed        = 21
	)
	city := ovs.SyntheticGrid(4, seed)
	if city.Net.NumNodes() != 9 {
		t.Fatalf("grid nodes = %d", city.Net.NumNodes())
	}
	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: intervals, IntervalSec: intervalSec, Seed: seed,
	})

	rng := rand.New(rand.NewSource(seed))
	var samples []ovs.Sample
	maxTrips := 0.0
	for i := 0; i < 4; i++ {
		g := ovs.GenerateTOD(ovs.Pattern(i%5), ovs.TODConfig{
			Pairs: city.NumPairs(), Intervals: intervals,
			IntervalMinutes: intervalSec / 60, Scale: 0.6,
		}, rng)
		res, err := simulator.Run(ovs.Demand{ODs: city.ODs, G: g})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ovs.Sample{G: g, Volume: res.Volume, Speed: res.Speed})
		if g.Max() > maxTrips {
			maxTrips = g.Max()
		}
	}

	hidden := ovs.GenerateTOD(ovs.PatternGaussian, ovs.TODConfig{
		Pairs: city.NumPairs(), Intervals: intervals,
		IntervalMinutes: intervalSec / 60, Scale: 0.5,
	}, rng)
	obs, err := simulator.Run(ovs.Demand{ODs: city.ODs, G: hidden})
	if err != nil {
		t.Fatal(err)
	}

	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := ovs.NewTopology(city.Net, pairs, intervals, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ovs.DefaultModelConfig()
	cfg.MaxTrips = maxTrips * 1.2
	cfg.Seed = seed
	model := ovs.NewModel(topo, cfg)
	recovered, err := model.TrainFullCtx(context.Background(), samples, obs.Speed, 4, 3, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Dim(0) != city.NumPairs() || recovered.Dim(1) != intervals {
		t.Fatalf("recovered shape %v", recovered.Shape())
	}
	if recovered.Min() < 0 {
		t.Fatal("negative recovered trips")
	}
	// Better than the all-MaxTrips straw man, even at miniature training.
	straw := hidden.Map(func(float64) float64 { return cfg.MaxTrips })
	if ovs.TensorRMSE(recovered, hidden) >= ovs.TensorRMSE(straw, hidden) {
		t.Fatal("recovery no better than straw man")
	}
}

// TestFacadePaperConfig spot-checks the exported configuration constructors.
func TestFacadePaperConfig(t *testing.T) {
	paper := ovs.PaperModelConfig()
	if paper.LSTMHidden != 128 || paper.LR != 0.001 {
		t.Fatalf("paper config wrong: %+v", paper)
	}
	def := ovs.DefaultModelConfig()
	if def.MaxTrips <= 0 || def.Lookback <= 0 {
		t.Fatalf("default config wrong: %+v", def)
	}
}

// TestFacadeCaseStudies checks both scenario constructors through the facade.
func TestFacadeCaseStudies(t *testing.T) {
	cs1, err := ovs.CaseStudy1(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs1.Intervals != 24 || len(cs1.Focus) != 2 {
		t.Fatalf("case 1 malformed: %d intervals, %d focus", cs1.Intervals, len(cs1.Focus))
	}
	cs2, err := ovs.CaseStudy2(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Intervals != 12 || len(cs2.Focus) != 3 {
		t.Fatalf("case 2 malformed: %d intervals, %d focus", cs2.Intervals, len(cs2.Focus))
	}
}

// TestFacadeAuxConstructors checks the auxiliary data surface.
func TestFacadeAuxConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ovs.GenerateTOD(ovs.PatternPoisson, ovs.TODConfig{Pairs: 5, Intervals: 4}, rng)
	census := ovs.CensusFromTOD(g, 0.1, rng)
	if len(census.DailySum) != 5 {
		t.Fatalf("census len %d", len(census.DailySum))
	}
	tr, err := ovs.TrajectoriesFromTOD(g, 2, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.G.Dim(0) != 2 {
		t.Fatal("trajectory scaling wrong")
	}
}
