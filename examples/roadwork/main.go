// Road work robustness (RQ3, Fig. 11 of the paper): the same travel demand
// is observed through two "worlds" — a regular one and one where a third of
// the links are slowed by road work. A method that models the generation
// chain (OVS) should recover nearly the same TOD from both observations,
// while a pattern-matching inverse regression (the LSTM baseline's style)
// shifts with the changed speed field.
//
//	go run ./examples/roadwork
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ovs"
)

func main() {
	const (
		seed      = 11
		intervals = 6
	)
	city := ovs.SyntheticGrid(6, seed)

	// World 1: regular. World 2: road work slows ~1/3 of links to 45%.
	regular := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: intervals, IntervalSec: 300, Seed: seed,
	})
	work := map[int]float64{}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < city.Net.NumLinks(); j++ {
		if rng.Float64() < 0.33 {
			work[j] = 0.45
		}
	}
	roadwork := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: intervals, IntervalSec: 300, Seed: seed, RoadWork: work,
	})
	fmt.Printf("road work on %d of %d links (speed ×0.45)\n", len(work), city.Net.NumLinks())

	// One hidden demand, two observations.
	hidden := ovs.GenerateTOD(ovs.PatternGaussian, ovs.TODConfig{
		Pairs: city.NumPairs(), Intervals: intervals, IntervalMinutes: 5, Scale: 0.7,
	}, rng)
	obs1, err := regular.Run(ovs.Demand{ODs: city.ODs, G: hidden})
	if err != nil {
		log.Fatal(err)
	}
	obs2, err := roadwork.Run(ovs.Demand{ODs: city.ODs, G: hidden})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean observed speed: regular %.2f m/s, road work %.2f m/s\n",
		obs1.Speed.Mean(), obs2.Speed.Mean())

	// Train OVS once on regular-world data.
	var samples []ovs.Sample
	maxTrips := hidden.Max()
	for i := 0; i < 10; i++ {
		g := ovs.GenerateTOD(ovs.Pattern(i%5), ovs.TODConfig{
			Pairs: city.NumPairs(), Intervals: intervals,
			IntervalMinutes: 5, Scale: 0.2 + 0.15*float64(i),
		}, rng)
		res, err := regular.Run(ovs.Demand{ODs: city.ODs, G: g})
		if err != nil {
			log.Fatal(err)
		}
		samples = append(samples, ovs.Sample{G: g, Volume: res.Volume, Speed: res.Speed})
		if g.Max() > maxTrips {
			maxTrips = g.Max()
		}
	}
	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := ovs.NewTopology(city.Net, pairs, intervals, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ovs.DefaultModelConfig()
	cfg.MaxTrips = maxTrips * 1.2
	cfg.Seed = seed
	meanG, maxVol := 0.0, 0.0
	for _, s := range samples {
		meanG += s.G.Mean()
		if s.Volume.Max() > maxVol {
			maxVol = s.Volume.Max()
		}
	}
	cfg.InitTripLevel = meanG / float64(len(samples)) / cfg.MaxTrips
	cfg.VolumeNorm = maxVol / 4
	model := ovs.NewModel(topo, cfg)
	ctx := context.Background()
	if _, err := model.TrainV2SCtx(ctx, samples, 15); err != nil {
		log.Fatal(err)
	}
	if _, err := model.TrainT2VCtx(ctx, samples, 12); err != nil {
		log.Fatal(err)
	}

	// Fit the same trained mappings to each observation.
	rec1, _, err := model.FitBestCtx(ctx, obs1.Speed, 100, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	rec2, _, err := model.FitBestCtx(ctx, obs2.Speed, 100, 1, nil)
	if err != nil {
		log.Fatal(err)
	}

	div := ovs.TensorRMSE(rec1, rec2)
	err1 := ovs.TensorRMSE(rec1, hidden)
	err2 := ovs.TensorRMSE(rec2, hidden)
	fmt.Printf("\nOVS recovered-TOD divergence between worlds: %.2f trips\n", div)
	fmt.Printf("OVS recovery error: regular %.2f, road work %.2f\n", err1, err2)
	if div < err1 && div < err2 {
		fmt.Println("✓ the two recoveries agree more with each other than either errs —")
		fmt.Println("  the road-work factor did not masquerade as a demand change (Fig. 11)")
	} else {
		fmt.Println("✗ recoveries diverged more than expected; try more training epochs")
	}
}
