// Census constraint (RQ2, Fig. 10 of the paper): speed observations admit
// many TOD solutions; LEHD-like census data pins each OD pair's daily total.
// This example fits OVS twice — with and without the census auxiliary loss —
// and shows that only the constrained fit recovers daily sums near the
// census targets.
//
//	go run ./examples/census_constraint
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"ovs"
)

func main() {
	const (
		seed      = 13
		intervals = 6
	)
	city := ovs.SyntheticGrid(6, seed)
	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: intervals, IntervalSec: 300, Seed: seed,
	})

	rng := rand.New(rand.NewSource(seed))
	hidden := ovs.GenerateTOD(ovs.PatternGaussian, ovs.TODConfig{
		Pairs: city.NumPairs(), Intervals: intervals, IntervalMinutes: 5, Scale: 0.7,
	}, rng)
	obs, err := simulator.Run(ovs.Demand{ODs: city.ODs, G: hidden})
	if err != nil {
		log.Fatal(err)
	}

	// The census: noise-free daily totals per OD (Fig. 10 normalizes these
	// to 100; we keep trip units and print relative deviations).
	census := ovs.CensusFromTOD(hidden, 0, rng)

	var samples []ovs.Sample
	maxTrips := hidden.Max()
	for i := 0; i < 10; i++ {
		g := ovs.GenerateTOD(ovs.Pattern(i%5), ovs.TODConfig{
			Pairs: city.NumPairs(), Intervals: intervals,
			IntervalMinutes: 5, Scale: 0.2 + 0.15*float64(i),
		}, rng)
		res, err := simulator.Run(ovs.Demand{ODs: city.ODs, G: g})
		if err != nil {
			log.Fatal(err)
		}
		samples = append(samples, ovs.Sample{G: g, Volume: res.Volume, Speed: res.Speed})
		if g.Max() > maxTrips {
			maxTrips = g.Max()
		}
	}

	build := func() *ovs.Model {
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
		return ovs.NewModel(topo, cfg)
	}

	run := func(aux *ovs.AuxData) *ovs.Tensor {
		m := build()
		rec, err := m.TrainFullCtx(context.Background(), samples, obs.Speed, 15, 12, 100, aux)
		if err != nil {
			log.Fatal(err)
		}
		return rec
	}

	plain := run(nil)
	withCensus := run(&ovs.AuxData{CensusSum: census.DailySum, CensusWeight: 25})

	fmt.Println("per-OD daily sums (target = census):")
	fmt.Println("OD   census   no-census-fit   with-census-fit")
	devPlain, devAux := 0.0, 0.0
	for i := 0; i < city.NumPairs(); i++ {
		target := census.DailySum[i]
		p := plain.Row(i).Sum()
		a := withCensus.Row(i).Sum()
		devPlain += math.Abs(p - target)
		devAux += math.Abs(a - target)
		fmt.Printf("%2d   %6.0f   %13.0f   %15.0f\n", i, target, p, a)
	}
	fmt.Printf("\nmean |daily-sum deviation|: no census %.1f, with census %.1f\n",
		devPlain/float64(city.NumPairs()), devAux/float64(city.NumPairs()))
	if devAux < devPlain {
		fmt.Println("✓ the census constraint pulled recovered daily totals toward truth (Fig. 10)")
	} else {
		fmt.Println("✗ expected the census-constrained fit to match totals better")
	}
}
