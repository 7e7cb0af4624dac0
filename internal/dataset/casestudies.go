package dataset

import (
	"fmt"
	"math/rand"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// CaseStudy packages a real-world-style scenario: a city, a ground-truth TOD
// tensor with an interpretable temporal story, and named focus OD pairs whose
// recovered series the paper plots (Figures 12 and 13).
//
// The paper drives these from Gaode/Google Maps speed feeds; here the speed
// observation is produced by simulating the scenario TOD, which preserves
// the recovery task exactly (the model still sees only speed).
type CaseStudy struct {
	Name      string
	City      *City
	G         *tensor.Tensor // ground-truth TOD (N_od × T)
	Intervals int
	StartHour int            // wall-clock hour of interval 0
	Focus     map[string]int // named OD pair indices, e.g. "A->B"
}

// HourOf returns the wall-clock hour label of interval t.
func (cs *CaseStudy) HourOf(t int) int { return (cs.StartHour + t) % 24 }

// ensurePair returns the index of (origin, dest) in the city's pair list,
// appending the pair (and re-anchoring) if absent.
func ensurePair(c *City, origin, dest int) int {
	for i, p := range c.Pairs {
		if p.Origin == origin && p.Dest == dest {
			return i
		}
	}
	c.Pairs = append(c.Pairs, roadnet.ODPair{Origin: origin, Dest: dest})
	c.resolveODs()
	return len(c.Pairs) - 1
}

// firstRegionOfKind returns the lowest-ID region of the given kind, or -1.
func firstRegionOfKind(c *City, kind RegionKind) int {
	for i, k := range c.Kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

func nthRegionOfKind(c *City, kind RegionKind, n int) int {
	seen := 0
	for i, k := range c.Kinds {
		if k == kind {
			if seen == n {
				return i
			}
			seen++
		}
	}
	return -1
}

// CaseStudy1 builds the Hangzhou Sunday scenario of Fig. 12: 24 hourly
// intervals; trips residential A → commercial B peak around 10 am and 6 pm
// (shopping), while B → A peaks from 8 pm to 1 am (late return home).
// scale shrinks trip counts for fast simulation.
func CaseStudy1(scale float64, seed int64) (*CaseStudy, error) {
	city := Hangzhou(CityOptions{Seed: seed})
	a := firstRegionOfKind(city, KindResidential)
	b := firstRegionOfKind(city, KindCommercial)
	if a < 0 || b < 0 {
		return nil, fmt.Errorf("dataset: Hangzhou preset lacks residential/commercial regions")
	}
	ab := ensurePair(city, a, b)
	ba := ensurePair(city, b, a)

	if scale <= 0 {
		scale = 1
	}
	const T = 24
	rng := rand.New(rand.NewSource(seed + 9))
	g := backgroundTOD(city, T, scale*0.4, rng)
	for t := 0; t < T; t++ {
		h := float64(t) // StartHour = 0
		// A->B: shopping peaks at 10:00 and 18:00. Amplitudes are sized so
		// the peaks visibly congest the larger Hangzhou-scale network.
		ab10 := 90 * bump(h, 10, 1.5)
		ab18 := 72 * bump(h, 18, 1.5)
		g.Set((6+ab10+ab18)*scale*(1+0.1*rng.NormFloat64()), ab, t)
		// B->A: going home 20:00 .. 01:00 (wraps past midnight).
		back := 84*bump(h, 21.5, 2.0) + 84*bump(h+24, 21.5, 2.0)
		g.Set((5+back)*scale*(1+0.1*rng.NormFloat64()), ba, t)
	}
	clampNonNegative(g)
	return &CaseStudy{
		Name:      "Hangzhou Sunday (Case 1)",
		City:      city,
		G:         g,
		Intervals: T,
		StartHour: 0,
		Focus:     map[string]int{"A->B": ab, "B->A": ba},
	}, nil
}

// CaseStudy2 builds the football Saturday scenario of Fig. 13 on the State
// College preset: 12 hourly intervals from 6 am; the game starts at noon and
// trips toward the stadium peak around 9 am. O1 and O3 are highway-gate
// origins (out-of-town fans) and carry much more traffic than the local
// residential O2.
func CaseStudy2(scale float64, seed int64) (*CaseStudy, error) {
	city := StateCollege(CityOptions{Seed: seed})
	stadium := firstRegionOfKind(city, KindStadium)
	o1 := nthRegionOfKind(city, KindGate, 0)
	o3 := nthRegionOfKind(city, KindGate, 1)
	o2 := firstRegionOfKind(city, KindResidential)
	if stadium < 0 || o1 < 0 || o2 < 0 {
		return nil, fmt.Errorf("dataset: StateCollege preset lacks stadium/gate/residential regions")
	}
	if o3 < 0 {
		o3 = o1 // degenerate fallback; the preset normally has two gates
	}
	i1 := ensurePair(city, o1, stadium)
	i2 := ensurePair(city, o2, stadium)
	i3 := ensurePair(city, o3, stadium)

	if scale <= 0 {
		scale = 1
	}
	const T = 12 // 6:00 .. 18:00
	rng := rand.New(rand.NewSource(seed + 10))
	g := backgroundTOD(city, T, scale*0.3, rng)
	for t := 0; t < T; t++ {
		h := float64(t + 6)
		surge := bump(h, 9, 1.2) // arrive ~2h before the noon kickoff
		g.Set((2+60*surge)*scale*(1+0.1*rng.NormFloat64()), i1, t)
		g.Set((2+18*surge)*scale*(1+0.1*rng.NormFloat64()), i2, t)
		g.Set((2+55*surge)*scale*(1+0.1*rng.NormFloat64()), i3, t)
	}
	clampNonNegative(g)
	return &CaseStudy{
		Name:      "Football Saturday (Case 2)",
		City:      city,
		G:         g,
		Intervals: T,
		StartHour: 6,
		Focus:     map[string]int{"O1->Stadium": i1, "O2->Stadium": i2, "O3->Stadium": i3},
	}, nil
}

// backgroundTOD fills all pairs with light ambient traffic.
func backgroundTOD(city *City, intervals int, scale float64, rng *rand.Rand) *tensor.Tensor {
	if scale <= 0 {
		scale = 0.1
	}
	g := tensor.New(len(city.Pairs), intervals)
	for i := range city.Pairs {
		for t := 0; t < intervals; t++ {
			v := (2 + 2*rng.Float64()) * scale
			g.Set(v, i, t)
		}
	}
	return g
}

func clampNonNegative(g *tensor.Tensor) {
	for i, v := range g.Data {
		if v < 0 {
			g.Data[i] = 0
		}
	}
}
