package experiment

import (
	"context"
	"fmt"
	"math"

	"ovs/internal/core"
	"ovs/internal/dataset"
)

// CensusRegionReport compares the recovered daily OD sums for one focus OD
// with and without the census auxiliary loss (one panel of Figure 10).
type CensusRegionReport struct {
	Label      string
	Target     float64 // desired full-horizon sum (normalized to ~100)
	SumPlain   float64 // recovered sum, no auxiliary loss
	SumWithAux float64 // recovered sum, census loss enabled
}

// CensusResult reproduces Figure 10 / RQ2: on the Manhattan preset, two ODs
// out of two similar-population residential regions should recover similar
// (and target-matching) daily totals only when census data constrains the
// solution.
type CensusResult struct {
	Reports []CensusRegionReport
}

// RunCensusConstraint trains OVS once on the Manhattan environment, fits its
// observation twice — with and without a census auxiliary loss derived from
// the ground truth — and reports the recovered daily sums of two focus ODs
// from similar-population residential regions.
func RunCensusConstraint(ctx context.Context, sc Scale, seed int64) (*CensusResult, error) {
	city := dataset.Manhattan(dataset.CityOptions{ODPairs: sc.ODPairs, Seed: seed})
	env, err := NewEnv(ctx, city, sc, seed)
	if err != nil {
		return nil, err
	}
	// Focus ODs: the two whose origin regions are residential with the most
	// similar populations.
	i1, i2 := pickSimilarResidentialODs(city)
	if i1 < 0 || i2 < 0 {
		return nil, fmt.Errorf("experiment: no residential OD pair candidates in Manhattan preset")
	}

	// Census from ground truth (exact sums; Figure 10 normalizes to 100).
	census := make([]float64, city.NumPairs())
	for i := range census {
		census[i] = env.GT.G.Row(i).Sum()
	}

	c, err := env.trainChain(ctx, core.AblateNone, 1)
	if err != nil {
		return nil, err
	}
	recPlain, err := c.fit(ctx, env.GT.Speed, sc.FitEpochs, nil)
	if err != nil {
		return nil, err
	}
	// The census term needs weight and fit length to actually pin the daily
	// sums on the large Manhattan instance.
	recAux, err := c.fit(ctx, env.GT.Speed, 2*sc.FitEpochs, &core.AuxData{CensusSum: census, CensusWeight: 200})
	if err != nil {
		return nil, err
	}

	out := &CensusResult{}
	for _, focus := range []struct {
		idx   int
		label string
	}{{i1, "Region 1 OD"}, {i2, "Region 2 OD"}} {
		// Normalize each OD so its census target reads 100 (as in Fig. 10).
		norm := 100.0 / math.Max(census[focus.idx], 1e-9)
		out.Reports = append(out.Reports, CensusRegionReport{
			Label:      focus.label,
			Target:     100,
			SumPlain:   recPlain.Row(focus.idx).Sum() * norm,
			SumWithAux: recAux.Row(focus.idx).Sum() * norm,
		})
	}
	return out, nil
}

// pickSimilarResidentialODs finds two OD pairs whose origins are distinct
// residential regions with the closest populations.
func pickSimilarResidentialODs(city *dataset.City) (int, int) {
	type cand struct {
		od     int
		origin int
	}
	var cands []cand
	seen := map[int]bool{}
	for i, p := range city.Pairs {
		if city.Kinds[p.Origin] == dataset.KindResidential && !seen[p.Origin] {
			cands = append(cands, cand{od: i, origin: p.Origin})
			seen[p.Origin] = true
		}
	}
	if len(cands) < 2 {
		return -1, -1
	}
	bestA, bestB := -1, -1
	bestDiff := math.Inf(1)
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			d := math.Abs(city.Regions[cands[a].origin].Population - city.Regions[cands[b].origin].Population)
			if d < bestDiff {
				bestDiff = d
				bestA, bestB = cands[a].od, cands[b].od
			}
		}
	}
	return bestA, bestB
}

// Render prints the Figure 10 comparison.
func (c *CensusResult) Render() string {
	rows := [][]string{{"Focus", "Target sum", "Recovered (no census)", "Recovered (with census)"}}
	for _, r := range c.Reports {
		rows = append(rows, []string{
			r.Label,
			fmt.Sprintf("%.0f", r.Target),
			fmt.Sprintf("%.1f", r.SumPlain),
			fmt.Sprintf("%.1f", r.SumWithAux),
		})
	}
	return "Figure 10: census constraint on recovered daily OD sums\n" + renderTable(rows)
}
