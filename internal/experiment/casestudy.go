package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// CaseStudyResult bundles one case study's outputs: the per-method speed
// fitting errors (one column of Table X) and the OVS-recovered TOD series of
// the scenario's focus ODs (the curves of Figures 12/13).
type CaseStudyResult struct {
	Name string
	// SpeedRMSE maps method name to RMSE_speed of its recovery (Table X).
	SpeedRMSE map[string]float64
	// Recovered maps focus labels to the OVS-recovered TOD time series.
	Recovered map[string][]float64
	// GroundTruth maps focus labels to the scenario's true series.
	GroundTruth map[string][]float64
	// Hours labels the intervals with wall-clock hours.
	Hours []int
	// Elapsed is the OVS wall-clock time.
	Elapsed time.Duration
}

// runCaseStudy executes the shared protocol: simulate the scenario TOD to
// obtain the "observed" speed feed, train everything on generated data, fit
// all methods, and collect the focus series from the OVS recovery.
func runCaseStudy(ctx context.Context, cs *dataset.CaseStudy, sc Scale, seed int64) (*CaseStudyResult, error) {
	// Case studies fix their own horizon.
	sc.Intervals = cs.Intervals

	simCfg := sim.Config{Intervals: cs.Intervals, IntervalSec: sc.IntervalSec, Seed: seed}
	simulator := sim.New(cs.City.Net, simCfg)

	// Observed speed: the scenario TOD pushed through the simulator (our
	// stand-in for the Gaode/Google Maps feed).
	obsRes, err := simulator.RunCtx(ctx, sim.Demand{ODs: cs.City.ODs, G: cs.G})
	if err != nil {
		return nil, fmt.Errorf("experiment: case study observation: %w", err)
	}

	raw, err := dataset.GenerateCtx(ctx, simulator, cs.City, dataset.GenerateOptions{
		Count: sc.Samples,
		TOD: dataset.TODConfig{
			Intervals:       cs.Intervals,
			IntervalMinutes: sc.IntervalSec / 60,
			Scale:           sc.TODScale,
		},
		ScaleJitter: [2]float64{0.3, 2.0},
		Seed:        seed + 1,
	})
	if err != nil {
		return nil, err
	}
	samples := make([]core.Sample, len(raw))
	for i, s := range raw {
		samples[i] = core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed}
	}

	env := &Env{
		City:    cs.City,
		SimCfg:  simCfg,
		Samples: samples,
		GT:      core.Sample{G: cs.G, Volume: obsRes.Volume, Speed: obsRes.Speed},
		Scale:   sc,
		Seed:    seed,
	}

	out := &CaseStudyResult{
		Name:        cs.Name,
		SpeedRMSE:   map[string]float64{},
		Recovered:   map[string][]float64{},
		GroundTruth: map[string][]float64{},
	}
	for t := 0; t < cs.Intervals; t++ {
		out.Hours = append(out.Hours, cs.HourOf(t))
	}

	// Baselines: score speed fit only (the paper lacks TOD ground truth for
	// the real feeds, Table X reports RMSE_speed).
	bc := env.Context()
	for _, m := range env.Methods() {
		rec, err := m.Recover(ctx, bc)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", m.Name(), cs.Name, err)
		}
		triple, err := env.Evaluate(ctx, rec)
		if err != nil {
			return nil, err
		}
		out.SpeedRMSE[m.Name()] = triple.Speed
	}

	// Day-long scenarios (case 1) cannot disambiguate opposite-direction ODs
	// from speed alone; the paper's Hangzhou case has taxi-GPS data, so the
	// §IV-E trajectory auxiliary loss applies there: a noisy fleet-scaled
	// view of the focus ODs plus a few others.
	var aux *core.AuxData
	if cs.Intervals >= 24 {
		rng := newRand(seed + 61)
		var trajIdx []int
		for _, idx := range cs.Focus {
			trajIdx = append(trajIdx, idx)
		}
		sort.Ints(trajIdx)
		for i := 0; i < 3 && i < cs.City.NumPairs(); i++ {
			trajIdx = append(trajIdx, i)
		}
		trajG := tensor.New(len(trajIdx), cs.Intervals)
		for r, i := range trajIdx {
			for t := 0; t < cs.Intervals; t++ {
				trajG.Set(cs.G.At(i, t)*(1+0.25*rng.NormFloat64()), r, t)
			}
		}
		aux = &core.AuxData{TrajODIdx: trajIdx, TrajG: trajG, TrajWeight: 8}
	}

	rec, _, elapsed, err := env.RunOVS(ctx, aux)
	if err != nil {
		return nil, err
	}
	out.Elapsed = elapsed
	triple, err := env.Evaluate(ctx, rec)
	if err != nil {
		return nil, err
	}
	out.SpeedRMSE["OVS"] = triple.Speed

	for label, idx := range cs.Focus {
		out.Recovered[label] = rec.Row(idx).Data
		out.GroundTruth[label] = cs.G.Row(idx).Data
	}
	return out, nil
}

func caseScale(sc Scale) float64 {
	if sc.CaseDemandScale > 0 {
		return sc.CaseDemandScale
	}
	return sc.GTScale
}

// RunCaseStudy1 reproduces Figure 12 and Table X column "Case 1".
func RunCaseStudy1(ctx context.Context, sc Scale, seed int64) (*CaseStudyResult, error) {
	cs, err := dataset.CaseStudy1(caseScale(sc), seed)
	if err != nil {
		return nil, err
	}
	return runCaseStudy(ctx, cs, sc, seed)
}

// RunCaseStudy2 reproduces Figure 13 and Table X column "Case 2".
func RunCaseStudy2(ctx context.Context, sc Scale, seed int64) (*CaseStudyResult, error) {
	cs, err := dataset.CaseStudy2(caseScale(sc), seed)
	if err != nil {
		return nil, err
	}
	return runCaseStudy(ctx, cs, sc, seed)
}

// PeakHour returns the wall-clock hour at which the recovered series for the
// given focus label peaks.
func (c *CaseStudyResult) PeakHour(label string) (int, error) {
	series, ok := c.Recovered[label]
	if !ok {
		return 0, fmt.Errorf("experiment: unknown focus label %q", label)
	}
	best := 0
	for i, v := range series {
		if v > series[best] {
			best = i
		}
	}
	return c.Hours[best], nil
}

// Render prints the Table X column and the focus-series sparklines.
func (c *CaseStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Name)
	rows := [][]string{{"Method", "RMSE_speed"}}
	methods := make([]string, 0, len(c.SpeedRMSE))
	for m := range c.SpeedRMSE {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		rows = append(rows, []string{m, fmt.Sprintf("%.2f", c.SpeedRMSE[m])})
	}
	b.WriteString(renderTable(rows))
	labels := make([]string, 0, len(c.Recovered))
	for l := range c.Recovered {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "%-14s truth:     %s\n", l, sparkline(c.GroundTruth[l]))
		fmt.Fprintf(&b, "%-14s recovered: %s\n", l, sparkline(c.Recovered[l]))
	}
	if len(c.Hours) > 0 {
		fmt.Fprintf(&b, "hours: %d..%d\n", c.Hours[0], c.Hours[len(c.Hours)-1])
	}
	return b.String()
}
