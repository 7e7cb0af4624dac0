package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"ovs/internal/dataset"
	"ovs/internal/metrics"
	"ovs/internal/parallel"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// MethodResult is one row of a comparison table.
type MethodResult struct {
	Method  string
	Metrics metrics.Triple
	Elapsed time.Duration
}

// ComparisonResult is one dataset column group of Tables VI/VIII: all
// methods evaluated on one environment.
type ComparisonResult struct {
	Dataset string
	Rows    []MethodResult
}

// BestBaseline returns the lowest baseline value for the metric selector.
func (c *ComparisonResult) BestBaseline(sel func(metrics.Triple) float64) float64 {
	best := 0.0
	first := true
	for _, r := range c.Rows {
		if r.Method == "OVS" {
			continue
		}
		v := sel(r.Metrics)
		if first || v < best {
			best, first = v, false
		}
	}
	return best
}

// OVSRow returns the OVS row, if present.
func (c *ComparisonResult) OVSRow() (MethodResult, bool) {
	for _, r := range c.Rows {
		if r.Method == "OVS" {
			return r, true
		}
	}
	return MethodResult{}, false
}

// RunComparison evaluates the six baselines plus OVS on an environment. The
// methods are independent — each draws randomness only from the environment
// seed — so they run concurrently (bounded by the process-wide worker
// default); the row order is fixed by the method list, not by completion.
// Once ctx is cancelled no new method starts, in-flight methods abort at
// their own safe points, and the cancellation cause is returned.
func RunComparison(ctx context.Context, env *Env, name string) (*ComparisonResult, error) {
	methods := env.Methods()
	rows := make([]MethodResult, len(methods)+1)
	errs := make([]error, len(methods)+1)
	fns := make([]func(), 0, len(methods)+1)
	for i, m := range methods {
		i, m := i, m
		fns = append(fns, func() {
			start := time.Now() //ovslint:ignore globalrand wall-clock timing is reported in tables but never feeds fitted results
			rec, err := m.Recover(ctx, env.Context())
			if err != nil {
				errs[i] = fmt.Errorf("experiment: %s on %s: %w", m.Name(), name, err)
				return
			}
			triple, err := env.Evaluate(ctx, rec)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = MethodResult{Method: m.Name(), Metrics: triple, Elapsed: time.Since(start)}
		})
	}
	fns = append(fns, func() {
		i := len(methods)
		rec, _, elapsed, err := env.RunOVS(ctx, nil)
		if err != nil {
			errs[i] = err
			return
		}
		triple, err := env.Evaluate(ctx, rec)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = MethodResult{Method: "OVS", Metrics: triple, Elapsed: elapsed}
	})
	if err := parallel.RunCtx(ctx, 0, fns...); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &ComparisonResult{Dataset: name, Rows: rows}, nil
}

// RunRealComparison reproduces Table VI: all methods on the Hangzhou, Porto
// and Manhattan presets. Each city cell derives its randomness from the root
// seed by index, so cells are independent and run concurrently with
// reproducible results.
func RunRealComparison(ctx context.Context, sc Scale, seed int64) ([]*ComparisonResult, error) {
	out := make([]*ComparisonResult, len(dataset.RealCityNames))
	errs := make([]error, len(dataset.RealCityNames))
	fns := make([]func(), 0, len(dataset.RealCityNames))
	for i, name := range dataset.RealCityNames {
		i, name := i, name
		fns = append(fns, func() {
			city, err := dataset.ByName(name, dataset.CityOptions{ODPairs: sc.ODPairs, Seed: seed + int64(i)})
			if err != nil {
				errs[i] = err
				return
			}
			env, err := NewEnv(ctx, city, sc, seed+10*int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = RunComparison(ctx, env, name)
		})
	}
	if err := parallel.RunCtx(ctx, 0, fns...); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunSyntheticComparison reproduces Table VIII: all methods on the 3×3 grid
// across the five TOD patterns, one concurrent cell per pattern (seeded by
// pattern index, so results match the serial order at any worker count).
func RunSyntheticComparison(ctx context.Context, sc Scale, seed int64) ([]*ComparisonResult, error) {
	out := make([]*ComparisonResult, len(dataset.AllPatterns))
	errs := make([]error, len(dataset.AllPatterns))
	fns := make([]func(), 0, len(dataset.AllPatterns))
	for i, p := range dataset.AllPatterns {
		i, p := i, p
		fns = append(fns, func() {
			env, err := NewSyntheticEnv(ctx, p, sc, seed+100*int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = RunComparison(ctx, env, p.String())
		})
	}
	if err := parallel.RunCtx(ctx, 0, fns...); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderComparison renders comparison results in the paper's table layout
// (methods × datasets, three metrics per dataset, plus the Improve row).
func RenderComparison(title string, results []*ComparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	header := []string{"Method"}
	for _, r := range results {
		header = append(header, r.Dataset+" TOD", "vol", "speed")
	}
	rowsByMethod := map[string][]string{}
	var order []string
	for _, res := range results {
		for _, row := range res.Rows {
			if _, ok := rowsByMethod[row.Method]; !ok {
				order = append(order, row.Method)
				rowsByMethod[row.Method] = []string{row.Method}
			}
		}
	}
	for _, res := range results {
		byMethod := map[string]MethodResult{}
		for _, row := range res.Rows {
			byMethod[row.Method] = row
		}
		for _, m := range order {
			row, ok := byMethod[m]
			if !ok {
				rowsByMethod[m] = append(rowsByMethod[m], "-", "-", "-")
				continue
			}
			rowsByMethod[m] = append(rowsByMethod[m],
				fmt.Sprintf("%.2f", row.Metrics.TOD),
				fmt.Sprintf("%.2f", row.Metrics.Volume),
				fmt.Sprintf("%.2f", row.Metrics.Speed))
		}
	}
	table := [][]string{header}
	for _, m := range order {
		table = append(table, rowsByMethod[m])
	}
	// Improve row: OVS vs best baseline per metric.
	improve := []string{"Improve"}
	for _, res := range results {
		ovs, ok := res.OVSRow()
		if !ok {
			improve = append(improve, "-", "-", "-")
			continue
		}
		for _, sel := range []func(metrics.Triple) float64{
			func(t metrics.Triple) float64 { return t.TOD },
			func(t metrics.Triple) float64 { return t.Volume },
			func(t metrics.Triple) float64 { return t.Speed },
		} {
			best := res.BestBaseline(sel)
			imp := metrics.Improvement(sel(ovs.Metrics), best)
			if math.IsNaN(imp) {
				// Undefined ratio (zero baseline): render an em dash rather
				// than a misleading 0.0%.
				improve = append(improve, "—")
			} else {
				improve = append(improve, fmt.Sprintf("%.1f%%", 100*imp))
			}
		}
	}
	table = append(table, improve)
	b.WriteString(renderTable(table))
	return b.String()
}
