package experiment

import (
	"context"
	"fmt"
	"time"

	"ovs/internal/dataset"
	"ovs/internal/roadnet"
)

// TimingRow records OVS wall-clock time on one dataset.
type TimingRow struct {
	Dataset       string
	Intersections int
	Links         int
	Elapsed       time.Duration
}

// TimingResult reproduces Table VII (running time on the three real
// datasets) or Figure 9 (running time vs intersections on synthetic grids).
type TimingResult struct {
	Title string
	Rows  []TimingRow
}

// RunRunningTime reproduces Table VII: OVS train+fit wall-clock on the three
// real presets.
func RunRunningTime(ctx context.Context, sc Scale, seed int64) (*TimingResult, error) {
	out := &TimingResult{Title: "Table VII: OVS running time (real datasets)"}
	for i, name := range dataset.RealCityNames {
		city, err := dataset.ByName(name, dataset.CityOptions{ODPairs: sc.ODPairs, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		env, err := NewEnv(ctx, city, sc, seed+10*int64(i))
		if err != nil {
			return nil, err
		}
		_, elapsed, err := env.RunOVS(ctx, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, TimingRow{
			Dataset:       name,
			Intersections: city.Net.NumNodes(),
			Links:         city.Net.NumLinks(),
			Elapsed:       elapsed,
		})
	}
	return out, nil
}

// RunScalability reproduces Figure 9: OVS running time on synthetic grids of
// the given intersection counts (the paper sweeps 10, 50, 100, 500, 1000).
// The observed scaling should be approximately linear in the network size.
func RunScalability(ctx context.Context, sc Scale, sizes []int, seed int64) (*TimingResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 50, 100}
	}
	out := &TimingResult{Title: "Figure 9: OVS running time vs #intersections"}
	for i, n := range sizes {
		net := roadnet.GridForIntersections(n)
		rng := newRand(seed + int64(i))
		regions := roadnet.Partition(net, 3, 3, rng)
		city := &dataset.City{
			Name:    fmt.Sprintf("grid-%d", n),
			Net:     net,
			Regions: regions,
			Pairs:   roadnet.SelectODPairs(regions, sc.ODPairs, rng),
		}
		city.Kinds = make([]dataset.RegionKind, len(regions))
		city.ResolveODs()
		env, err := NewEnv(ctx, city, sc, seed+20*int64(i))
		if err != nil {
			return nil, err
		}
		_, elapsed, err := env.RunOVS(ctx, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, TimingRow{
			Dataset:       city.Name,
			Intersections: net.NumNodes(),
			Links:         net.NumLinks(),
			Elapsed:       elapsed,
		})
	}
	return out, nil
}

// Render prints the timing table with a per-link time column that makes the
// (approximately linear) scaling visible.
func (tr *TimingResult) Render() string {
	rows := [][]string{{"Dataset", "Intersections", "Links", "Time (s)", "ms/link"}}
	for _, r := range tr.Rows {
		perLink := float64(r.Elapsed.Milliseconds()) / float64(r.Links)
		rows = append(rows, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Intersections),
			fmt.Sprintf("%d", r.Links),
			fmt.Sprintf("%.2f", r.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", perLink),
		})
	}
	return tr.Title + "\n" + renderTable(rows)
}
