package sim

import (
	"math/rand"
	"sort"
	"testing"

	"ovs/internal/tensor"
)

// buildSpawnsSorted is the comparison-sort buildSpawns that the counting
// pass replaced: the same draws, then a sort by step with the draw sequence
// as tie-break. It is the oracle for the order buildSpawns must produce.
func buildSpawnsSorted(d Demand, cfg Config, rng *rand.Rand) []spawnEvent {
	type seqEvent struct {
		spawnEvent
		seq int
	}
	stepsPerInterval := int(cfg.IntervalSec / cfg.StepSec)
	var events []seqEvent
	for i := 0; i < d.G.Dim(0); i++ {
		for t := 0; t < d.G.Dim(1); t++ {
			g := d.G.At(i, t)
			n := int(g)
			if rng.Float64() < g-float64(n) {
				n++
			}
			for v := 0; v < n; v++ {
				step := t*stepsPerInterval + rng.Intn(stepsPerInterval)
				events = append(events, seqEvent{spawnEvent{step: step, od: i}, len(events)})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].step != events[b].step {
			return events[a].step < events[b].step
		}
		return events[a].seq < events[b].seq
	})
	out := make([]spawnEvent, len(events))
	for k, ev := range events {
		out[k] = ev.spawnEvent
	}
	return out
}

// TestBuildSpawnsMatchesSortedOracle requires buildSpawns to return exactly
// the oracle's events in the oracle's order and to leave the rng where the
// oracle leaves it, on random demands with whole and fractional counts,
// all-zero rows, an all-zero demand, and one step per interval
// (IntervalSec == StepSec, where every event of an interval shares a step).
func TestBuildSpawnsMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cfgs := []Config{
		{IntervalSec: 600, StepSec: 1},
		{IntervalSec: 60, StepSec: 7},
		{IntervalSec: 5, StepSec: 5},
	}
	for trial := 0; trial < 40; trial++ {
		n, intervals := 1+rng.Intn(12), 1+rng.Intn(6)
		g := tensor.New(n, intervals)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				continue // a zero row
			}
			for t := 0; t < intervals; t++ {
				switch rng.Intn(3) {
				case 0:
					g.Set(float64(rng.Intn(30)), i, t)
				case 1:
					g.Set(30*rng.Float64(), i, t)
				}
			}
		}
		if trial == 0 {
			g = tensor.New(n, intervals) // no trips at all
		}
		d := Demand{G: g}
		for _, cfg := range cfgs {
			seed := rng.Int63()
			rGot, rWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := buildSpawns(d, cfg, rGot), buildSpawnsSorted(d, cfg, rWant)
			if len(got) != len(want) {
				t.Fatalf("trial %d %+v: %d events, oracle %d", trial, cfg, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d %+v: event %d is %+v, oracle %+v", trial, cfg, k, got[k], want[k])
				}
			}
			if a, b := rGot.Int63(), rWant.Int63(); a != b {
				t.Fatalf("trial %d %+v: rng left at a different position", trial, cfg)
			}
		}
	}
}
