package sim

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsBadTiming checks that timing without a whole step per
// interval, or non-finite timing, fails with an error on both engines
// instead of panicking while departures are drawn.
func TestRunRejectsBadTiming(t *testing.T) {
	net := lineNet()
	d := constDemand(1, 2, 3, []ODNodes{{Origin: 0, Dest: 2}})
	cases := []struct {
		name                 string
		intervalSec, stepSec float64
	}{
		{"interval shorter than step", 0.5, 1},
		{"interval barely shorter than step", 0.999, 1},
		{"NaN interval", math.NaN(), 1},
		{"infinite interval", math.Inf(1), 1},
		{"NaN step", 300, math.NaN()},
		{"infinite step", 300, math.Inf(1)},
	}
	for _, engine := range []Engine{Meso, Micro} {
		for _, c := range cases {
			s := New(net, Config{Intervals: 2, IntervalSec: c.intervalSec, StepSec: c.stepSec, Engine: engine, Seed: 1})
			if _, err := s.Run(d); err == nil {
				t.Errorf("engine %d, %s: Run returned no error", engine, c.name)
			}
		}
		// One step per interval is the shortest valid timing.
		s := New(net, Config{Intervals: 2, IntervalSec: 1, StepSec: 1, Engine: engine, Seed: 1})
		if _, err := s.Run(d); err != nil {
			t.Errorf("engine %d, one step per interval: %v", engine, err)
		}
	}
}

// TestRunRejectsBadRoadWork checks that road-work factors outside their
// documented range (0, 1] fail with an error naming the link.
func TestRunRejectsBadRoadWork(t *testing.T) {
	net := lineNet()
	d := constDemand(1, 2, 3, []ODNodes{{Origin: 0, Dest: 2}})
	for _, engine := range []Engine{Meso, Micro} {
		for _, f := range []float64{-1, 0, 1.5, math.NaN(), math.Inf(1)} {
			cfg := Config{Intervals: 2, IntervalSec: 300, Engine: engine, Seed: 1, RoadWork: map[int]float64{0: 0.5, 1: f}}
			_, err := New(net, cfg).Run(d)
			if err == nil {
				t.Errorf("engine %d, factor %v: Run returned no error", engine, f)
			} else if !strings.Contains(err.Error(), "link 1") {
				t.Errorf("engine %d, factor %v: error %q does not name link 1", engine, f, err)
			}
		}
		for _, f := range []float64{1, 0.01} {
			cfg := Config{Intervals: 2, IntervalSec: 300, Engine: engine, Seed: 1, RoadWork: map[int]float64{0: f}}
			if _, err := New(net, cfg).Run(d); err != nil {
				t.Errorf("engine %d, factor %v: %v", engine, f, err)
			}
		}
	}
}
