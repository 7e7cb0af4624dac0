package main

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// TestRunRejectsBadFlagValues feeds run each out-of-range flag value and
// requires a usage error before any simulation work, never a panic or a
// silently substituted default.
func TestRunRejectsBadFlagValues(t *testing.T) {
	cases := []struct {
		name        string
		intervals   int
		intervalSec float64
		scale       float64
	}{
		{"intervals=0", 0, 300, 0.5},
		{"intervals=-2", -2, 300, 0.5},
		{"intervalsec=0", 8, 0, 0.5},
		{"intervalsec=-5", 8, -5, 0.5},
		{"intervalsec=NaN", 8, math.NaN(), 0.5},
		{"intervalsec=+Inf", 8, math.Inf(1), 0.5},
		{"scale=0", 8, 300, 0},
		{"scale=-1", 8, 300, -1},
		{"scale=NaN", 8, 300, math.NaN()},
		{"scale=+Inf", 8, 300, math.Inf(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			err := run(context.Background(), "", "3x3", "", "", "Random",
				c.scale, c.intervals, c.intervalSec, "meso", "static", false, 1, out)
			if !errors.Is(err, errUsage) {
				t.Fatalf("run returned %v, want a usage error", err)
			}
		})
	}
}

// TestRunAcceptsSmallestValidValues is the positive control: the boundary
// values just inside the accepted range still simulate.
func TestRunAcceptsSmallestValidValues(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run(context.Background(), "", "3x3", "", "", "Random",
		0.01, 1, 1, "meso", "static", false, 1, out); err != nil {
		t.Fatal(err)
	}
}
