package sim

import (
	"testing"

	"ovs/internal/fd"
	"ovs/internal/roadnet"
)

func TestUniformSignalsSelection(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3})
	plan := UniformSignals(net, 60, 3)
	// In a 3×3 grid only the center (4 approaches) and the four edge-middle
	// nodes (3 approaches) qualify at minApproaches=3.
	if len(plan.Timings) != 5 {
		t.Fatalf("signalized = %d, want 5", len(plan.Timings))
	}
	if _, ok := plan.Timings[4]; !ok {
		t.Fatal("center intersection not signalized")
	}
	if _, ok := plan.Timings[0]; ok {
		t.Fatal("corner intersection signalized (only 2 approaches)")
	}
}

func TestGreenPhasesAlternate(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3})
	plan := NewSignalPlan()
	plan.Timings[4] = SignalTiming{CycleSec: 60, GreenNSSec: 30}
	// Find one NS approach and one EW approach into node 4.
	var ns, ew = -1, -1
	for _, id := range net.In(4) {
		if isNorthSouth(net, &net.Links[id]) {
			ns = id
		} else {
			ew = id
		}
	}
	if ns < 0 || ew < 0 {
		t.Fatal("grid center lacks NS or EW approaches")
	}
	for _, tc := range []struct {
		t              float64
		nsGreen, ewGrn bool
	}{
		{0, true, false},
		{29, true, false},
		{30, false, true},
		{59, false, true},
		{60, true, false}, // wraps
	} {
		if got := plan.Green(net, ns, tc.t); got != tc.nsGreen {
			t.Fatalf("NS green at t=%v: %v, want %v", tc.t, got, tc.nsGreen)
		}
		if got := plan.Green(net, ew, tc.t); got != tc.ewGrn {
			t.Fatalf("EW green at t=%v: %v, want %v", tc.t, got, tc.ewGrn)
		}
	}
	// NS and EW are never green together, never red together.
	for tt := 0.0; tt < 120; tt += 1 {
		a, b := plan.Green(net, ns, tt), plan.Green(net, ew, tt)
		if a == b {
			t.Fatalf("phases overlap at t=%v: ns=%v ew=%v", tt, a, b)
		}
	}
}

func TestUnsignalizedAlwaysGreen(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 2, Cols: 2})
	plan := NewSignalPlan()
	for j := range net.Links {
		for tt := 0.0; tt < 100; tt += 10 {
			if !plan.Green(net, j, tt) {
				t.Fatal("unsignalized approach showed red")
			}
		}
	}
	var nilPlan *SignalPlan
	if !nilPlan.Green(net, 0, 0) {
		t.Fatal("nil plan must be green")
	}
}

func TestSignalsDelayTraffic(t *testing.T) {
	// A signalized corridor must have longer travel times than a free one.
	net := roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3})
	d := constDemand(1, 4, 20, []ODNodes{{Origin: 0, Dest: 8}})
	free, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 5}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	signaled, err := New(net, Config{
		Intervals: 4, IntervalSec: 300, Seed: 5,
		Signals: UniformSignals(net, 60, 3),
	}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if signaled.MeanTravelSec() <= free.MeanTravelSec() {
		t.Fatalf("signals did not delay: free %v vs signaled %v",
			free.MeanTravelSec(), signaled.MeanTravelSec())
	}
	if signaled.Completed == 0 {
		t.Fatal("no vehicle completed under signals (deadlock?)")
	}
}

func TestSignalsDelayTrafficMicro(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3})
	d := constDemand(1, 3, 10, []ODNodes{{Origin: 0, Dest: 8}})
	free, err := New(net, Config{Intervals: 3, IntervalSec: 300, Seed: 6, Engine: Micro}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	signaled, err := New(net, Config{
		Intervals: 3, IntervalSec: 300, Seed: 6, Engine: Micro,
		Signals: UniformSignals(net, 60, 3),
	}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if signaled.MeanTravelSec() <= free.MeanTravelSec() {
		t.Fatalf("micro signals did not delay: free %v vs signaled %v",
			free.MeanTravelSec(), signaled.MeanTravelSec())
	}
}

func TestFundamentalDiagramSelection(t *testing.T) {
	// Underwood decays gently at low density versus Greenshields' linear
	// drop, so under identical moderate demand the Underwood run should
	// observe (weakly) different speeds — proving the diagram is live.
	net := lineNet()
	d := constDemand(1, 3, 400, []ODNodes{{Origin: 0, Dest: 2}})
	gs, err := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 7}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	uw, err := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 7, Diagram: fd.Underwood{}}).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range gs.Speed.Data {
		diff += abs64(gs.Speed.Data[i] - uw.Speed.Data[i])
	}
	if diff == 0 {
		t.Fatal("changing the fundamental diagram changed nothing")
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
