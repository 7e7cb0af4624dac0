package sim

import (
	"math"

	"ovs/internal/roadnet"
)

// SignalPlan holds fixed-time traffic-light timings per signalized
// intersection. CityFlow simulates signal-controlled intersections; this is
// the equivalent control layer for both engines here. Approaches are binned
// into two phases by geometry: north-south versus east-west, the standard
// two-phase fixed-time plan.
type SignalPlan struct {
	// Timings maps node ID → plan. Unsignalized nodes are absent and always
	// "green".
	Timings map[int]SignalTiming
}

// SignalTiming is one intersection's fixed-time plan.
type SignalTiming struct {
	// CycleSec is the full cycle length.
	CycleSec float64
	// GreenNSSec is how much of the cycle the north-south phase is green;
	// the east-west phase gets the remainder.
	GreenNSSec float64
	// OffsetSec shifts the cycle start (for green waves).
	OffsetSec float64
}

// NewSignalPlan returns an empty plan.
func NewSignalPlan() *SignalPlan {
	return &SignalPlan{Timings: make(map[int]SignalTiming)}
}

// UniformSignals signalizes every intersection with at least minApproaches
// incoming links, using the same cycle and a 50/50 split. Offsets stagger by
// node ID so adjacent intersections are not synchronized.
func UniformSignals(net *roadnet.Network, cycleSec float64, minApproaches int) *SignalPlan {
	if cycleSec <= 0 {
		cycleSec = 60
	}
	if minApproaches <= 0 {
		minApproaches = 3
	}
	plan := NewSignalPlan()
	for v := 0; v < net.NumNodes(); v++ {
		if len(net.In(v)) < minApproaches {
			continue
		}
		plan.Timings[v] = SignalTiming{
			CycleSec:   cycleSec,
			GreenNSSec: cycleSec / 2,
			OffsetSec:  float64(v%4) * cycleSec / 4,
		}
	}
	return plan
}

// Green reports whether link j's approach to its downstream intersection
// shows green at simulation time t (seconds).
func (p *SignalPlan) Green(net *roadnet.Network, linkID int, t float64) bool {
	if p == nil {
		return true
	}
	l := &net.Links[linkID]
	timing, ok := p.Timings[l.To]
	if !ok {
		return true
	}
	if timing.CycleSec <= 0 {
		return true
	}
	phase := math.Mod(t-timing.OffsetSec, timing.CycleSec)
	if phase < 0 {
		phase += timing.CycleSec
	}
	if isNorthSouth(net, l) {
		return phase < timing.GreenNSSec
	}
	return phase >= timing.GreenNSSec
}

// isNorthSouth classifies an approach by its geometric heading.
func isNorthSouth(net *roadnet.Network, l *roadnet.Link) bool {
	from := net.Nodes[l.From]
	to := net.Nodes[l.To]
	return math.Abs(to.Y-from.Y) >= math.Abs(to.X-from.X)
}
