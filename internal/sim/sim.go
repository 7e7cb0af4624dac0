// Package sim implements the traffic simulator that stands in for CityFlow
// in the paper's pipeline (Fig. 7/8): it consumes a temporal
// origin-destination (TOD) tensor, moves individual vehicles along their
// routes, and emits per-link per-interval volume and speed tensors.
//
// Two engines are provided behind one interface:
//
//   - Meso: a mesoscopic engine where each link's current speed follows a
//     Greenshields fundamental diagram of its density, with capacity-limited
//     exit queues and spillback blocking. Fast enough for the paper's
//     training-data generation loops.
//   - Micro: a microscopic engine with IDM car-following per vehicle,
//     closest in spirit to CityFlow's single-vehicle simulation.
//
// Both engines reproduce the property the paper's experiments rest on: the
// TOD→volume→speed map is non-linear and congestion-coupled, so competing
// flows delay each other.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ovs/internal/fd"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// Engine selects the simulation model.
type Engine int

const (
	// Meso uses the fundamental-diagram queue engine.
	Meso Engine = iota
	// Micro uses IDM car-following.
	Micro
)

// RoutingMode selects how vehicles choose routes.
type RoutingMode int

const (
	// StaticRouting precomputes the free-flow shortest route per OD pair —
	// the paper's simplification that one OD maps to one route.
	StaticRouting RoutingMode = iota
	// DynamicRouting recomputes the fastest route using the link speeds
	// observed at the start of the current interval ("people choose the
	// shortest or fastest route based on real-time traffic conditions",
	// observed at the paper's 10-minute granularity). Routes are therefore a
	// pure function of (OD, interval): the engines compute Dijkstra once per
	// OD per interval and share the route among that interval's spawns.
	DynamicRouting
	// StochasticRouting samples each vehicle's route from a logit model over
	// the OD's k shortest routes, weighted by current travel times — the
	// route-choice behavior the paper's conclusion names as future work.
	StochasticRouting
)

// Config controls a simulation run.
type Config struct {
	// Intervals is T, the number of observation intervals.
	Intervals int
	// IntervalSec is the interval length (the paper uses 10 minutes).
	IntervalSec float64
	// StepSec is the integration step. Defaults to 1s (Meso) / 0.5s (Micro).
	StepSec float64
	// Engine selects Meso or Micro.
	Engine Engine
	// Routing selects static or dynamic route choice.
	Routing RoutingMode
	// Seed drives all stochastic choices (departure times, rounding).
	Seed int64
	// RoadWork maps link IDs to a speed multiplier in (0, 1], modelling the
	// RQ3 scenario where some links have an irregular volume-speed mapping
	// (maintenance, accidents). Capacity is scaled by the same factor.
	RoadWork map[int]float64
	// JamDensity is the per-lane jam density in vehicles/meter. Defaults to
	// 0.14 (≈7 m effective vehicle length).
	JamDensity float64
	// MinSpeed floors the congested speed so the simulation cannot stall at
	// exactly zero. Defaults to 0.8 m/s.
	MinSpeed float64
	// Diagram selects the speed-density fundamental diagram of the meso
	// engine (nil = Greenshields).
	Diagram fd.Model
	// RouteChoiceK is the number of candidate routes per OD for
	// StochasticRouting (default 3).
	RouteChoiceK int
	// LogitTheta is the logit sensitivity for StochasticRouting: utility is
	// −θ · travelTime/shortestTime (default 4; higher = greedier).
	LogitTheta float64
	// Signals, when non-nil, adds fixed-time traffic lights: a link whose
	// downstream intersection shows red for its approach cannot discharge.
	Signals *SignalPlan

	// disableRouteCache turns off the per-(OD, interval) dynamic route cache
	// so every vehicle recomputes Dijkstra from the same interval-start
	// speed snapshot. Results are identical either way — the cache only
	// memoizes — which the in-package equivalence test verifies; it is
	// unexported because it exists for that test and for benchmarking.
	disableRouteCache bool
}

func (c Config) withDefaults() Config {
	if c.Intervals <= 0 {
		c.Intervals = 12
	}
	if c.IntervalSec <= 0 {
		c.IntervalSec = 600
	}
	if c.StepSec <= 0 {
		if c.Engine == Micro {
			c.StepSec = 0.5
		} else {
			c.StepSec = 1.0
		}
	}
	if c.JamDensity <= 0 {
		c.JamDensity = 0.14
	}
	if c.MinSpeed <= 0 {
		c.MinSpeed = 0.8
	}
	if c.Diagram == nil {
		c.Diagram = fd.Greenshields{}
	}
	if c.RouteChoiceK <= 0 {
		c.RouteChoiceK = 3
	}
	if c.LogitTheta <= 0 {
		c.LogitTheta = 4
	}
	return c
}

// ODNodes is an OD pair resolved to network nodes (region anchors).
type ODNodes struct {
	Origin, Dest int
}

// Demand is the simulator input: one route endpoint pair per OD index and
// the TOD tensor G with shape (N_od × T) holding trip counts per interval.
type Demand struct {
	ODs []ODNodes
	G   *tensor.Tensor
}

// Validate checks that the demand matches the network and config.
func (d Demand) Validate(net *roadnet.Network, t int) error {
	if d.G == nil || d.G.Rank() != 2 {
		return fmt.Errorf("sim: demand G must be rank-2 (N_od × T)")
	}
	if d.G.Dim(0) != len(d.ODs) {
		return fmt.Errorf("sim: demand G has %d rows but %d OD pairs", d.G.Dim(0), len(d.ODs))
	}
	if d.G.Dim(1) != t {
		return fmt.Errorf("sim: demand G has %d columns but config expects %d intervals", d.G.Dim(1), t)
	}
	for i, od := range d.ODs {
		if od.Origin < 0 || od.Origin >= net.NumNodes() || od.Dest < 0 || od.Dest >= net.NumNodes() {
			return fmt.Errorf("sim: OD %d endpoints (%d,%d) out of node range", i, od.Origin, od.Dest)
		}
		if od.Origin == od.Dest {
			return fmt.Errorf("sim: OD %d has origin == dest (%d)", i, od.Origin)
		}
	}
	for _, v := range d.G.Data {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("sim: demand G contains a trip count of %v; counts must be finite and non-negative", v)
		}
	}
	return nil
}

// validate checks the settings withDefaults leaves in place: a run needs
// finite timing with at least one step per interval (buildSpawns draws each
// departure step within its interval), and road-work factors in (0, 1].
func (c Config) validate() error {
	if math.IsNaN(c.IntervalSec) || math.IsInf(c.IntervalSec, 0) || math.IsNaN(c.StepSec) || math.IsInf(c.StepSec, 0) {
		return fmt.Errorf("sim: IntervalSec (%v) and StepSec (%v) must be finite", c.IntervalSec, c.StepSec)
	}
	if c.IntervalSec/c.StepSec < 1 {
		return fmt.Errorf("sim: IntervalSec (%v) is shorter than one StepSec (%v)", c.IntervalSec, c.StepSec)
	}
	// Report the lowest offending link so the error does not depend on map
	// iteration order.
	bad := -1
	for id, f := range c.RoadWork {
		if !(f > 0 && f <= 1) && (bad < 0 || id < bad) {
			bad = id
		}
	}
	if bad >= 0 {
		return fmt.Errorf("sim: road-work factor %v for link %d is outside (0, 1]", c.RoadWork[bad], bad)
	}
	return nil
}

// Result holds the simulator outputs.
type Result struct {
	// Volume[j,t] is the mean number of vehicles present on link j during
	// interval t (occupancy). Occupancy is the "volume" quantity of the
	// TOD→volume→speed chain: unlike through-flow, it is monotone with the
	// congestion level, so the volume-speed relation stays invertible on
	// both sides of the fundamental diagram's capacity point.
	Volume *tensor.Tensor
	// Entries[j,t] counts vehicles entering link j during interval t
	// (through-flow), the quantity a loop detector or camera gate counts.
	Entries *tensor.Tensor
	// Speed[j,t] is the occupancy-weighted mean speed (m/s) on link j during
	// interval t; free-flow (after road work scaling) when the link is empty.
	Speed *tensor.Tensor
	// Spawned counts vehicles that entered the network.
	Spawned int
	// DijkstraCalls counts single-source shortest-path computations issued by
	// route choice: the static per-OD precompute plus, under DynamicRouting,
	// one call per (OD, interval) actually spawned (or per vehicle when the
	// route cache is disabled).
	DijkstraCalls int
	// Completed counts vehicles that reached their destination in-horizon.
	Completed int
	// TotalTravelSec sums travel time over completed vehicles.
	TotalTravelSec float64
}

// MeanTravelSec returns the mean travel time of completed trips (0 if none).
func (r *Result) MeanTravelSec() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.TotalTravelSec / float64(r.Completed)
}

// Simulator binds a network to a configuration.
type Simulator struct {
	Net *roadnet.Network
	Cfg Config
}

// New constructs a simulator, applying config defaults.
func New(net *roadnet.Network, cfg Config) *Simulator {
	return &Simulator{Net: net, Cfg: cfg.withDefaults()}
}

// Run simulates the demand and returns volume/speed observations. The run is
// deterministic for a fixed (network, config, demand) triple.
func (s *Simulator) Run(d Demand) (*Result, error) {
	return s.RunCtx(context.Background(), d)
}

// RunCtx is Run with cooperative cancellation. The engines observe ctx only
// at interval boundaries — the simulator's safe points — so a run that
// completes without being cancelled is bitwise-identical to Run. A cancelled
// run returns the context's cancellation cause and a nil Result.
func (s *Simulator) RunCtx(ctx context.Context, d Demand) (*Result, error) {
	if err := s.Cfg.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(s.Net, s.Cfg.Intervals); err != nil {
		return nil, err
	}
	switch s.Cfg.Engine {
	case Meso:
		return s.runMeso(ctx, d)
	case Micro:
		return s.runMicro(ctx, d)
	default:
		return nil, fmt.Errorf("sim: unknown engine %d", s.Cfg.Engine)
	}
}

// effectiveSpeedLimit applies any road-work factor to the link's free speed.
func (s *Simulator) effectiveSpeedLimit(l *roadnet.Link) float64 {
	v := l.SpeedLimit
	if f, ok := s.Cfg.RoadWork[l.ID]; ok {
		v *= f
	}
	return v
}

// effectiveCapacity applies any road-work factor to the link's capacity.
func (s *Simulator) effectiveCapacity(l *roadnet.Link) float64 {
	c := l.Capacity
	if f, ok := s.Cfg.RoadWork[l.ID]; ok {
		c *= f
	}
	return c
}

// spawnEvent is one vehicle's planned departure.
type spawnEvent struct {
	step int // departure step index
	od   int // OD pair index
}

// buildSpawns expands the TOD tensor into departure events, ordered by step
// and, within a step, by the order they were drawn in (OD pair, then
// interval, then vehicle). Fractional trip counts are rounded
// stochastically so that expectation matches exactly.
func buildSpawns(d Demand, cfg Config, rng *rand.Rand) []spawnEvent {
	stepsPerInterval := int(cfg.IntervalSec / cfg.StepSec)
	intervals := d.G.Dim(1)
	var events []spawnEvent
	// starts[s+1] counts the events of step s, then becomes step s's first
	// slot in the sorted output.
	starts := make([]int, intervals*stepsPerInterval+1)
	for i := 0; i < d.G.Dim(0); i++ {
		for t, g := range d.G.Data[i*intervals : (i+1)*intervals] {
			n := int(g)
			if rng.Float64() < g-float64(n) {
				n++
			}
			for v := 0; v < n; v++ {
				step := t*stepsPerInterval + rng.Intn(stepsPerInterval)
				events = append(events, spawnEvent{step: step, od: i})
				starts[step+1]++
			}
		}
	}
	// A stable counting pass by step keeps the draw order within a step.
	for s := 1; s < len(starts); s++ {
		starts[s] += starts[s-1]
	}
	sorted := make([]spawnEvent, len(events))
	for _, ev := range events {
		sorted[starts[ev.step]] = ev
		starts[ev.step]++
	}
	return sorted
}
