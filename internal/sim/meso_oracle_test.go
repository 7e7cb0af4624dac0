package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// This file keeps the dense meso engine, in which every phase scans every
// link on every step, as the oracle for the active-link engine in meso.go.
// TestMesoMatchesDenseOracle compares the two bit for bit.

// denseVehicle is a vehicle in the dense oracle engine.
type denseVehicle struct {
	route     roadnet.Route
	idx       int     // position in route
	pos       float64 // meters from link start
	spawnStep int
	inNetwork bool
}

// runMesoDense executes the dense fundamental-diagram queue engine.
func (s *Simulator) runMesoDense(ctx context.Context, d Demand) (*Result, error) {
	cfg := s.Cfg
	net := s.Net
	rng := rand.New(rand.NewSource(cfg.Seed))

	chooser, err := newRouteChooser(net, cfg, d.ODs)
	if err != nil {
		return nil, err
	}

	spawns := buildSpawns(d, cfg, rng)
	vehicles := make([]denseVehicle, 0, len(spawns))

	m := net.NumLinks()
	stepsPerInterval := int(cfg.IntervalSec / cfg.StepSec)
	totalSteps := cfg.Intervals * stepsPerInterval

	// Per-link state.
	occupants := make([][]int, m) // FIFO: [0] is closest to link end
	maxVeh := make([]float64, m)
	freeSpeed := make([]float64, m)
	capPerStep := make([]float64, m)
	credit := make([]float64, m)
	curSpeed := make([]float64, m)
	for j := range net.Links {
		l := &net.Links[j]
		maxVeh[j] = math.Max(1, l.Length*float64(l.Lanes)*cfg.JamDensity)
		freeSpeed[j] = s.effectiveSpeedLimit(l)
		capPerStep[j] = s.effectiveCapacity(l) * cfg.StepSec
		curSpeed[j] = freeSpeed[j]
	}

	res := &Result{
		Volume:  tensor.New(m, cfg.Intervals),
		Entries: tensor.New(m, cfg.Intervals),
		Speed:   tensor.New(m, cfg.Intervals),
	}
	// Accumulators for occupancy-weighted speed.
	speedSum := tensor.New(m, cfg.Intervals)  // Σ speed·occupancy per step
	weightSum := tensor.New(m, cfg.Intervals) // Σ occupancy per step
	// The loops below write these accumulators through raw Data offsets;
	// one bump here covers them all.
	res.Volume.NoteMutation()
	res.Speed.NoteMutation()
	speedSum.NoteMutation()
	weightSum.NoteMutation()

	// Entry queues: vehicles waiting at their origin for space on the first
	// link, FIFO per origin link.
	entryQueue := make(map[int][]int)

	nextSpawn := 0
	for step := 0; step < totalSteps; step++ {
		interval := step / stepsPerInterval

		// Interval boundary is the engine's cancellation safe point: every
		// completed step stays whole and the abort lands between intervals.
		if step%stepsPerInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: cancelled at interval %d: %w", interval, context.Cause(ctx))
		}

		// 1+2. Update link speeds from density via the fundamental diagram,
		// then advance vehicles.
		for j := 0; j < m; j++ {
			k := float64(len(occupants[j])) / maxVeh[j]
			v := freeSpeed[j] * cfg.Diagram.SpeedFraction(k)
			if v < cfg.MinSpeed {
				v = cfg.MinSpeed
			}
			curSpeed[j] = v
			adv := v * cfg.StepSec
			length := net.Links[j].Length
			for _, vi := range occupants[j] {
				veh := &vehicles[vi]
				veh.pos += adv
				if veh.pos > length {
					veh.pos = length
				}
			}
		}

		// Interval boundary: snapshot the just-updated speeds for dynamic
		// route choice and invalidate the per-OD route cache.
		if step%stepsPerInterval == 0 {
			chooser.beginInterval(curSpeed)
		}

		// 3. Transfers at link ends, capacity- and space-limited; a red
		// signal blocks the approach entirely.
		for j := 0; j < m; j++ {
			if cfg.Signals != nil && !cfg.Signals.Green(net, j, float64(step)*cfg.StepSec) {
				continue
			}
			credit[j] += capPerStep[j]
			if credit[j] > capPerStep[j]*5 {
				credit[j] = capPerStep[j] * 5 // bounded burst
			}
			length := net.Links[j].Length
			for len(occupants[j]) > 0 {
				vi := occupants[j][0]
				veh := &vehicles[vi]
				if veh.pos < length || credit[j] < 1 {
					break
				}
				if veh.idx == len(veh.route)-1 {
					// Trip complete.
					occupants[j] = occupants[j][1:]
					credit[j]--
					veh.inNetwork = false
					res.Completed++
					res.TotalTravelSec += float64(step-veh.spawnStep) * cfg.StepSec
					continue
				}
				next := veh.route[veh.idx+1]
				if float64(len(occupants[next])) >= maxVeh[next] {
					break // spillback: receiving link full
				}
				occupants[j] = occupants[j][1:]
				credit[j]--
				veh.idx++
				veh.pos = 0
				occupants[next] = append(occupants[next], vi)
				res.Entries.Add2(1, next, interval)
			}
		}

		// 4. Spawn departures due at this step (and retry queued entries).
		// Iterate origins in sorted order: map iteration order must not leak
		// into simulation results (determinism).
		origins := make([]int, 0, len(entryQueue))
		for origin := range entryQueue {
			origins = append(origins, origin)
		}
		sort.Ints(origins)
		for _, origin := range origins {
			queue := entryQueue[origin]
			for len(queue) > 0 {
				vi := queue[0]
				first := vehicles[vi].route[0]
				if float64(len(occupants[first])) >= maxVeh[first] {
					break
				}
				queue = queue[1:]
				s.enterNetworkDense(&vehicles[vi], vi, step, interval, occupants, res)
			}
			if len(queue) == 0 {
				delete(entryQueue, origin)
			} else {
				entryQueue[origin] = queue
			}
		}
		for nextSpawn < len(spawns) && spawns[nextSpawn].step <= step {
			ev := spawns[nextSpawn]
			nextSpawn++
			route, err := chooser.choose(ev.od, curSpeed, rng)
			if err != nil {
				return nil, err
			}
			vehicles = append(vehicles, denseVehicle{route: route, spawnStep: step})
			vi := len(vehicles) - 1
			first := route[0]
			if float64(len(occupants[first])) >= maxVeh[first] {
				entryQueue[net.Links[first].From] = append(entryQueue[net.Links[first].From], vi)
				continue
			}
			s.enterNetworkDense(&vehicles[vi], vi, step, interval, occupants, res)
		}

		// 5. Record occupancy and speed observations.
		for j := 0; j < m; j++ {
			occ := float64(len(occupants[j]))
			cell := j*cfg.Intervals + interval
			res.Volume.Data[cell] += occ
			if occ > 0 {
				speedSum.Data[cell] += curSpeed[j] * occ
				weightSum.Data[cell] += occ
			}
		}
	}

	// Occupancy: mean vehicles present per step within each interval
	// (scaled in place — the accumulator tensor is reused as the result).
	tensor.ScaleInPlace(res.Volume, 1/float64(stepsPerInterval))

	// Finalize speeds: occupancy-weighted mean, free-flow when unobserved.
	for j := 0; j < m; j++ {
		row := res.Speed.Data[j*cfg.Intervals : (j+1)*cfg.Intervals]
		wRow := weightSum.Data[j*cfg.Intervals : (j+1)*cfg.Intervals]
		sRow := speedSum.Data[j*cfg.Intervals : (j+1)*cfg.Intervals]
		for t := range row {
			if wRow[t] > 0 {
				row[t] = sRow[t] / wRow[t]
			} else {
				row[t] = freeSpeed[j]
			}
		}
	}
	res.Spawned = len(vehicles)
	res.DijkstraCalls = chooser.calls
	return res, nil
}

// enterNetworkDense places a vehicle on the first link of its route.
func (s *Simulator) enterNetworkDense(veh *denseVehicle, vi, step, interval int, occupants [][]int, res *Result) {
	veh.inNetwork = true
	veh.idx = 0
	veh.pos = 0
	first := veh.route[0]
	occupants[first] = append(occupants[first], vi)
	res.Entries.Add2(1, first, interval)
}

// TestMesoMatchesDenseOracle runs the active-link engine and the dense
// oracle over routing modes × {plain, signals, road work} × {light, gridlock}
// demand and requires bitwise-identical results. Gridlock demand fills links
// to their storage, so spillback and origin entry queues both fire. The
// 500-intersection grid spreads its links over many 64-link bitset words.
func TestMesoMatchesDenseOracle(t *testing.T) {
	nets := []struct {
		name  string
		net   *roadnet.Network
		pairs int
	}{
		{"grid3x3", gridNet(), 6},
		{"grid500", roadnet.GridForIntersections(500), 12},
	}
	routings := []struct {
		name string
		mode RoutingMode
	}{{"static", StaticRouting}, {"dynamic", DynamicRouting}, {"stochastic", StochasticRouting}}
	demands := []struct {
		name       string
		base, span float64 // trips per OD per interval: base + U[0, span)
	}{{"light", 0, 4}, {"gridlock", 400, 200}}

	for _, nc := range nets {
		net := nc.net
		work := map[int]float64{}
		for j := 0; j < net.NumLinks(); j += 5 {
			work[j] = 0.5
		}
		scenarios := []struct {
			name string
			set  func(*Config)
		}{
			{"plain", func(*Config) {}},
			{"signals", func(c *Config) { c.Signals = UniformSignals(net, 60, 3) }},
			{"roadwork", func(c *Config) { c.RoadWork = work }},
		}
		for _, rc := range routings {
			for _, sc := range scenarios {
				for di, dc := range demands {
					name := nc.name + "/" + rc.name + "/" + sc.name + "/" + dc.name
					t.Run(name, func(t *testing.T) {
						seed := int64(len(name) + 31*di)
						rng := rand.New(rand.NewSource(seed))
						ods := make([]ODNodes, nc.pairs)
						for i := range ods {
							o := rng.Intn(net.NumNodes())
							dst := rng.Intn(net.NumNodes() - 1)
							if dst >= o {
								dst++
							}
							ods[i] = ODNodes{Origin: o, Dest: dst}
						}
						const intervals = 3
						g := tensor.New(len(ods), intervals)
						for i := range g.Data {
							g.Data[i] = dc.base + dc.span*rng.Float64()
						}
						g.NoteMutation()
						cfg := Config{Intervals: intervals, IntervalSec: 300, Seed: seed, Routing: rc.mode}
						sc.set(&cfg)
						s := New(net, cfg)
						d := Demand{ODs: ods, G: g}

						got, err := s.runMeso(context.Background(), d)
						if err != nil {
							t.Fatal(err)
						}
						want, err := s.runMesoDense(context.Background(), d)
						if err != nil {
							t.Fatal(err)
						}
						compareMesoResults(t, got, want)
						if dc.name == "gridlock" && !anyLinkFull(s, got) {
							t.Fatalf("gridlock demand never filled a link; spillback is not exercised")
						}
					})
				}
			}
		}
	}
}

// compareMesoResults fails unless got and want agree bit for bit.
func compareMesoResults(t *testing.T, got, want *Result) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{{"Volume", got.Volume, want.Volume}, {"Entries", got.Entries, want.Entries}, {"Speed", got.Speed, want.Speed}} {
		for i := range c.want.Data {
			if math.Float64bits(c.got.Data[i]) != math.Float64bits(c.want.Data[i]) {
				t.Fatalf("%s[%d] = %v, dense oracle %v", c.name, i, c.got.Data[i], c.want.Data[i])
			}
		}
	}
	if got.Spawned != want.Spawned || got.Completed != want.Completed || got.DijkstraCalls != want.DijkstraCalls {
		t.Fatalf("spawned/completed/dijkstra = %d/%d/%d, dense oracle %d/%d/%d",
			got.Spawned, got.Completed, got.DijkstraCalls, want.Spawned, want.Completed, want.DijkstraCalls)
	}
	if math.Float64bits(got.TotalTravelSec) != math.Float64bits(want.TotalTravelSec) {
		t.Fatalf("TotalTravelSec = %v, dense oracle %v", got.TotalTravelSec, want.TotalTravelSec)
	}
}

// anyLinkFull reports whether some link's mean occupancy over an interval
// reached 95% of its storage.
func anyLinkFull(s *Simulator, res *Result) bool {
	for j := range s.Net.Links {
		l := &s.Net.Links[j]
		maxVeh := math.Max(1, l.Length*float64(l.Lanes)*s.Cfg.JamDensity)
		for t := 0; t < s.Cfg.Intervals; t++ {
			if res.Volume.At(j, t) >= 0.95*maxVeh {
				return true
			}
		}
	}
	return false
}

// TestMesoMatchesDenseOracleZeroLengthLink covers the one case where a link
// activated mid-scan can discharge in the same step: a vehicle entering a
// zero-length link is already at its end. The active-link scan must still
// reach that link when its ID is higher, as the full scan does.
func TestMesoMatchesDenseOracleZeroLengthLink(t *testing.T) {
	net := roadnet.New()
	for i := 0; i < 4; i++ {
		net.AddNode(float64(i)*300, 0)
	}
	for i := 0; i < 3; i++ {
		net.AddLink(i, i+1, 300, 1, 12.5, 0)
	}
	net.Links[1].Length = 0 // AddLink rejects it; set directly
	d := constDemand(1, 3, 6, []ODNodes{{Origin: 0, Dest: 3}})
	for seed := int64(1); seed <= 5; seed++ {
		s := New(net, Config{Intervals: 3, IntervalSec: 300, Seed: seed})
		got, err := s.runMeso(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.runMesoDense(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		compareMesoResults(t, got, want)
	}
}
