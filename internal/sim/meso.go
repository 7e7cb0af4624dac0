package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// mesoVehicle is a vehicle in the mesoscopic engine. Vehicles on a link all
// move at the link's current fundamental-diagram speed.
type mesoVehicle struct {
	route     roadnet.Route
	idx       int     // position in route
	pos       float64 // meters from link start
	spawnStep int
	next      int // the vehicle behind this one on its link (valid while one is)
}

// linkSet is a bitset over link IDs, 64 links to a word.
type linkSet []uint64

func newLinkSet(m int) linkSet { return make(linkSet, (m+63)/64) }

func (s linkSet) add(j int)    { s[j>>6] |= 1 << (uint(j) & 63) }
func (s linkSet) remove(j int) { s[j>>6] &^= 1 << (uint(j) & 63) }

// mesoLinks holds every link's occupants as an intrusive FIFO threaded
// through mesoVehicle.next (head is the vehicle closest to the link end),
// plus occ, the set of links holding at least one vehicle.
type mesoLinks struct {
	head, tail, cnt []int
	occ             linkSet
}

func newMesoLinks(m int) *mesoLinks {
	return &mesoLinks{head: make([]int, m), tail: make([]int, m), cnt: make([]int, m), occ: newLinkSet(m)}
}

// push appends vehicle vi at the back of link j's queue.
func (q *mesoLinks) push(vehicles []mesoVehicle, j, vi int) {
	if q.cnt[j] == 0 {
		q.head[j] = vi
		q.occ.add(j)
	} else {
		vehicles[q.tail[j]].next = vi
	}
	q.tail[j] = vi
	q.cnt[j]++
}

// pop removes the front vehicle of link j's (non-empty) queue.
func (q *mesoLinks) pop(vehicles []mesoVehicle, j int) {
	q.head[j] = vehicles[q.head[j]].next
	q.cnt[j]--
	if q.cnt[j] == 0 {
		q.occ.remove(j)
	}
}

// runMeso executes the fundamental-diagram queue engine. Each step touches
// only the links that can change state (DESIGN.md §10): the occupied ones,
// the ones that just emptied, and the ones whose discharge credit has not
// yet reached its burst cap. Skipping the rest is exact — the results are
// bitwise those of scanning every link (meso_oracle_test.go).
//
// Cancellation is observed only at interval boundaries, before the
// boundary's route-cache refresh, so the steps completed before a cancelled
// return form a whole number of intervals.
func (s *Simulator) runMeso(ctx context.Context, d Demand) (*Result, error) {
	cfg := s.Cfg
	net := s.Net
	rng := rand.New(rand.NewSource(cfg.Seed))

	chooser, err := newRouteChooser(net, cfg, d.ODs)
	if err != nil {
		return nil, err
	}

	spawns := buildSpawns(d, cfg, rng)
	vehicles := make([]mesoVehicle, 0, len(spawns))

	m := net.NumLinks()
	stepsPerInterval := int(cfg.IntervalSec / cfg.StepSec)
	totalSteps := cfg.Intervals * stepsPerInterval

	// Per-link state.
	links := newMesoLinks(m)
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
	}
	// linkSpeed is link j's fundamental-diagram speed at its current density.
	linkSpeed := func(j int) float64 {
		v := freeSpeed[j] * cfg.Diagram.SpeedFraction(float64(links.cnt[j])/maxVeh[j])
		if v < cfg.MinSpeed {
			v = cfg.MinSpeed
		}
		return v
	}
	// Every link starts empty, so its speed is the empty-link speed that
	// step 0's update would assign; from then on a link's speed changes only
	// while it is occupied or on the step after it empties.
	for j := range curSpeed {
		curSpeed[j] = linkSpeed(j)
	}
	// lastOcc is occ as of the previous speed update; unsat holds the links
	// whose credit is below its 5·capPerStep burst cap (all, at the start).
	lastOcc := newLinkSet(m)
	unsat := newLinkSet(m)
	for j := 0; j < m; j++ {
		unsat.add(j)
	}

	res := &Result{
		Volume:  tensor.New(m, cfg.Intervals),
		Entries: tensor.New(m, cfg.Intervals),
		Speed:   tensor.New(m, cfg.Intervals),
	}
	// Accumulators: volume sums occupancy per step, which is also the weight
	// of the occupancy-weighted speed; speedSum sums speed·occupancy.
	speedSum := tensor.New(m, cfg.Intervals)
	volume, entries := res.Volume.Data, res.Entries.Data

	// enter places vehicle vi on the first link of its route.
	enter := func(vi, interval int) {
		veh := &vehicles[vi]
		veh.idx = 0
		veh.pos = 0
		first := veh.route[0]
		links.push(vehicles, first, vi)
		entries[first*cfg.Intervals+interval]++
	}

	// Entry queues: vehicles waiting at their origin for space on the first
	// link, FIFO per origin link.
	entryQueue := make(map[int][]int)
	var origins []int

	nextSpawn := 0
	for step := 0; step < totalSteps; step++ {
		interval := step / stepsPerInterval

		// Interval boundary is the engine's cancellation safe point: every
		// completed step stays whole and the abort lands between intervals.
		if step%stepsPerInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: cancelled at interval %d: %w", interval, context.Cause(ctx))
		}

		// 1+2. Update link speeds from density via the fundamental diagram,
		// then advance vehicles. Only links occupied now or at the previous
		// update can change speed: any other link already holds its
		// empty-link speed.
		for w := range links.occ {
			word := links.occ[w] | lastOcc[w]
			lastOcc[w] = links.occ[w]
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				v := linkSpeed(j)
				curSpeed[j] = v
				adv := v * cfg.StepSec
				length := net.Links[j].Length
				for vi, n := links.head[j], links.cnt[j]; n > 0; vi, n = vehicles[vi].next, n-1 {
					veh := &vehicles[vi]
					veh.pos += adv
					if veh.pos > length {
						veh.pos = length
					}
				}
			}
		}

		// Interval boundary: snapshot the just-updated speeds for dynamic
		// route choice and invalidate the per-OD route cache.
		if step%stepsPerInterval == 0 {
			chooser.beginInterval(curSpeed)
		}

		// 3. Transfers at link ends, capacity- and space-limited; a red
		// signal blocks the approach entirely. An empty link whose credit
		// sits at its cap is a no-op whatever its signal shows, so only
		// occ ∪ unsat is visited, in ascending link ID. The word is re-read
		// after each link: a transfer can occupy a higher link of the same
		// word, which the full scan would still reach in this step.
		now := float64(step) * cfg.StepSec
		for w := range links.occ {
			var done uint64 // bits at or below the last link visited
			for {
				word := (links.occ[w] | unsat[w]) &^ done
				if word == 0 {
					break
				}
				b := bits.TrailingZeros64(word)
				done = ^uint64(0) >> (63 - b)
				j := w<<6 + b
				if cfg.Signals != nil && !cfg.Signals.Green(net, j, now) {
					continue
				}
				credit[j] += capPerStep[j]
				if credit[j] > capPerStep[j]*5 {
					credit[j] = capPerStep[j] * 5 // bounded burst
					unsat.remove(j)
				}
				length := net.Links[j].Length
				for links.cnt[j] > 0 {
					vi := links.head[j]
					veh := &vehicles[vi]
					if veh.pos < length || credit[j] < 1 {
						break
					}
					if veh.idx == len(veh.route)-1 {
						// Trip complete.
						links.pop(vehicles, j)
						credit[j]--
						unsat.add(j)
						res.Completed++
						res.TotalTravelSec += float64(step-veh.spawnStep) * cfg.StepSec
						continue
					}
					next := veh.route[veh.idx+1]
					if float64(links.cnt[next]) >= maxVeh[next] {
						break // spillback: receiving link full
					}
					links.pop(vehicles, j)
					credit[j]--
					unsat.add(j)
					veh.idx++
					veh.pos = 0
					links.push(vehicles, next, vi)
					entries[next*cfg.Intervals+interval]++
				}
			}
		}

		// 4. Spawn departures due at this step (and retry queued entries).
		// Iterate origins in sorted order: map iteration order must not leak
		// into simulation results (determinism).
		origins = origins[:0]
		for origin := range entryQueue {
			origins = append(origins, origin)
		}
		sort.Ints(origins)
		for _, origin := range origins {
			queue := entryQueue[origin]
			for len(queue) > 0 {
				vi := queue[0]
				first := vehicles[vi].route[0]
				if float64(links.cnt[first]) >= maxVeh[first] {
					break
				}
				queue = queue[1:]
				enter(vi, interval)
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
			vehicles = append(vehicles, mesoVehicle{route: route, spawnStep: step})
			vi := len(vehicles) - 1
			first := route[0]
			if float64(links.cnt[first]) >= maxVeh[first] {
				entryQueue[net.Links[first].From] = append(entryQueue[net.Links[first].From], vi)
				continue
			}
			enter(vi, interval)
		}

		// 5. Record occupancy and speed observations. An empty link would
		// add zero to every accumulator, so only occupied links are visited.
		for w, word := range links.occ {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				occ := float64(links.cnt[j])
				cell := j*cfg.Intervals + interval
				volume[cell] += occ
				speedSum.Data[cell] += curSpeed[j] * occ
			}
		}
	}

	// Finalize speeds: occupancy-weighted mean, free-flow when unobserved.
	// The weights are the occupancy sums, read before they are scaled.
	for j := 0; j < m; j++ {
		row := res.Speed.Data[j*cfg.Intervals : (j+1)*cfg.Intervals]
		wRow := volume[j*cfg.Intervals : (j+1)*cfg.Intervals]
		sRow := speedSum.Data[j*cfg.Intervals : (j+1)*cfg.Intervals]
		for t := range row {
			if wRow[t] > 0 {
				row[t] = sRow[t] / wRow[t]
			} else {
				row[t] = freeSpeed[j]
			}
		}
	}

	// Occupancy: mean vehicles present per step within each interval
	// (scaled in place — the accumulator tensor is reused as the result).
	tensor.ScaleInPlace(res.Volume, 1/float64(stepsPerInterval))
	res.Spawned = len(vehicles)
	res.DijkstraCalls = chooser.calls
	return res, nil
}
