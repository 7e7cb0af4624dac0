package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// span is one call the benchmark made into a layer's public function.
// Times are milliseconds since the run started.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at the root
	Op     int     `json:"op"`     // timed op id, -1 during set-up and warm-up
}

func (s span) dur() float64 { return s.End - s.Start }

// simTotals sums what the simulator reported over the timed, traced runs.
type simTotals struct {
	runs, vehicles, dijkstra int
	busyMs                   float64
	mallocs, allocBytes      uint64
}

// tracer records spans and per-layer counts in memory. The benchmark drives
// it from its single client goroutine, so it needs no locking. A nil or
// switched-off tracer records nothing and costs two branch tests per call.
type tracer struct {
	on    bool
	base  time.Time
	op    int // id stamped on new spans
	spans []span
	open  []int // stack of open span indices
	sim   simTotals
	fit   fitTotals
}

// fitTotals sums the test-time fits of the timed, traced ops.
type fitTotals struct {
	calls, epochs, restarts int
	ms                      float64
}

// timed reports whether counts recorded now belong to a timed, traced op.
func (t *tracer) timed() bool { return t != nil && t.on && t.op >= 0 }

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1} }

func (t *tracer) now() float64 { return float64(time.Since(t.base)) / 1e6 }

// begin opens a span and returns its index, or -1 when not tracing.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// call runs f inside a span named name.
func (t *tracer) call(name string, f func() error) error {
	defer t.end(t.begin(name))
	return f()
}

// simRun runs one simulation inside a span and, on a timed op, adds its
// outputs and heap traffic to the simulator totals.
func (t *tracer) simRun(f func() (*sim.Result, error)) (*sim.Result, error) {
	if !t.timed() {
		defer t.end(t.begin("sim.RunCtx"))
		return f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin("sim.RunCtx")
	res, err := f()
	t.end(id)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.sim.runs++
		t.sim.vehicles += res.Spawned
		t.sim.dijkstra += res.DijkstraCalls
		t.sim.busyMs += t.spans[id].dur()
		t.sim.mallocs += after.Mallocs - before.Mallocs
		t.sim.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	return res, err
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children may overlap one another; a covered instant
// is subtracted once, and only the part inside the parent counts.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerCall summarizes the spans of one name.
type layerCall struct {
	name          string
	calls         int
	medianMs      float64 // median duration of one call
	selfMsPerOp   float64 // self time summed over timed ops, per op
	timedCalls    int
	timedMedianMs float64
}

// summarize groups spans by name. Timed figures cover the spans of timed
// ops only; the others cover set-up and warm-up too.
func summarize(spans []span, timedOps int) []layerCall {
	self := selfTimes(spans)
	byName := map[string]*layerCall{}
	durs := map[string][]float64{}
	timedDurs := map[string][]float64{}
	var order []string
	for i, s := range spans {
		lc, ok := byName[s.Name]
		if !ok {
			lc = &layerCall{name: s.Name}
			byName[s.Name] = lc
			order = append(order, s.Name)
		}
		lc.calls++
		durs[s.Name] = append(durs[s.Name], s.dur())
		if s.Op >= 0 {
			lc.timedCalls++
			lc.selfMsPerOp += self[i]
			timedDurs[s.Name] = append(timedDurs[s.Name], s.dur())
		}
	}
	out := make([]layerCall, 0, len(order))
	for _, name := range order {
		lc := byName[name]
		lc.medianMs = median(durs[name])
		lc.timedMedianMs = median(timedDurs[name])
		if timedOps > 0 {
			lc.selfMsPerOp /= float64(timedOps)
		}
		out = append(out, *lc)
	}
	return out
}

// callMs is the per-layer timing rule: the median duration of one call made
// during timed ops, or, for a layer the workload calls only while setting up,
// of the set-up calls. 0 when the workload never calls it.
func callMs(calls []layerCall, name string) float64 {
	for _, lc := range calls {
		if lc.name == name {
			if lc.timedCalls > 0 {
				return lc.timedMedianMs
			}
			return lc.medianMs
		}
	}
	return 0
}

// counters is a snapshot of the process-wide counters the layers export.
type counters struct {
	arena               tensor.ArenaStats
	pack                tensor.PackCacheStats
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cpu                 time.Duration // user + system time of the process
	wall                time.Time
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	//ovslint:ignore ignorederr Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		arena:      tensor.Default.Stats(),
		pack:       tensor.PackCacheStatsSnapshot(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wall:       time.Now(),
	}
}

// counterDelta accumulates counter movement over the traced stretches of a
// run.
type counterDelta struct {
	arenaHits, arenaMisses                                 uint64
	packHits, packMisses, packInvalidations, packEvictions uint64
	mallocs, allocBytes, gcCycles, gcPauseNs               uint64
	cpu, wall                                              time.Duration
}

func (d *counterDelta) add(a, b counters) {
	d.arenaHits += b.arena.Hits - a.arena.Hits
	d.arenaMisses += b.arena.Misses - a.arena.Misses
	d.packHits += b.pack.Hits - a.pack.Hits
	d.packMisses += b.pack.Misses - a.pack.Misses
	d.packInvalidations += b.pack.Invalidations - a.pack.Invalidations
	d.packEvictions += b.pack.Evictions - a.pack.Evictions
	d.mallocs += b.mallocs - a.mallocs
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCycles += uint64(b.gcCycles - a.gcCycles)
	d.gcPauseNs += b.gcPauseNs - a.gcPauseNs
	d.cpu += b.cpu - a.cpu
	d.wall += b.wall.Sub(a.wall)
}

// writeSpans stores the recorded spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
