package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ovs/internal/parallel"
)

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// minTimed is the fewest timed ops an untraced run measures, so that
	// op_p90_ms has minBeyond samples beyond it.
	minTimed = 100
	// maxTimed stops a timed phase that has run this long even short of
	// minTimed, keeping a run on a slow machine inside its time limit.
	maxTimed = 120 * time.Second
	// warmupOps is how many ops each set-up runs untimed to fill the arena
	// and pack cache.
	warmupOps = 3
	// maxLogged caps the failed-op messages written to the log.
	maxLogged = 5
)

// opRunner runs ops, checks their determinism and keeps the run's counts.
type opRunner struct {
	log       io.Writer
	tr        *tracer
	op        opFunc
	hashes    []uint64 // first output digest per cycle position
	rmse      []float64
	seen      []bool
	attempted int
	failed    int
}

// run executes the k-th op of the cycle and returns its wall time and
// whether it passed every check. A failed op is counted and logged, never
// fatal.
func (r *opRunner) run(ctx context.Context, k int) (time.Duration, bool) {
	r.attempted++
	id := r.tr.begin("op")
	start := time.Now()
	res, err := r.op(ctx, r.tr, k)
	d := time.Since(start)
	r.tr.end(id)
	if err == nil && r.seen[k] && res.hash != r.hashes[k] {
		err = fmt.Errorf("outputs differ from the first run of the same seed (digest %016x, first %016x)", res.hash, r.hashes[k])
	}
	if err != nil {
		r.failed++
		if r.failed <= maxLogged {
			fmt.Fprintf(r.log, "odbench: op %d (cycle position %d) failed: %v\n", r.attempted, k, err)
		}
		return d, false
	}
	if !r.seen[k] {
		r.seen[k], r.hashes[k], r.rmse[k] = true, res.hash, res.rmse
	}
	return d, true
}

// runWorkload sets w up, warms it and measures it for at least seconds.
// With traced set, cycles alternate between untraced and traced so both
// see the same drift of the machine, and the report carries the per-layer
// metrics.
func runWorkload(ctx context.Context, log io.Writer, w workload, seed int64, seconds float64, traced bool) (*report, error) {
	parallel.SetWorkers(w.workers)
	tr := newTracer()
	tr.on = traced
	r := &opRunner{log: log, tr: tr}
	var setupS []float64
	cycle := 0
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		op, n, err := w.setup(ctx, tr, seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if rep == 0 {
			cycle = n
			r.hashes, r.rmse, r.seen = make([]uint64, n), make([]float64, n), make([]bool, n)
		}
		r.op = op
		// The warm-up is part of set-up, and its outputs are checked like
		// any other op's.
		for k := 0; k < min(warmupOps, cycle); k++ {
			r.run(ctx, k)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
	}

	var plain, withTrace []float64 // op wall times in ms
	var delta counterDelta
	tracedOps, timedOps := 0, 0
	start := time.Now()
	for c := 0; ; c++ {
		elapsed := time.Since(start)
		enough := len(plain) >= minTimed || traced
		if (c >= 2 && elapsed.Seconds() >= seconds && enough) || elapsed >= maxTimed {
			break
		}
		tracing := traced && c%2 == 1
		tr.on = tracing
		var before counters
		if tracing {
			before = readCounters()
		}
		for k := 0; k < cycle; k++ {
			tr.op = -1
			if tracing {
				tr.op = tracedOps + k
			}
			d, ok := r.run(ctx, k)
			timedOps++
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			if !ok {
				continue
			}
			if tracing {
				withTrace = append(withTrace, ms(d))
			} else {
				plain = append(plain, ms(d))
			}
		}
		if tracing {
			delta.add(before, readCounters())
			tracedOps += cycle
		}
	}
	elapsed := time.Since(start)

	rep := &report{
		workload:  w.name,
		correct:   r.failed == 0,
		attempted: r.attempted,
		failed:    r.failed,
		spans:     tr.spans,
	}
	rep.header = fmt.Sprintf("%s seed %d, %d worker(s): %d timed ops in %.1f s, %d-op seed cycle, %d set-ups with %d warm-up ops each",
		w.name, seed, w.workers, timedOps, elapsed.Seconds(), cycle, setupReps, min(warmupOps, cycle))
	if traced {
		rep.perLayer(tr, delta, tracedOps, withTrace, plain)
		return rep, nil
	}
	if err := rep.endToEnd(setupS, plain, timedOps, elapsed, r.rmse); err != nil {
		return nil, err
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
