package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and the like, printed but not in the JSON
}

// report is the outcome of one run.
type report struct {
	workload          string
	header            string
	correct           bool
	attempted, failed int
	metrics           []metric
	spans             []span
	breakdown         []layerCall
	opMs              float64 // mean traced op time, the breakdown's base
}

// jsonMetric and jsonResult are the schema of the last output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// endToEnd fills the untraced metrics.
func (r *report) endToEnd(setupS, opMs []float64, timedOps int, elapsed time.Duration, rmse []float64) error {
	p50, _, err := percentile(opMs, 50)
	if err != nil {
		return err
	}
	p90, beyond, err := percentile(opMs, 90)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	mean := 0.0
	for _, v := range rmse {
		mean += v / float64(len(rmse))
	}
	n := len(opMs)
	r.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
	r.add("op_p50_ms", p50, "ms", fmt.Sprintf("n=%d", n))
	r.add("op_p90_ms", p90, "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond))
	r.add("ops_per_s", float64(timedOps)/elapsed.Seconds(), "1/s", fmt.Sprintf("%d ops in %.2f s", timedOps, elapsed.Seconds()))
	r.add("peak_rss_mb", rss, "MiB", "VmHWM")
	r.add("tod_rmse", mean, "trips", fmt.Sprintf("mean over the %d-op seed cycle", len(rmse)))
	return nil
}

// perLayer fills the traced metrics. Timings follow callMs; counts are
// deltas over the traced cycles divided by their ops.
func (r *report) perLayer(tr *tracer, d counterDelta, ops int, traced, plain []float64) {
	calls := summarize(tr.spans, ops)
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	s, f := tr.sim, tr.fit
	r.add("experiment.new_env_ms", callMs(calls, "experiment.NewEnv"), "ms", "")
	r.add("experiment.build_ovs_ms", callMs(calls, "experiment.BuildOVS"), "ms", "")
	r.add("experiment.evaluate_ms", callMs(calls, "experiment.Evaluate"), "ms", "")
	r.add("dataset.tod_ms", callMs(calls, "dataset.MixedTOD"), "ms", "")
	r.add("sim.run_ms", callMs(calls, "sim.RunCtx"), "ms", fmt.Sprintf("%d runs", s.runs))
	r.add("sim.vehicles_per_s", ratio(float64(s.vehicles), s.busyMs/1000), "1/s", "")
	r.add("sim.allocs_per_run", ratio(float64(s.mallocs), float64(s.runs)), "count", "")
	r.add("sim.alloc_mb_per_run", ratio(float64(s.allocBytes)/(1<<20), float64(s.runs)), "MiB", "")
	r.add("roadnet.dijkstra_per_run", ratio(float64(s.dijkstra), float64(s.runs)), "count", "")
	r.add("roadnet.dijkstra_per_vehicle", ratio(float64(s.dijkstra), float64(s.vehicles)), "ratio", "")
	r.add("core.topology_ms", callMs(calls, "core.NewTopology"), "ms", "")
	r.add("core.train_v2s_ms", callMs(calls, "core.TrainV2SCtx"), "ms", "")
	r.add("core.train_t2v_ms", callMs(calls, "core.TrainT2VCtx"), "ms", "")
	r.add("core.fit_ms", callMs(calls, "core.FitBestCtx"), "ms", "")
	r.add("core.fit_epoch_ms", ratio(f.ms, float64(f.epochs)), "ms", "fit wall time per restart-epoch")
	r.add("core.restarts_per_op", perOp(float64(f.restarts)), "count", "")
	r.add("tensor.arena_hit_ratio", ratio(float64(d.arenaHits), float64(d.arenaHits+d.arenaMisses)), "ratio", "")
	r.add("tensor.arena_misses_per_op", perOp(float64(d.arenaMisses)), "count", "")
	r.add("tensor.pack_hit_ratio", ratio(float64(d.packHits), float64(d.packHits+d.packMisses)), "ratio", "")
	r.add("tensor.pack_invalidations_per_op", perOp(float64(d.packInvalidations)), "count", "")
	r.add("tensor.pack_evictions_per_op", perOp(float64(d.packEvictions)), "count", "")
	r.add("parallel.cpu_per_wall", ratio(d.cpu.Seconds(), d.wall.Seconds()), "ratio", "")
	r.add("runtime.alloc_mb_per_op", perOp(float64(d.allocBytes)/(1<<20)), "MiB", "")
	r.add("runtime.mallocs_per_op", perOp(float64(d.mallocs)), "count", "")
	r.add("runtime.gc_cycles_per_op", perOp(float64(d.gcCycles)), "count", "")
	r.add("runtime.gc_pause_ms_per_op", perOp(float64(d.gcPauseNs)/1e6), "ms", "")
	opSelf := 0.0
	for _, lc := range calls {
		if lc.name == "op" {
			opSelf = lc.selfMsPerOp
		}
	}
	r.add("bench.op_self_ms", opSelf, "ms", "op time outside every layer call")
	r.add("bench.op_fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", "")
	r.add("trace.overhead_ratio", ratio(median(traced), median(plain)), "ratio",
		fmt.Sprintf("median traced op over median untraced op, n=%d and %d", len(traced), len(plain)))

	r.breakdown = calls
	total := 0.0
	for _, v := range traced {
		total += v
	}
	r.opMs = ratio(total, float64(len(traced)))
}

func ratio(a, b float64) float64 {
	if b == 0 { //ovslint:ignore floateq an exactly zero denominator is the only undefined case
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close() //ovslint:ignore ignorederr closing a read-only /proc file loses no data
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// result is the JSON object of the last output line.
func (r *report) result() (jsonResult, error) {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if !validName(m.name) || !validUnit(m.unit) {
			return out, fmt.Errorf("metric %q has an invalid name or unit %q", m.name, m.unit)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return out, fmt.Errorf("metric %q reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return out, fmt.Errorf("metric %q is %g", m.name, m.value)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out, nil
}

// print writes every metric by name with its unit, the traced breakdown if
// any, and the JSON result as the last line.
func (r *report) print(w io.Writer) error {
	res, err := r.result()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, r.header)
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if len(r.breakdown) > 0 {
		fmt.Fprintf(w, "traced op breakdown (mean traced op %.2f ms):\n", r.opMs)
		fmt.Fprintf(w, "  %-24s %8s %12s %14s %8s\n", "span", "calls", "median ms", "self ms/op", "share")
		for _, lc := range r.breakdown {
			fmt.Fprintf(w, "  %-24s %8d %12.3f %14.3f %7.1f%%\n", lc.name, lc.timedCalls, callMs([]layerCall{lc}, lc.name), lc.selfMsPerOp, 100*ratio(lc.selfMsPerOp, r.opMs))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
