package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	v, beyond, err := percentile(xs, 90)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %g with %d beyond, err %v; want 90 with 10 beyond", v, beyond, err)
	}
	if _, beyond, err := percentile(xs[:99], 90); err == nil {
		t.Fatalf("p90 of 99 samples accepted with %d beyond", beyond)
	}
	if v, _, err := percentile(xs[:20], 50); err != nil || v != 90 {
		t.Fatalf("p50 of 100..81 = %g, err %v; want 90", v, err)
	}
	if _, _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond")
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.75}, 1.8125, 7.9375},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
}

func TestBoundForTriplesTheSpread(t *testing.T) {
	for _, c := range []struct {
		iqr, bound float64
		steady     bool
	}{{0.001, 0.05, true}, {0.04, 0.12, true}, {0.0833, 0.25, true}, {0.1, 0.25, false}} {
		b, steady := boundFor(c.iqr)
		if math.Abs(b-c.bound) > 1e-12 || steady != c.steady {
			t.Errorf("boundFor(%g) = %g, %v; want %g, %v", c.iqr, b, steady, c.bound, c.steady)
		}
	}
	st := spreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if st.median != 5.5 || st.q1 != 2.75 || st.q3 != 8.25 || math.Abs(st.iqrShare-1) > 1e-12 || math.Abs(st.maxDev-4.5/5.5) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %+v", st)
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"op_p50_ms", "sim.run_ms", "grid3-recover", "a", "9lives", strings.Repeat("x", 64)} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", "é", strings.Repeat("x", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
	for _, unit := range []string{"ms", "s", "1/s", "%", "count", "MiB"} {
		if !validUnit(unit) {
			t.Errorf("validUnit(%q) = false", unit)
		}
	}
	for _, unit := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(unit) {
			t.Errorf("validUnit(%q) = true", unit)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: [10, 50) is covered once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // only [90, 100) lies inside op
		{Name: "a.1", Start: 12, End: 18, Parent: 1}, // a grandchild of op
		{Name: "d", Start: 60, End: 60, Parent: 0},   // empty
	}
	want := []float64{50, 14, 30, 30, 6, 0}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndSummarizes(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.op = 0
	root := tr.begin("op")
	_ = tr.call("child", func() error { time.Sleep(2 * time.Millisecond); return nil })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Op != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	calls := summarize(tr.spans, 1)
	if got := callMs(calls, "child"); got < 2 {
		t.Errorf("child call took %g ms, want >= 2", got)
	}
	if callMs(calls, "missing") != 0 {
		t.Error("a layer never called reports a nonzero time")
	}
	off := newTracer()
	if id := off.begin("x"); id != -1 || len(off.spans) != 0 {
		t.Error("a switched-off tracer recorded a span")
	}
	var none *tracer
	_ = none.call("x", func() error { return nil })
}

// lastLineKeys decodes the last output line into its raw top-level fields.
func lastLineKeys(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return top
}

func TestOutputSchema(t *testing.T) {
	rep := &report{header: "test", correct: true, attempted: 120, failed: 0}
	ops := make([]float64, 120)
	for i := range ops {
		ops[i] = 200 + float64(i)
	}
	if err := rep.endToEnd([]float64{1.5, 1.2, 1.9}, ops, 120, 30*time.Second, []float64{2, 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	top := lastLineKeys(t, buf.String())
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("top-level keys of %s", buf.String())
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s has keys %v, want exactly value and unit", name, m)
		}
	}
	res, err := parseResult(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["setup_s"]; got.Value != 1.5 || got.Unit != "s" {
		t.Errorf("setup_s = %+v, want the median 1.5 s", got)
	}
	if got := res.Metrics["tod_rmse"].Value; got != 3 {
		t.Errorf("tod_rmse = %g, want the cycle mean 3", got)
	}
	// Every metric line names its unit.
	for name, m := range res.Metrics {
		if !strings.Contains(buf.String(), name) || !strings.Contains(buf.String(), " "+m.Unit+" ") {
			t.Errorf("metric %s or its unit %s missing from the readable lines", name, m.Unit)
		}
	}

	for _, bad := range []metric{{name: "bad name", value: 1, unit: "s"}, {name: "x", value: math.NaN(), unit: "s"}, {name: "setup_s", value: 1, unit: "s"}} {
		r := &report{attempted: 1, metrics: append(append([]metric(nil), rep.metrics...), bad)}
		if _, err := r.result(); err == nil {
			t.Errorf("metric %+v accepted", bad)
		}
	}
}

// TestMetricsMatchBenchmarkFile checks that the runs report exactly the
// metrics, units and workloads BENCHMARK.json declares.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	e2e := &report{attempted: 1}
	ops := make([]float64, 100)
	if err := e2e.endToEnd([]float64{1}, ops, 100, time.Second, []float64{1}); err != nil {
		t.Fatal(err)
	}
	layers := &report{attempted: 1}
	layers.perLayer(newTracer(), counterDelta{}, 1, []float64{1}, []float64{1})
	for _, c := range []struct {
		kind string
		want []struct{ Name, Unit string }
		got  []metric
	}{{"end_to_end", spec.EndToEnd, e2e.metrics}, {"per_layer", spec.PerLayer, layers.metrics}} {
		units := map[string]string{}
		for _, m := range c.got {
			units[m.name] = m.unit
		}
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run reports %d", c.kind, len(c.want), len(c.got))
		}
		for _, m := range c.want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s [%s]: the run reports unit %q (present %v)", c.kind, m.Name, m.Unit, u, ok)
			}
		}
	}
}

func TestChecksRejectBadOutputs(t *testing.T) {
	g := tensor.New(2, 3)
	g.Fill(5)
	if err := checkTOD(g, 2, 3, 10); err != nil {
		t.Fatalf("valid TOD rejected: %v", err)
	}
	if err := checkTOD(g, 3, 2, 10); err == nil {
		t.Error("TOD of the wrong shape accepted")
	}
	for _, v := range []float64{-1, 11, math.NaN(), math.Inf(1)} {
		bad := g.Clone()
		bad.Data[4] = v
		if err := checkTOD(bad, 2, 3, 10); err == nil {
			t.Errorf("TOD entry %g accepted", v)
		}
	}

	net := roadnet.Grid(roadnet.GridConfig{Rows: 1, Cols: 2}) // two links, 13.9 m/s
	vol, speed := tensor.New(2, 3), tensor.New(2, 3)
	speed.Fill(10)
	if err := checkTraffic(net, vol, speed, 3, 0.8); err != nil {
		t.Fatalf("valid traffic rejected: %v", err)
	}
	for _, c := range []struct {
		vol, speed float64
	}{{-1, 10}, {math.NaN(), 10}, {1, 0.5}, {1, 14}, {1, math.NaN()}} {
		v, s := vol.Clone(), speed.Clone()
		v.Data[1], s.Data[1] = c.vol, c.speed
		if err := checkTraffic(net, v, s, 3, 0.8); err == nil {
			t.Errorf("volume %g, speed %g accepted", c.vol, c.speed)
		}
	}
}

// TestOpsRepeatBitwise runs the first op of every workload twice from the
// same set-up and expects identical digests, as the determinism check does.
func TestOpsRepeatBitwise(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "manhattan-refit" {
			continue // its set-up trains a model for seconds
		}
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			op, cycle, err := w.setup(ctx, nil, 7)
			if err != nil {
				t.Fatal(err)
			}
			if cycle < 2 {
				t.Fatalf("cycle of %d ops", cycle)
			}
			a, err := op(ctx, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := op(ctx, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("repeat of one op gave %+v then %+v", a, b)
			}
			if !(a.rmse > 0) {
				t.Fatalf("op reports TOD RMSE %g", a.rmse)
			}
		})
	}
}
