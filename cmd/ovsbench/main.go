// Command ovsbench runs the repository's micro-benchmarks once each and
// writes a machine-readable summary. It shells out to `go test -bench` so the
// numbers come from the standard benchmark harness (ns/op, B/op, allocs/op
// with -benchmem), then parses the text output into JSON.
//
// Usage:
//
//	ovsbench -bench 'BenchmarkFitEpoch|BenchmarkBackward'
//	ovsbench -benchtime 5x -o fit.json
//	ovsbench -benchtime 100ms -maxallocs 'BenchmarkMatMul=6,BenchmarkModelForward=84'
//
// The report goes to bench-report.json unless -o names another file. A
// committed BENCH_<PR>.json is named after the PR that measured it, so
// pass -o when recording one.
//
// The default selection covers the allocation-sensitive hot-loop benchmarks
// plus the GEMM shape sweep, the gate kernels, routing benchmarks, the LSTM baseline's Recover
// (BenchmarkBaselineLSTM, the learned baselines' training loop), and the
// cold serial lint pass (BenchmarkLintRepo, the CI lint job's wall-clock);
// pass -bench '.' for everything. -maxallocs turns the run into a
// regression gate: it fails (and exits non-zero) when a named benchmark's
// allocs/op exceeds its limit, which CI uses to catch the pooled pack
// buffers or the recycled training graph quietly reverting to per-call
// allocation.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"ovs/internal/cliutil"
)

// Result is one benchmark line from `go test -bench -benchmem`.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the file ovsbench writes: the harness invocation plus every
// parsed benchmark result, in run order.
type Report struct {
	GoTestArgs []string `json:"go_test_args"`
	GoVersion  string   `json:"go_version"`
	Results    []Result `json:"results"`
}

// defaultBench is the default selection. "BenchmarkFitEpoch" selects the
// 3×3-grid 1-epoch fit (arena on and off) and BenchmarkFitEpochManhattan,
// the 360-link 1-epoch fit of the manhattan-refit benchmark workload, whose
// ops are whole FitBestCtx calls, per-fit set-up included, and
// BenchmarkFitEpochOnlyManhattan, whose op is one epoch of that fit alone.
// BenchmarkGateKernels is the sigmoid/tanh kernels against their scalar
// loops.
const defaultBench = "BenchmarkFitEpoch|BenchmarkBackward|BenchmarkModelForward|BenchmarkMatMul$|BenchmarkMatMulPacked|BenchmarkGEMM|BenchmarkLSTMForwardBackward|BenchmarkLSTMCell$|BenchmarkLSTMBatch|BenchmarkGateKernels|BenchmarkSimulatorMeso|BenchmarkDijkstra|BenchmarkBaselineLSTM|BenchmarkLintRepo"

func main() {
	bench := flag.String("bench", defaultBench, "benchmark selection regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	pkg := flag.String("pkg", ".", "package pattern holding the benchmarks")
	outPath := flag.String("o", "bench-report.json", "output JSON path")
	maxAllocs := flag.String("maxallocs", "",
		"comma-separated name=limit pairs, e.g. 'BenchmarkMatMul=16'; fail when a benchmark's allocs/op exceeds its limit (names matched exactly after stripping the -GOMAXPROCS suffix)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()

	gates, err := parseAllocGates(*maxAllocs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, cancel := cliutil.RootContext(*timeout)
	if err := run(ctx, *bench, *benchtime, *pkg, *outPath, gates); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "cancelled: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		cancel()
		os.Exit(1)
	}
	cancel()
}

// allocGate is one -maxallocs entry, kept in flag order so gate checking and
// its error output are deterministic.
type allocGate struct {
	name  string
	limit int64
}

func parseAllocGates(spec string) ([]allocGate, error) {
	if spec == "" {
		return nil, nil
	}
	var gates []allocGate
	for _, pair := range strings.Split(spec, ",") {
		// Cut at the LAST '=': sub-benchmark names may themselves contain
		// one ("BenchmarkFitEpoch/arena=on=1500" gates .../arena=on at 1500).
		pair = strings.TrimSpace(pair)
		i := strings.LastIndex(pair, "=")
		if i < 0 {
			return nil, fmt.Errorf("ovsbench: -maxallocs entry %q is not name=limit", pair)
		}
		name, limitStr := pair[:i], pair[i+1:]
		limit, err := strconv.ParseInt(limitStr, 10, 64)
		if err != nil || limit < 0 {
			return nil, fmt.Errorf("ovsbench: -maxallocs limit in %q must be a non-negative integer", pair)
		}
		gates = append(gates, allocGate{name: name, limit: limit})
	}
	return gates, nil
}

// trimProcsSuffix removes go test's -GOMAXPROCS decoration ("BenchmarkX-8" →
// "BenchmarkX"), so gates match across machines.
func trimProcsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// checkAllocGates enforces -maxallocs: every gate must match at least one
// result, and no matched result may exceed its limit.
func checkAllocGates(results []Result, gates []allocGate) error {
	var violations []string
	for _, g := range gates {
		matched := false
		for _, r := range results {
			if trimProcsSuffix(r.Name) != g.name {
				continue
			}
			matched = true
			if r.AllocsPerOp > g.limit {
				violations = append(violations, fmt.Sprintf("%s: %d allocs/op > limit %d",
					r.Name, r.AllocsPerOp, g.limit))
			}
		}
		if !matched {
			violations = append(violations, fmt.Sprintf("%s: gate matched no benchmark result", g.name))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("ovsbench: allocation gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

func run(ctx context.Context, bench, benchtime, pkg, outPath string, gates []allocGate) error {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, "-benchmem", pkg}
	// CommandContext kills the harness subprocess on ^C / -timeout, so a
	// cancelled benchmark run doesn't leave a stray `go test` behind.
	cmd := exec.CommandContext(ctx, "go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "ovsbench: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench failed: %w", err)
	}
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		return err
	}

	results, err := parseBenchOutput(out.Bytes())
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	report := Report{GoTestArgs: args, GoVersion: goVersion(), Results: results}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	err = cliutil.WriteFileAtomic(outPath, func(w io.Writer) error {
		_, werr := w.Write(append(enc, '\n'))
		return werr
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ovsbench: wrote %d results to %s\n", len(results), outPath)
	// Gate after writing, so the report survives as an artifact even when the
	// allocation check fails.
	return checkAllocGates(results, gates)
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// parseBenchOutput extracts benchmark lines of the form
//
//	BenchmarkName-8   1   123456 ns/op   7890 B/op   12 allocs/op
//
// from the harness output. Unparseable fields are left zero rather than
// failing the whole run, so a benchmark without -benchmem columns still
// reports its timing.
func parseBenchOutput(raw []byte) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				//ovslint:ignore ignorederr unparseable benchmark columns intentionally stay zero (see doc comment)
				r.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				//ovslint:ignore ignorederr unparseable benchmark columns intentionally stay zero (see doc comment)
				r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				//ovslint:ignore ignorederr unparseable benchmark columns intentionally stay zero (see doc comment)
				r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}
