package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs workload w n times, each in its own process with seeds
// seed, seed+1, ..., and prints for every metric the median, the quartiles,
// their distance as a share of the median (the spread a bound must cover)
// and the largest relative distance of any run from the median.
func steadiness(ctx context.Context, out io.Writer, w workload, seed int64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		res, err := parseResult(stdout.String())
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d ops failed", i+1, s, res.Failed, res.Attempted)
		}
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "run %d/%d seed %d:", i+1, n, s)
		for _, name := range names {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Fprintf(out, " %s=%.6g", name, m.Value)
		}
		fmt.Fprintln(out)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s, %d runs of %g s, trace %d:\n", w.name, n, seconds, trace)
	fmt.Fprintf(out, "  %-34s %-6s %14s %14s %14s %9s %9s %6s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "max dev", "bound")
	for _, name := range names {
		st := spreadOf(values[name])
		b, steady := boundFor(st.iqrShare)
		flag := ""
		if !steady {
			flag = " spread above a third of the largest bound"
		}
		fmt.Fprintf(out, "  %-34s %-6s %14.6g %14.6g %14.6g %8.2f%% %8.2f%% %6.2f%s\n",
			name, units[name], st.median, st.q1, st.q3, 100*st.iqrShare, 100*st.maxDev, b, flag)
	}
	return nil
}

// maxBound is the largest share by which a metric may worsen before a change
// counts as a regression.
const maxBound = 0.25

// boundFor derives a metric's bound from its measured spread: three times
// the quartile distance over the median, rounded up to a hundredth, at least
// 0.05 and at most maxBound. steady is false when the spread needs more than
// maxBound.
func boundFor(iqrShare float64) (bound float64, steady bool) {
	b := math.Ceil(3*iqrShare*100) / 100
	return math.Min(math.Max(b, 0.05), maxBound), b <= maxBound
}

// spread summarizes one metric over several runs.
type spread struct {
	median, q1, q3   float64
	iqrShare, maxDev float64 // (q3-q1)/median and max |v-median|/median
}

func spreadOf(xs []float64) spread {
	st := spread{median: median(xs)}
	st.q1, st.q3 = quartiles(xs)
	if st.median != 0 { //ovslint:ignore floateq only an exactly zero median leaves the share undefined
		st.iqrShare = (st.q3 - st.q1) / math.Abs(st.median)
		for _, v := range xs {
			st.maxDev = math.Max(st.maxDev, math.Abs(v-st.median)/math.Abs(st.median))
		}
	}
	return st
}

// parseResult decodes the JSON object on the last non-empty line of a run's
// output, insisting on exactly the result schema.
func parseResult(output string) (jsonResult, error) {
	lines := strings.Split(strings.TrimRight(output, "\n"), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res jsonResult
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	if res.Attempted < 1 || res.Metrics == nil {
		return res, fmt.Errorf("result lacks attempted ops or metrics")
	}
	return res, nil
}
