// Command odbench is the OD-recovery benchmark. It runs one workload
// closed-loop with one client: a set-up phase (timed as setup_s, repeated and
// reported as a median), one untimed warm-up cycle, then whole cycles of
// seed-determined ops until the requested seconds have passed. Every op's
// outputs are checked and hashed; a repeated seed whose outputs differ from
// its first occurrence counts as a failed op. The last line of standard
// output is one JSON object with the fields correct, attempted, failed and
// metrics.
//
// Usage:
//
//	bash odbench/run.sh --workload grid3-recover --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the run alternates untraced and traced cycles and reports
// the per-layer metrics instead; with --steady N it runs the workload N times
// in child processes and prints every metric's spread.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Float64("seconds", 30, "minimum length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times, with seeds seed, seed+1, ..., and print each metric's spread")
	spans := fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "odbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if *steady > 0 {
		if err := steadiness(ctx, stdout, w, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintln(stderr, "odbench:", err)
			return 1
		}
		return 0
	}
	rep, err := runWorkload(ctx, stderr, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "odbench:", err)
		return 1
	}
	if *spans != "" {
		if err := writeSpans(*spans, rep.spans); err != nil {
			fmt.Fprintln(stderr, "odbench:", err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "odbench:", err)
		return 1
	}
	return 0
}
