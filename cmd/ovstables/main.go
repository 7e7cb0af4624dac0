// Command ovstables regenerates the paper's tables and figures.
//
// Usage:
//
//	ovstables -exp tableviii -scale quick -seed 1
//	ovstables -exp all -scale test
//
// Experiments: tablevi, tablevii, tableviii, tableix, tablex, fig9, fig10,
// fig11, fig12, fig13, all. Scales: test (seconds per experiment), quick
// (the default; minutes per experiment), full (closer to the paper's
// protocol; slow).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ovs/internal/cliutil"
	"ovs/internal/experiment"
	"ovs/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: tablevi|tablevii|tableviii|tableix|tablex|fig9|fig10|fig11|fig12|fig13|routechoice|enginecross|noise|all (comma-separated)")
	scaleName := flag.String("scale", "quick", "effort: test|quick|full")
	seed := flag.Int64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "how many experiment cells and fit restarts run at once (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	fig9Sizes := flag.String("fig9sizes", "10,50,100", "comma-separated intersection counts for fig9")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ovstables: -workers %d: want 0 (GOMAXPROCS) or a positive count\n", *workers)
		os.Exit(2)
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	parallel.SetWorkers(*workers)

	var sc experiment.Scale
	switch *scaleName {
	case "test":
		sc = experiment.TestScale()
	case "quick":
		sc = experiment.QuickScale()
	case "full":
		sc = experiment.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		stopProfiles()
		os.Exit(2)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"tableviii", "tablevi", "tablevii", "tableix", "tablex", "fig9", "fig10", "fig11", "fig12", "fig13"}
	}
	for _, id := range ids {
		start := time.Now()
		if err := run(ctx, strings.TrimSpace(id), sc, *seed, parseSizes(*fig9Sizes)); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "%s: cancelled: %v\n", id, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			}
			cancel()
			stopProfiles()
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s]\n\n", id, time.Since(start).Round(time.Second))
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err == nil && n > 0 {
			out = append(out, n)
		}
	}
	return out
}

func run(ctx context.Context, id string, sc experiment.Scale, seed int64, fig9Sizes []int) error {
	switch id {
	case "tablevi":
		results, err := experiment.RunRealComparison(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderComparison("Table VI: RMSE on real datasets", results))
	case "tablevii":
		res, err := experiment.RunRunningTime(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "tableviii":
		results, err := experiment.RunSyntheticComparison(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderComparison("Table VIII: RMSE on synthetic patterns", results))
	case "tableix":
		res, err := experiment.RunAblation(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "tablex":
		cs1, err := experiment.RunCaseStudy1(ctx, sc, seed)
		if err != nil {
			return err
		}
		cs2, err := experiment.RunCaseStudy2(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println("Table X: RMSE_speed in real-world scenarios")
		fmt.Println(cs1.Render())
		fmt.Println(cs2.Render())
	case "fig9":
		res, err := experiment.RunScalability(ctx, sc, fig9Sizes, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "fig10":
		res, err := experiment.RunCensusConstraint(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "fig11":
		res, err := experiment.RunRoadWork(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "fig12":
		res, err := experiment.RunCaseStudy1(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println("Figure 12: " + res.Render())
	case "fig13":
		res, err := experiment.RunCaseStudy2(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println("Figure 13: " + res.Render())
	case "routechoice":
		res, err := experiment.RunRouteChoice(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "enginecross":
		res, err := experiment.RunEngineCross(ctx, sc, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "noise":
		res, err := experiment.RunNoiseRobustness(ctx, sc, nil, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
