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
	"strconv"
	"strings"
	"sync"
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
	sizes, err := parseSizes(*fig9Sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ovstables: -fig9sizes %q: %v\n", *fig9Sizes, err)
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
	exps := experiments(ctx, sc, *seed, sizes)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		runExp, ok := exps[id]
		if !ok {
			runExp = func() (string, error) { return "", fmt.Errorf("unknown experiment %q", id) }
		}
		out, err := runExp()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "%s: cancelled: %v\n", id, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			}
			cancel()
			stopProfiles()
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s done in %s]\n\n", id, time.Since(start).Round(time.Second))
	}
}

// parseSizes parses -fig9sizes, a comma-separated list of positive
// intersection counts; an entry that is not one is an error naming it.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("entry %q: want a positive intersection count", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// experiments maps each experiment id to a function that runs it and
// renders its output. Table X and Figs. 12/13 print the same two case
// studies, so each case study runs at most once per process.
func experiments(ctx context.Context, sc experiment.Scale, seed int64, fig9Sizes []int) map[string]func() (string, error) {
	case1 := sync.OnceValues(func() (*experiment.CaseStudyResult, error) { return experiment.RunCaseStudy1(ctx, sc, seed) })
	case2 := sync.OnceValues(func() (*experiment.CaseStudyResult, error) { return experiment.RunCaseStudy2(ctx, sc, seed) })
	return map[string]func() (string, error){
		"tablevi": func() (string, error) {
			results, err := experiment.RunRealComparison(ctx, sc, seed)
			if err != nil {
				return "", err
			}
			return experiment.RenderComparison("Table VI: RMSE on real datasets", results), nil
		},
		"tableviii": func() (string, error) {
			results, err := experiment.RunSyntheticComparison(ctx, sc, seed)
			if err != nil {
				return "", err
			}
			return experiment.RenderComparison("Table VIII: RMSE on synthetic patterns", results), nil
		},
		"tablevii": func() (string, error) { return rendered(experiment.RunRunningTime(ctx, sc, seed)) },
		"tableix":  func() (string, error) { return rendered(experiment.RunAblation(ctx, sc, seed)) },
		"tablex": func() (string, error) {
			cs1, err := rendered(case1())
			if err != nil {
				return "", err
			}
			cs2, err := rendered(case2())
			if err != nil {
				return "", err
			}
			return "Table X: RMSE_speed in real-world scenarios\n" + cs1 + "\n" + cs2, nil
		},
		"fig9":        func() (string, error) { return rendered(experiment.RunScalability(ctx, sc, fig9Sizes, seed)) },
		"fig10":       func() (string, error) { return rendered(experiment.RunCensusConstraint(ctx, sc, seed)) },
		"fig11":       func() (string, error) { return rendered(experiment.RunRoadWork(ctx, sc, seed)) },
		"fig12":       func() (string, error) { return titled("Figure 12: ", case1) },
		"fig13":       func() (string, error) { return titled("Figure 13: ", case2) },
		"routechoice": func() (string, error) { return rendered(experiment.RunRouteChoice(ctx, sc, seed)) },
		"enginecross": func() (string, error) { return rendered(experiment.RunEngineCross(ctx, sc, seed)) },
		"noise":       func() (string, error) { return rendered(experiment.RunNoiseRobustness(ctx, sc, nil, seed)) },
	}
}

// rendered renders an experiment's result, or passes its error on.
func rendered[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// titled renders a case study under a figure title.
func titled(title string, run func() (*experiment.CaseStudyResult, error)) (string, error) {
	out, err := rendered(run())
	if err != nil {
		return "", err
	}
	return title + out, nil
}
