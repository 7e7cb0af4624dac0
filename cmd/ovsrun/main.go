// Command ovsrun runs one recovery method on one dataset end-to-end and
// prints the paper's three RMSE metrics — the smallest unit of the
// evaluation, useful for iterating on a single method or dataset.
//
// Usage:
//
//	ovsrun -city Hangzhou -method OVS -scale quick
//	ovsrun -pattern Gaussian -method LSTM -scale test
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ovs/internal/baselines"
	"ovs/internal/cliutil"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/tensor"
)

func main() {
	cityName := flag.String("city", "", "city preset: Hangzhou|Porto|Manhattan|StateCollege")
	patternName := flag.String("pattern", "", "synthetic pattern on the 3x3 grid: Random|Increasing|Decreasing|Gaussian|Poisson")
	method := flag.String("method", "OVS", "method: OVS|Gravity|Genetic|GLS|EM|NN|LSTM")
	scaleName := flag.String("scale", "test", "effort: test|quick|full")
	seed := flag.Int64("seed", 1, "seed")
	ckptDir := flag.String("checkpoint-dir", "", "write crash-safe training checkpoints into this directory (OVS only)")
	ckptEvery := flag.Int("ckpt-every", 5, "checkpoint the V2S/T2V training stages every N epochs (with -checkpoint-dir); an interrupted fit is refitted from its entry state")
	resume := flag.Bool("resume", false, "continue from the newest valid checkpoint in -checkpoint-dir")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()

	ctx, cancel := cliutil.RootContext(*timeout)
	if err := run(ctx, *cityName, *patternName, *method, *scaleName, *seed, *ckptDir, *ckptEvery, *resume); err != nil {
		switch {
		case errors.Is(err, core.ErrInterrupted):
			fmt.Fprintf(os.Stderr, "interrupted: progress checkpointed in %s; rerun with -resume to continue\n", *ckptDir)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "cancelled: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		cancel()
		os.Exit(1)
	}
	cancel()
}

func run(ctx context.Context, cityName, patternName, method, scaleName string, seed int64, ckptDir string, ckptEvery int, resume bool) error {
	var sc experiment.Scale
	switch scaleName {
	case "test":
		sc = experiment.TestScale()
	case "quick":
		sc = experiment.QuickScale()
	case "full":
		sc = experiment.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}

	var env *experiment.Env
	var err error
	switch {
	case cityName != "":
		city, cerr := dataset.ByName(cityName, dataset.CityOptions{ODPairs: sc.ODPairs, Seed: seed})
		if cerr != nil {
			return cerr
		}
		env, err = experiment.NewEnv(ctx, city, sc, seed)
	case patternName != "":
		var pat dataset.Pattern
		found := false
		for _, p := range dataset.AllPatterns {
			if strings.EqualFold(p.String(), patternName) {
				pat, found = p, true
			}
		}
		if !found {
			return fmt.Errorf("unknown pattern %q", patternName)
		}
		env, err = experiment.NewSyntheticEnv(ctx, pat, sc, seed)
	default:
		return fmt.Errorf("one of -city or -pattern is required")
	}
	if err != nil {
		return err
	}

	if resume && ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	start := time.Now()
	if strings.EqualFold(method, "OVS") {
		var tod *tensor.Tensor
		var elapsed time.Duration
		if ckptDir != "" {
			opts := core.CkptOptions{Dir: ckptDir, Every: ckptEvery}
			var resumedFrom string
			var oerr error
			tod, _, elapsed, resumedFrom, oerr = env.RunOVSCkpt(ctx, nil, opts, resume)
			if resumedFrom != "" {
				fmt.Printf("resumed from %s\n", resumedFrom)
			}
			if oerr != nil {
				return oerr
			}
		} else {
			var oerr error
			tod, _, elapsed, oerr = env.RunOVS(ctx, nil)
			if oerr != nil {
				return oerr
			}
		}
		fmt.Printf("OVS trained and fitted in %s\n", elapsed.Round(time.Millisecond))
		triple, eerr := env.Evaluate(ctx, tod)
		if eerr != nil {
			return eerr
		}
		fmt.Printf("RMSE: TOD %.2f  volume %.2f  speed %.2f\n", triple.TOD, triple.Volume, triple.Speed)
		return nil
	}

	var m baselines.Method
	for _, cand := range env.Methods() {
		if strings.EqualFold(cand.Name(), method) {
			m = cand
		}
	}
	if m == nil {
		return fmt.Errorf("unknown method %q", method)
	}
	tod, rerr := m.Recover(ctx, env.Context())
	if rerr != nil {
		return rerr
	}
	fmt.Printf("%s recovered in %s\n", m.Name(), time.Since(start).Round(time.Millisecond))
	triple, eerr := env.Evaluate(ctx, tod)
	if eerr != nil {
		return eerr
	}
	fmt.Printf("RMSE: TOD %.2f  volume %.2f  speed %.2f\n", triple.TOD, triple.Volume, triple.Speed)
	return nil
}
