// Command ovsfit is the deployment loop of the OVS pipeline: train the
// volume-speed and TOD-volume mappings once for a city and save them; then,
// for each new speed observation window, load the trained chain and fit only
// the TOD generator to recover that window's demand.
//
// Usage:
//
//	ovsfit -city Hangzhou -train -model hangzhou.ovs
//	ovsfit -city Hangzhou -model hangzhou.ovs -fit observed_speed.json -o recovered_tod.json
//
// The observation file holds a (links × intervals) speed matrix — JSON
//
//	{"speed": [[13.9, 12.1, ...], ...]}
//
// or, when the path ends in .csv, the trafficio CSV form (optional t0,t1,...
// header, one row per link)
//
// Without -fit, a demonstration observation is synthesized from the city's
// ground-truth generator and the recovery is scored against it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"ovs/internal/cliutil"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/metrics"
	"ovs/internal/sim"
	"ovs/internal/tensor"
	"ovs/internal/trafficio"
)

type speedFile struct {
	Speed [][]float64 `json:"speed"`
}

type todFile struct {
	G [][]float64 `json:"g"`
}

func main() {
	cityName := flag.String("city", "Hangzhou", "city preset: Hangzhou|Porto|Manhattan|StateCollege")
	train := flag.Bool("train", false, "train the mappings and save the model")
	modelPath := flag.String("model", "model.ovs", "model parameter file")
	fitPath := flag.String("fit", "", "observed speed JSON or CSV to invert (omit for a self-test demo)")
	outPath := flag.String("o", "", "write the recovered TOD JSON here")
	scaleName := flag.String("scale", "test", "effort: test|quick|full")
	seed := flag.Int64("seed", 1, "seed")
	ckptDir := flag.String("checkpoint-dir", "", "write crash-safe training checkpoints into this directory")
	ckptEvery := flag.Int("ckpt-every", 5, "checkpoint every N epochs (with -checkpoint-dir)")
	resume := flag.Bool("resume", false, "continue from the newest valid checkpoint in -checkpoint-dir")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, cancel := cliutil.RootContext(*timeout)
	if err := run(ctx, *cityName, *train, *modelPath, *fitPath, *outPath, *scaleName, *seed, *ckptDir, *ckptEvery, *resume); err != nil {
		switch {
		case errors.Is(err, core.ErrInterrupted):
			fmt.Fprintf(os.Stderr, "interrupted: progress checkpointed in %s; rerun with -resume to continue\n", *ckptDir)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "cancelled: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		cancel()
		stopProfiles()
		os.Exit(1)
	}
	cancel()
	stopProfiles()
}

// readObservation loads a (links × intervals) speed matrix from path: CSV
// (trafficio.ReadSpeedCSV) when the name ends in .csv, the {"speed": [[...]]}
// JSON document otherwise.
func readObservation(path string) (*tensor.Tensor, error) {
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		var obs *tensor.Tensor
		err := cliutil.ReadFile(path, func(r io.Reader) error {
			var err error
			obs, err = trafficio.ReadSpeedCSV(r)
			return err
		})
		if err != nil {
			return nil, err
		}
		return obs, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc speedFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(doc.Speed) == 0 || len(doc.Speed[0]) == 0 {
		return nil, fmt.Errorf("%s holds an empty speed matrix", path)
	}
	t := len(doc.Speed[0])
	obs := tensor.New(len(doc.Speed), t)
	for j, row := range doc.Speed {
		if len(row) != t {
			return nil, fmt.Errorf("ragged speed matrix at link %d", j)
		}
		for tt, v := range row {
			obs.Set(v, j, tt)
		}
	}
	return obs, nil
}

func run(ctx context.Context, cityName string, train bool, modelPath, fitPath, outPath, scaleName string, seed int64, ckptDir string, ckptEvery int, resume bool) error {
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
	if resume && ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	city, err := dataset.ByName(cityName, dataset.CityOptions{ODPairs: sc.ODPairs, Seed: seed})
	if err != nil {
		return err
	}
	env, err := experiment.NewEnv(ctx, city, sc, seed)
	if err != nil {
		return err
	}
	model, err := env.BuildOVS()
	if err != nil {
		return err
	}

	if train {
		start := time.Now()
		if ckptDir != "" {
			ck, err := checkpointer(model, ckptDir, ckptEvery, resume)
			if err != nil {
				return err
			}
			if _, _, err := ck.TrainMappings(ctx, env.Samples, sc.V2SEpochs, sc.T2VEpochs); err != nil {
				return err
			}
			if err := ck.Finish(core.StageTrained); err != nil {
				return err
			}
		} else {
			if _, err := model.TrainV2SCtx(ctx, env.Samples, sc.V2SEpochs); err != nil {
				return err
			}
			if _, err := model.TrainT2VCtx(ctx, env.Samples, sc.T2VEpochs); err != nil {
				return err
			}
		}
		if err := cliutil.WriteFileAtomic(modelPath, model.Save); err != nil {
			return err
		}
		fmt.Printf("trained %s mappings in %s, saved to %s\n",
			cityName, time.Since(start).Round(time.Second), modelPath)
		return nil
	}

	// Fit mode: load trained parameters.
	if err := cliutil.ReadFile(modelPath, model.Load); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("open model (run with -train first?): %w", err)
		}
		return err
	}

	var obs *tensor.Tensor
	var truth *tensor.Tensor
	if fitPath != "" {
		obs, err = readObservation(fitPath)
		if err != nil {
			return err
		}
		if m := city.Net.NumLinks(); obs.Dim(0) != m {
			return fmt.Errorf("observation has %d links, network has %d", obs.Dim(0), m)
		}
		if obs.Dim(1) != sc.Intervals {
			return fmt.Errorf("observation has %d intervals; the model was trained for %d", obs.Dim(1), sc.Intervals)
		}
	} else {
		// Demo: synthesize a hidden observation window.
		rng := rand.New(rand.NewSource(seed + 404))
		truth = city.GroundTruthTOD(sc.Intervals, sc.GTScale, rng)
		res, err := sim.New(city.Net, env.SimCfg).RunCtx(ctx, sim.Demand{ODs: city.ODs, G: truth})
		if err != nil {
			return err
		}
		obs = res.Speed
		fmt.Println("no -fit file given: synthesized a hidden demo observation")
	}

	start := time.Now()
	var rec *tensor.Tensor
	if ckptDir != "" {
		// The checkpointer is created after model.Load so a resumed
		// checkpoint's state (which includes the loaded mapping parameters)
		// takes precedence over the model file.
		ck, cerr := checkpointer(model, ckptDir, ckptEvery, resume)
		if cerr != nil {
			return cerr
		}
		rec, _, err = ck.FitBest(ctx, obs, sc.FitEpochs, 1, nil)
		if err != nil {
			return err
		}
		if err := ck.Finish(core.StageDone); err != nil {
			return err
		}
	} else {
		rec, _, err = model.FitBestCtx(ctx, obs, sc.FitEpochs, 1, nil)
		if err != nil {
			return err
		}
	}
	fmt.Printf("fitted TOD generator in %s\n", time.Since(start).Round(time.Millisecond))
	if truth != nil {
		fmt.Printf("demo recovery RMSE vs hidden truth: %.2f trips\n", metrics.RMSE(rec, truth))
	}

	if outPath != "" {
		doc := todFile{G: make([][]float64, rec.Dim(0))}
		for i := range doc.G {
			doc.G[i] = rec.Row(i).Data
		}
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		werr := cliutil.WriteFileAtomic(outPath, func(w io.Writer) error {
			_, werr := w.Write(append(enc, '\n'))
			return werr
		})
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote recovered TOD to %s\n", outPath)
	}
	return nil
}

// checkpointer builds the configured Checkpointer and resumes from the
// newest valid checkpoint when asked. Graceful stop comes from the run
// context: SIGINT and -timeout both cancel it, and the training loops
// checkpoint and exit at the next epoch boundary.
func checkpointer(model *core.Model, dir string, every int, resume bool) (*core.Checkpointer, error) {
	ck, err := core.NewCheckpointer(model, core.CkptOptions{
		Dir:   dir,
		Every: every,
	})
	if err != nil {
		return nil, err
	}
	if resume {
		from, err := ck.Resume()
		if err != nil {
			return nil, err
		}
		if from != "" {
			fmt.Printf("resuming from %s\n", from)
		} else {
			fmt.Println("no valid checkpoint found; starting fresh")
		}
	}
	return ck, nil
}
