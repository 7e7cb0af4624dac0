package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ovs/internal/ckpt"
	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// ckptTestConfig is the shared model configuration of the resume tests:
// dropout is on so the training stages consume the checkpointed RNG stream.
func ckptTestConfig(workers int, restarts int) Config {
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	cfg.Seed = 29
	cfg.Workers = workers
	cfg.DropoutRate = 0.2
	cfg.FitRestarts = restarts
	return cfg
}

// referenceTrainFull runs the pipeline uninterrupted under a checkpointer.
func referenceTrainFull(t *testing.T, topo *Topology, cfg Config, samples []Sample) (*TrainResult, string) {
	t.Helper()
	dir := t.TempDir()
	m := NewModel(topo, cfg)
	obs := fitObs(m, 12)
	c, err := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TrainFull(context.Background(), samples, obs, 3, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, dir
}

// interruptedTrainFull cancels and resumes the pipeline until it completes:
// every attempt runs under a context that cancels itself mid-flight, with an
// ever-growing poll budget so every attempt both interrupts somewhere and
// makes progress. A non-nil cause is the cancellation cause each context is
// cancelled with. It returns the final result and the attempt count.
func interruptedTrainFull(t *testing.T, topo *Topology, cfg Config, samples []Sample, dir string, cause error) (*TrainResult, int) {
	t.Helper()
	for attempt := 0; attempt < 60; attempt++ {
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		c, err := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Resume(); err != nil {
			t.Fatalf("attempt %d: resume: %v", attempt, err)
		}
		ctx := cancelOnPollCause(1+2*attempt, cause)
		res, err := c.TrainFull(ctx, samples, obs, 3, 3, 2, nil)
		if err == nil {
			return res, attempt
		}
		// A checkpointed run must surface cancellation as the resumable
		// ErrInterrupted, never as a bare context error or its cause.
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("attempt %d: %v, want ErrInterrupted", attempt, err)
		}
		if cause != nil && context.Cause(ctx) != cause {
			t.Fatalf("attempt %d: context cause %v, want %v", attempt, context.Cause(ctx), cause)
		}
	}
	t.Fatal("pipeline never completed within the attempt budget")
	return nil, 0
}

func requireSameResult(t *testing.T, label string, want, got *TrainResult) {
	t.Helper()
	if !tensor.AllClose(want.TOD, got.TOD, 0) {
		t.Fatalf("%s: recovered TOD differs between uninterrupted and resumed runs", label)
	}
	if !reflect.DeepEqual(want.V2SHist, got.V2SHist) {
		t.Fatalf("%s: V2S loss history differs:\n%v\n%v", label, want.V2SHist, got.V2SHist)
	}
	if !reflect.DeepEqual(want.T2VHist, got.T2VHist) {
		t.Fatalf("%s: T2V loss history differs:\n%v\n%v", label, want.T2VHist, got.T2VHist)
	}
	if !reflect.DeepEqual(want.FitHist, got.FitHist) {
		t.Fatalf("%s: fit loss history differs:\n%v\n%v", label, want.FitHist, got.FitHist)
	}
}

// requireSameFinalSnapshot compares the terminal checkpoints of two runs:
// parameters and RNG position must be bitwise identical.
func requireSameFinalSnapshot(t *testing.T, label, refDir, gotDir string) {
	t.Helper()
	ref, _, err := ckpt.Latest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ckpt.Latest(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stage != StageDone || got.Stage != StageDone {
		t.Fatalf("%s: terminal stages %q / %q, want both %q", label, ref.Stage, got.Stage, StageDone)
	}
	if !reflect.DeepEqual(ref.Params, got.Params) {
		t.Fatalf("%s: final parameters differ between uninterrupted and resumed runs", label)
	}
	if !reflect.DeepEqual(ref.GenState, got.GenState) {
		t.Fatalf("%s: final generator state differs", label)
	}
	if ref.RNGSeed != got.RNGSeed || ref.RNGDraws != got.RNGDraws {
		t.Fatalf("%s: RNG position (%d,%d) vs (%d,%d)", label, ref.RNGSeed, ref.RNGDraws, got.RNGSeed, got.RNGDraws)
	}
}

// TestResumeEquivalence is the headline guarantee of the checkpoint
// subsystem: a run cancelled through its context at any epoch and resumed
// produces bitwise-identical parameters, optimizer state, RNG position, and
// loss history to a run that never stopped — at several worker counts and
// with arena pooling on and off. FitRestarts=1 is the single-start fit.
func TestResumeEquivalence(t *testing.T) {
	requireResumeEquivalence(t, 1, nil)
}

// TestResumeEquivalenceRestarts repeats the headline check with a
// multi-restart fit on both the bounded (Workers=1) and concurrent
// schedules: a fit interrupted at any restart or epoch is refitted whole
// from its checkpointed entry state on resume.
func TestResumeEquivalenceRestarts(t *testing.T) {
	requireResumeEquivalence(t, 3, nil)
}

// requireResumeEquivalence checks cancel-and-resume against an uninterrupted
// run over the Workers x pooling matrix; cause is passed to
// interruptedTrainFull.
func requireResumeEquivalence(t *testing.T, restarts int, cause error) {
	t.Helper()
	restorePool := tensor.PoolingEnabled()
	defer tensor.SetPooling(restorePool)

	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, pooled := range []bool{true, false} {
			tensor.SetPooling(pooled)
			label := labelOf(workers, pooled)
			cfg := ckptTestConfig(workers, restarts)
			ref, refDir := referenceTrainFull(t, topo, cfg, samples)
			gotDir := t.TempDir()
			got, attempts := interruptedTrainFull(t, topo, cfg, samples, gotDir, cause)
			if attempts == 0 {
				t.Fatalf("%s: the run never got interrupted; the test exercises nothing", label)
			}
			requireSameResult(t, label, ref, got)
			requireSameFinalSnapshot(t, label, refDir, gotDir)
		}
	}
}

func labelOf(workers int, pooled bool) string {
	l := "workers=" + string(rune('0'+workers))
	if pooled {
		return l + " pooled"
	}
	return l + " fresh"
}

// TestResumeSurvivesCorruptNewestCheckpoint cancels a run, corrupts the newest
// checkpoint on disk (simulating a crash that slipped past the atomic-write
// protocol, e.g. torn storage), and resumes: Latest must fall back to the
// previous valid checkpoint and the final result must still match the
// uninterrupted run exactly.
func TestResumeSurvivesCorruptNewestCheckpoint(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)
	cfg := ckptTestConfig(1, 1)

	ref, _ := referenceTrainFull(t, topo, cfg, samples)

	dir := t.TempDir()
	m := NewModel(topo, cfg)
	obs := fitObs(m, 12)
	c, err := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One poll per epoch: polls 1-3 end the V2S epochs, poll 5 cancels at
	// the end of T2V epoch 2, leaving checkpoints for T2V epochs 1 and 2.
	if _, err := c.TrainFull(cancelOnPoll(4), samples, obs, 3, 3, 2, nil); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interrupt, got %v", err)
	}
	// Truncate the newest checkpoint mid-file.
	snap, newest, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stage != StageT2V || snap.Epoch != 2 {
		t.Fatalf("interrupt landed at %s epoch %d, want %s epoch 2", snap.Stage, snap.Epoch, StageT2V)
	}
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, _ := interruptedTrainFull(t, topo, cfg, samples, dir, nil)
	requireSameResult(t, "corrupt-fallback", ref, got)
}

// TestTrainedTerminalResume covers the ovsfit -train workflow: train the two
// mappings, mark the run "trained", and resume into a fresh model — both
// stages must be skipped, the recorded loss curves returned, and the restored
// parameters bitwise identical to the first run's.
func TestTrainedTerminalResume(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)
	cfg := ckptTestConfig(1, 1)
	dir := t.TempDir()

	m1 := NewModel(topo, cfg)
	c1, err := NewCheckpointer(m1, CkptOptions{Dir: dir, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	v2s1, t2v1, err := c1.TrainMappings(context.Background(), samples, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Finish(StageTrained); err != nil {
		t.Fatal(err)
	}
	want, err := nn.CaptureParams(m1.Params())
	if err != nil {
		t.Fatal(err)
	}

	m2 := NewModel(topo, cfg)
	c2, err := NewCheckpointer(m2, CkptOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path, err := c2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("Resume found no checkpoint")
	}
	v2s2, t2v2, err := c2.TrainMappings(context.Background(), samples, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v2s1, v2s2) || !reflect.DeepEqual(t2v1, t2v2) {
		t.Fatal("resumed terminal run did not return the recorded loss curves")
	}
	got, err := nn.CaptureParams(m2.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored parameters differ from the trained run")
	}
}

// TestResumeEmptyDirStartsFresh ensures a checkpoint directory with no valid
// checkpoint is not an error — the run simply starts from scratch.
func TestResumeEmptyDirStartsFresh(t *testing.T) {
	topo := testTopo(t, 4, 1)
	m := NewModel(topo, ckptTestConfig(1, 1))
	c, err := NewCheckpointer(m, CkptOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if path != "" {
		t.Fatalf("Resume reported %q for an empty directory", path)
	}
}

// TestFitInterruptResumesFromEntry cancels TrainFull inside its fit. The
// fit is one resumable step: the newest checkpoint must hold the fit's entry
// state as StageTrained, and a multi-restart fit resumed from it must equal
// FitBestCtx on an uninterrupted chain, bitwise in both TOD and curve.
func TestFitInterruptResumesFromEntry(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)
	cfg := ckptTestConfig(1, 1)
	dir := t.TempDir()

	m := NewModel(topo, cfg)
	obs := fitObs(m, 12)
	c, err := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Polls 1-6 end the V2S and T2V epochs, poll 7 starts the fit's restart
	// fan-out, poll 8 cancels at the end of fit epoch 1.
	if _, err := c.TrainFull(cancelOnPoll(7), samples, obs, 3, 3, 2, nil); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interrupt in the fit, got %v", err)
	}
	snap, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stage != StageTrained {
		t.Fatalf("interrupted fit checkpointed stage %q, want %q", snap.Stage, StageTrained)
	}

	ref := NewModel(topo, cfg)
	refObs := fitObs(ref, 12)
	if _, err := ref.TrainV2SCtx(context.Background(), samples, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainT2VCtx(context.Background(), samples, 3); err != nil {
		t.Fatal(err)
	}
	wantTOD, wantHist, err := ref.FitBestCtx(context.Background(), refObs, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	m2 := NewModel(topo, cfg)
	obs2 := fitObs(m2, 12)
	c2, err := NewCheckpointer(m2, CkptOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Resume(); err != nil {
		t.Fatal(err)
	}
	gotTOD, gotHist, err := c2.FitBest(context.Background(), obs2, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(wantTOD, gotTOD, 0) {
		t.Fatal("resumed fit recovered a different TOD than the uninterrupted chain")
	}
	if !reflect.DeepEqual(wantHist, gotHist) {
		t.Fatalf("resumed fit curve differs:\n%v\n%v", wantHist, gotHist)
	}
}

// TestResumeRejectsMidFitStages: older builds checkpointed the fit mid-way in
// stages "fit" and "fit-restarts". Those snapshots hold a partly fitted
// generator that no stage of this build resumes, so Resume must reject them
// with an error naming the stage and leave the model's parameters untouched.
func TestResumeRejectsMidFitStages(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := ckptTestConfig(1, 1)
	other := cfg
	other.Seed++
	src := NewModel(topo, other)
	params, err := nn.CaptureParams(src.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"fit", "fit-restarts"} {
		dir := t.TempDir()
		w, err := ckpt.NewWriter(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		snap := &ckpt.Snapshot{
			Stage:    stage,
			Params:   params,
			GenState: tensorStates(src.TODGen.StateTensors()),
		}
		if _, err := w.Write(snap); err != nil {
			t.Fatal(err)
		}

		m := NewModel(topo, cfg)
		want, err := nn.CaptureParams(m.Params())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(want, params) {
			t.Fatal("snapshot parameters equal the live model's; the test checks nothing")
		}
		c, err := NewCheckpointer(m, CkptOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Resume()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(stage)) {
			t.Fatalf("stage %q: Resume err = %v, want an error naming the stage", stage, err)
		}
		got, err := nn.CaptureParams(m.Params())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stage %q: rejected checkpoint modified the model's parameters", stage)
		}
	}
}
