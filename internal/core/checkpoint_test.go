package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
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
// with arena pooling on and off. FitRestarts=1 exercises the epoch-granular
// fit stage.
func TestResumeEquivalence(t *testing.T) {
	requireResumeEquivalence(t, 1, nil)
}

// TestResumeEquivalenceRestarts repeats the headline check with a
// multi-restart fit, exercising the restart-granular checkpoint path on both
// the bounded (Workers=1, cloning still active) and concurrent schedules,
// where restarts unstarted at cancellation are skipped and re-run on resume.
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

// TestStageMismatchRejected: a checkpoint taken mid single-start fit cannot
// resume a multi-restart fit (the configuration changed between runs).
func TestStageMismatchRejected(t *testing.T) {
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
	// One poll per epoch: polls 1-6 end the V2S and T2V epochs, poll 7
	// cancels at the end of fit epoch 1.
	if _, err := c.TrainFull(cancelOnPoll(6), samples, obs, 3, 3, 2, nil); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interrupt in the fit stage, got %v", err)
	}
	snap, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stage != StageFit || snap.Epoch != 1 {
		t.Fatalf("interrupt landed at %s epoch %d, want %s epoch 1", snap.Stage, snap.Epoch, StageFit)
	}

	m2 := NewModel(topo, cfg)
	c2, err := NewCheckpointer(m2, CkptOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.FitBest(context.Background(), fitObs(m2, 12), 2, 3, nil); err == nil {
		t.Fatal("resuming a fit checkpoint into a multi-restart fit did not error")
	}
}

// TestResumePackCacheEquivalence is the pack-cache invalidation regression
// test: with every product forced through the blocked path (so the cache
// serves all weight panels), a run that is killed and resumed — which
// restores parameters in place over cached pack sources — must reproduce the
// uninterrupted run exactly. A missed invalidation anywhere in the restore
// path would feed stale panels to the first post-resume epoch and diverge.
func TestResumePackCacheEquivalence(t *testing.T) {
	oldThresh := tensor.SetGEMMBlockedThreshold(1)
	defer tensor.SetGEMMBlockedThreshold(oldThresh)
	tensor.FlushPackCache()
	defer tensor.FlushPackCache()

	topo := testTopo(t, 4, 1)
	cfg := ckptTestConfig(2, 1)
	samples := poolingSamples(topo, 3)

	ref, _ := referenceTrainFull(t, topo, cfg, samples)
	dir := t.TempDir()
	got, _ := interruptedTrainFull(t, topo, cfg, samples, dir, nil)
	requireSameResult(t, "pack cache resume", ref, got)

	if st := tensor.PackCacheStatsSnapshot(); st.Hits == 0 {
		t.Fatal("pack cache never hit: the test no longer exercises cached packs")
	}
}
