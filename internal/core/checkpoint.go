package core

import (
	"context"
	"errors"
	"fmt"

	"ovs/internal/autodiff"
	"ovs/internal/ckpt"
	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// ErrInterrupted is returned by checkpointed training entry points when the
// run's context is cancelled. A checkpoint has been written by the time it
// surfaces; rerunning with resume continues where the run stopped.
var ErrInterrupted = errors.New("core: run interrupted; checkpoint written")

// Pipeline stage names recorded in checkpoints. A snapshot in stage S with
// epoch k means: every earlier stage is complete (its loss curve lives in
// PrevLoss) and S itself has completed k epochs. The two terminal stages mark
// a finished pipeline: "trained" after the mapping stages (ovsfit -train, or a
// fit interrupted before it finished), "done" after the full train-and-fit
// pipeline.
const (
	StageV2S     = "v2s"
	StageT2V     = "t2v"
	StageTrained = "trained"
	StageDone    = "done"
)

// stageRank orders the stages for resume-skip decisions.
var stageRank = map[string]int{StageV2S: 0, StageT2V: 1, StageTrained: 2, StageDone: 3}

// fitLossKey is the PrevLoss key of the fit's loss curve. The fit is not a
// checkpointed stage: it runs whole between StageTrained and StageDone.
const fitLossKey = "fit"

// CkptOptions configures fault-tolerant checkpointing for the training
// pipeline.
type CkptOptions struct {
	// Dir is the checkpoint directory. Required.
	Dir string
	// Every checkpoints the V2S and T2V stages after every N completed
	// epochs. <= 0 checkpoints only at stage boundaries and on interrupt. The
	// fit is never checkpointed mid-way: an interrupted fit is refitted.
	Every int
	// Keep is the retention depth; <= 0 selects the package default.
	Keep int
}

// Checkpointer wraps a Model with checkpointed, resumable variants of the
// training pipeline. The headline guarantee: a run interrupted at any epoch
// and resumed from its checkpoint produces bitwise-identical
// parameters, optimizer state, and loss history to a run that never stopped,
// at any worker count and with arena pooling on or off.
type Checkpointer struct {
	m    *Model
	opts CkptOptions
	w    *ckpt.Writer
	prev map[string][]float64

	// resume is the snapshot being resumed from; stages consume or skip it
	// as the pipeline advances past them.
	resume *ckpt.Snapshot
}

// NewCheckpointer creates the checkpoint directory if needed and returns a
// checkpointer whose sequence numbers continue after any existing
// checkpoints. It does not restore anything; call Resume to continue from
// the newest valid checkpoint.
func NewCheckpointer(m *Model, opts CkptOptions) (*Checkpointer, error) {
	w, err := ckpt.NewWriter(opts.Dir, opts.Keep)
	if err != nil {
		return nil, err
	}
	return &Checkpointer{m: m, opts: opts, w: w, prev: make(map[string][]float64)}, nil
}

// Resume loads the newest valid checkpoint (skipping corrupt or partial
// files) and restores the model's parameters, generator state, and RNG
// position to it. It returns the checkpoint path, or "" when the directory
// holds no valid checkpoint — which is not an error: the run simply starts
// fresh. Call before any training entry point.
func (c *Checkpointer) Resume() (string, error) {
	snap, path, err := ckpt.Latest(c.opts.Dir)
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	if err := c.restoreSnapshot(snap); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	c.resume = snap
	for stage, hist := range snap.PrevLoss {
		c.prev[stage] = append([]float64(nil), hist...)
	}
	return path, nil
}

// restoreSnapshot installs a snapshot's state into the model: parameters
// first (all-or-nothing), then the generator state tensors, then the RNG
// position. The snapshot must come from a model with identical topology and
// configuration; mismatches are rejected before anything is written.
func (c *Checkpointer) restoreSnapshot(snap *ckpt.Snapshot) error {
	if _, ok := stageRank[snap.Stage]; !ok {
		return fmt.Errorf("core: checkpoint has unknown stage %q", snap.Stage)
	}
	live := c.m.TODGen.StateTensors()
	gen, err := restoreTensorStates(snap.GenState, live)
	if err != nil {
		return fmt.Errorf("core: checkpoint generator state: %w", err)
	}
	if err := nn.RestoreParams(c.m.Params(), snap.Params); err != nil {
		return fmt.Errorf("core: checkpoint parameters: %w", err)
	}
	copyStateTensors(live, gen)
	c.m.rngSrc.Restore(snap.RNGSeed, snap.RNGDraws)
	return nil
}

// TrainMappings runs the two mapping stages (TrainV2SCtx then TrainT2VCtx)
// with periodic checkpoints, resuming either stage mid-flight when a
// snapshot is pending. It returns both loss curves.
func (c *Checkpointer) TrainMappings(ctx context.Context, samples []Sample, v2sEpochs, t2vEpochs int) ([]float64, []float64, error) {
	// Both stages' samples are checked up front, so a sample only the T2V
	// stage reads cannot fail after the V2S epochs have run.
	if err := c.m.checkSamples("TrainMappings", samples, true); err != nil {
		return nil, nil, err
	}
	v2s, err := c.runEpochStage(StageV2S, v2sEpochs, func(start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
		return c.m.trainV2S(ctx, samples, v2sEpochs, start, hist, opt, hook)
	}, c.m.V2S.Params())
	if err != nil {
		return v2s, nil, err
	}
	t2v, err := c.runEpochStage(StageT2V, t2vEpochs, func(start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
		return c.m.trainT2V(ctx, samples, t2vEpochs, start, hist, opt, hook)
	}, c.m.T2V.Params())
	return v2s, t2v, err
}

// FitBest is the checkpointed Model.FitBestCtx. The fit is one step that
// resumes from its entry state: if the pending resume snapshot is "done" the
// fit is skipped and its recorded curve returned; otherwise the whole fit
// runs. A cancelled fit leaves the generator at its entry state, which is
// checkpointed as StageTrained before ErrInterrupted surfaces, so the resumed
// run refits from the same start. The fit draws nothing from the model's RNG
// stream, so the refit lands on the same winner.
func (c *Checkpointer) FitBest(ctx context.Context, speedObs *tensor.Tensor, epochs, restarts int, aux *AuxData) (*tensor.Tensor, []float64, error) {
	if err := c.m.checkFitInputs(speedObs, aux); err != nil {
		return nil, nil, err
	}
	if c.resume != nil && c.resume.Stage == StageDone {
		// The restored parameters and generator state already hold the
		// winning fit.
		return c.m.GenerateTOD(), c.prev[fitLossKey], nil
	}
	c.resume = nil
	tod, hist, err := c.m.fitBest(ctx, speedObs, epochs, restarts, aux)
	if err != nil {
		// fitBest fails only on cancellation.
		if werr := c.write(StageTrained, 0, nil, nil); werr != nil {
			return nil, nil, werr
		}
		return nil, nil, ErrInterrupted
	}
	c.prev[fitLossKey] = hist
	return tod, hist, nil
}

// TrainResult bundles the outputs of the checkpointed full pipeline.
type TrainResult struct {
	TOD     *tensor.Tensor
	V2SHist []float64
	T2VHist []float64
	FitHist []float64
}

// TrainFull is the checkpointed Model.TrainFullCtx: both mapping stages, the
// fit, and a terminal "done" checkpoint capturing the final
// state. Resuming a completed run reproduces the same result without
// retraining.
func (c *Checkpointer) TrainFull(ctx context.Context, samples []Sample, speedObs *tensor.Tensor, v2sEpochs, t2vEpochs, fitEpochs int, aux *AuxData) (*TrainResult, error) {
	// TrainMappings validates the samples; the fit inputs are checked here
	// so a bad observation fails before the training stages spend epochs.
	if err := c.m.checkFitInputs(speedObs, aux); err != nil {
		return nil, err
	}
	v2s, t2v, err := c.TrainMappings(ctx, samples, v2sEpochs, t2vEpochs)
	if err != nil {
		return nil, err
	}
	tod, fit, err := c.FitBest(ctx, speedObs, fitEpochs, c.m.Cfg.FitRestarts, aux)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(StageDone); err != nil {
		return nil, err
	}
	return &TrainResult{TOD: tod, V2SHist: v2s, T2VHist: t2v, FitHist: fit}, nil
}

// Finish writes a terminal checkpoint (StageTrained or StageDone) capturing
// the completed pipeline's final state.
func (c *Checkpointer) Finish(stage string) error {
	if stageRank[stage] == 0 {
		return fmt.Errorf("core: %q is not a terminal stage", stage)
	}
	c.resume = nil
	return c.write(stage, 0, nil, nil)
}

// stageEntry resolves how a stage starts against the pending resume
// snapshot: skip it entirely (a later stage's snapshot proves it completed;
// its loss curve is returned), continue it mid-flight (the snapshot is
// consumed and returned), or start fresh.
func (c *Checkpointer) stageEntry(stage string) (snap *ckpt.Snapshot, skipHist []float64, skip bool) {
	r := c.resume
	if r == nil {
		return nil, nil, false
	}
	sr := stageRank[stage]
	rr := stageRank[r.Stage]
	if rr > sr {
		// A later stage checkpointed, so this one completed; its state is
		// already restored and its curve recorded.
		return nil, c.prev[stage], true
	}
	if rr < sr {
		// The snapshot is from an earlier terminal stage (e.g. "trained"
		// feeding a fit-only run): its state carries over, the stage itself
		// starts fresh.
		c.resume = nil
		return nil, nil, false
	}
	c.resume = nil
	return r, nil, false
}

// runEpochStage runs one epoch-granular stage through the resume/checkpoint
// machinery: resolve the entry point, rebuild the optimizer (importing its
// checkpointed slot state bound to the stage's parameters), run with the
// periodic hook, and record the completed curve.
func (c *Checkpointer) runEpochStage(stage string, epochs int, run func(start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error), params []*autodiff.Parameter) ([]float64, error) {
	snap, skipHist, skip := c.stageEntry(stage)
	if skip {
		return skipHist, nil
	}
	start := 0
	var hist []float64
	opt := nn.NewAdam(c.m.Cfg.LR)
	if snap != nil {
		start = snap.Epoch
		hist = append(hist, snap.Loss...)
		if snap.Opt != nil {
			if err := opt.ImportState(*snap.Opt, params); err != nil {
				return nil, fmt.Errorf("core: resume %s optimizer: %w", stage, err)
			}
		}
	}
	h, err := run(start, hist, opt, c.epochHook(stage, epochs))
	if err != nil {
		return h, err
	}
	c.prev[stage] = h
	return h, nil
}

// epochHook returns the per-epoch callback for one stage: it checkpoints on
// the configured cadence, at the stage boundary, and on cancellation — in
// the last case converting it into ErrInterrupted after the checkpoint is
// safely on disk. The training loop polls ctx once per epoch and passes the
// verdict in, so a cancelled checkpointed run always exits through this
// path with its final checkpoint written.
func (c *Checkpointer) epochHook(stage string, epochs int) stageHook {
	return func(done int, hist []float64, opt *nn.Adam, cancelled bool) error {
		boundary := done == epochs
		periodic := c.opts.Every > 0 && done%c.opts.Every == 0
		if !cancelled && !boundary && !periodic {
			return nil
		}
		if err := c.write(stage, done, hist, opt); err != nil {
			return err
		}
		if cancelled {
			return ErrInterrupted
		}
		return nil
	}
}

// write captures the model's current state into a snapshot and persists it.
func (c *Checkpointer) write(stage string, epoch int, loss []float64, opt *nn.Adam) error {
	params, err := nn.CaptureParams(c.m.Params())
	if err != nil {
		return err
	}
	snap := &ckpt.Snapshot{
		Stage:  stage,
		Epoch:  epoch,
		Loss:   append([]float64(nil), loss...),
		Params: params,
	}
	if len(c.prev) > 0 {
		snap.PrevLoss = make(map[string][]float64, len(c.prev))
		for k, v := range c.prev {
			snap.PrevLoss[k] = append([]float64(nil), v...)
		}
	}
	if opt != nil {
		st := opt.ExportState()
		snap.Opt = &st
	}
	snap.GenState = tensorStates(c.m.TODGen.StateTensors())
	snap.RNGSeed, snap.RNGDraws = c.m.rngSrc.State()
	_, err = c.w.Write(snap)
	return err
}

// tensorStates deep-copies live tensors into checkpoint records.
func tensorStates(ts []*tensor.Tensor) []ckpt.TensorState {
	out := make([]ckpt.TensorState, len(ts))
	for i, t := range ts {
		out[i] = ckpt.TensorState{
			Shape: append([]int(nil), t.Shape()...),
			Data:  append([]float64(nil), t.Data...),
		}
	}
	return out
}

// restoreTensorStates validates checkpoint tensor records against the live
// tensors they describe (count, shape, and length must all match) and
// materializes them. Nothing live is modified.
func restoreTensorStates(recs []ckpt.TensorState, like []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(recs) != len(like) {
		return nil, fmt.Errorf("core: %d state tensors recorded, model has %d", len(recs), len(like))
	}
	out := make([]*tensor.Tensor, len(recs))
	for i, rec := range recs {
		shape := like[i].Shape()
		if len(rec.Shape) != len(shape) {
			return nil, fmt.Errorf("core: state tensor %d has rank %d, model has %d", i, len(rec.Shape), len(shape))
		}
		for d, n := range shape {
			if rec.Shape[d] != n {
				return nil, fmt.Errorf("core: state tensor %d has shape %v, model has %v", i, rec.Shape, shape)
			}
		}
		if len(rec.Data) != len(like[i].Data) {
			return nil, fmt.Errorf("core: state tensor %d has %d values, model has %d", i, len(rec.Data), len(like[i].Data))
		}
		t := like[i].Clone()
		copy(t.Data, rec.Data)
		out[i] = t
	}
	return out, nil
}
