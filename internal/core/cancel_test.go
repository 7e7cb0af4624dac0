package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// pollCancelCtx is a context that cancels itself on its (n+1)-th Err() poll.
// Every training loop polls Err() exactly once per epoch boundary and the
// restart fan-out once per restart, so a growing n walks the interrupt
// through every boundary of a run. Safe for concurrent pollers.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelCauseFunc
	cause  error

	mu    sync.Mutex
	polls int
	n     int
}

func cancelOnPoll(n int) context.Context {
	return cancelOnPollCause(n, nil)
}

// cancelOnPollCause is cancelOnPoll with an explicit cancellation cause; a
// nil cause cancels with context.Canceled.
func cancelOnPollCause(n int, cause error) context.Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &pollCancelCtx{Context: ctx, cancel: cancel, cause: cause, n: n}
}

func (c *pollCancelCtx) Err() error {
	c.mu.Lock()
	c.polls++
	if c.polls > c.n {
		c.cancel(c.cause)
	}
	c.mu.Unlock()
	return c.Context.Err()
}

// errCancelCause is the cause the ctx-cancel equivalence tests cancel with.
var errCancelCause = errors.New("test: cancelled with a cause")

// TestCtxCancelEquivalence is the cancellable-runtime guarantee: a
// checkpointed run whose context is cancelled with a cause at any epoch exits
// with the resumable ErrInterrupted rather than the cause, and resuming it
// produces bitwise-identical parameters, RNG position, and loss history to a
// run that was never cancelled. Checked at several worker counts with arena
// pooling on and off.
func TestCtxCancelEquivalence(t *testing.T) {
	requireResumeEquivalence(t, 1, errCancelCause)
}

// TestCtxCancelEquivalenceRestarts repeats the ctx-cancel equivalence check
// with a multi-restart fit, exercising cancellation of the restart-granular
// checkpoint path on both the bounded and concurrent schedules (where
// restarts unstarted at cancellation are recorded as skipped and re-run on
// resume).
func TestCtxCancelEquivalenceRestarts(t *testing.T) {
	requireResumeEquivalence(t, 3, errCancelCause)
}

// TestTrainCtxReturnsCancelCause covers the non-checkpointed entry points:
// with no hook to convert cancellation into ErrInterrupted, a cancelled stage
// returns the partial history with the context's cancellation cause, and the
// completed prefix is bitwise-identical to an uncancelled run's.
func TestTrainCtxReturnsCancelCause(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)
	cfg := ckptTestConfig(1, 1)

	full, err := NewModel(topo, cfg).TrainV2SCtx(context.Background(), samples, 3)
	if err != nil {
		t.Fatal(err)
	}

	sentinel := errors.New("deadline budget spent")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)

	m := NewModel(topo, cfg)
	hist, err := m.TrainV2SCtx(ctx, samples, 3)
	if !errors.Is(err, sentinel) {
		t.Fatalf("TrainV2SCtx err = %v, want the cancel cause", err)
	}
	// Cancellation is observed at epoch boundaries only: exactly one epoch
	// ran, and it matches the uncancelled run's first epoch bit for bit.
	if len(hist) != 1 {
		t.Fatalf("cancelled TrainV2SCtx ran %d epochs, want 1", len(hist))
	}
	if hist[0] != full[0] {
		t.Fatalf("cancelled prefix %v diverges from uncancelled epoch %v", hist[0], full[0])
	}

	obs := fitObs(m, 12)
	if _, _, err := m.FitBestCtx(ctx, obs, 3, 1, nil); !errors.Is(err, sentinel) {
		t.Fatalf("FitBestCtx err = %v, want the cancel cause", err)
	}
}
