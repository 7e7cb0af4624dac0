package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ovs/internal/autodiff"
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
// with a multi-restart fit on both the bounded and concurrent schedules: a
// fit cancelled at any restart or epoch is refitted whole from its
// checkpointed entry state on resume.
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

// TestFitBestCancelKeepsEntryState cancels FitBestCtx at every context poll
// an uncancelled fit makes, single-start and with three restarts, and
// requires the cancellation cause back and the generator untouched: a
// cancelled fit must not leave a partly fitted TOD behind. On one worker,
// where the restarts and their scoring run in order, it also requires that
// no generator runs once ctx is cancelled: a restart whose fit saw the
// cancellation is never scored.
func TestFitBestCancelKeepsEntryState(t *testing.T) {
	const epochs = 5
	topo := testTopo(t, 4, 1)
	for _, c := range []struct{ restarts, workers int }{{1, 1}, {3, 3}, {3, 1}} {
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 31
		cfg.Workers = c.workers

		counter := cancelOnPollCause(math.MaxInt, nil).(*pollCancelCtx)
		ref := NewModel(topo, cfg)
		if _, _, err := ref.FitBestCtx(counter, fitObs(ref, 12), epochs, c.restarts, nil); err != nil {
			t.Fatal(err)
		}
		if counter.polls < epochs {
			t.Fatalf("%+v: an uncancelled fit polled ctx %d times, want at least one per epoch", c, counter.polls)
		}

		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		entry := m.GenerateTOD()
		gen := m.TODGen
		for n := 0; n < counter.polls; n++ {
			ctx := cancelOnPollCause(n, errCancelCause)
			late := new(atomic.Int64)
			m.TODGen = &lateGen{TODGenModule: gen, done: ctx.Done(), late: late}
			_, _, err := m.FitBestCtx(ctx, obs, epochs, c.restarts, nil)
			m.TODGen = gen
			if !errors.Is(err, errCancelCause) {
				t.Fatalf("%+v, cancelled after %d polls: err = %v, want the cancel cause", c, n, err)
			}
			if c.workers == 1 && late.Load() != 0 {
				t.Fatalf("%+v, cancelled after %d polls: %d generator runs after the cancellation", c, n, late.Load())
			}
			for i, v := range m.GenerateTOD().Data {
				if math.Float64bits(v) != math.Float64bits(entry.Data[i]) {
					t.Fatalf("%+v, cancelled after %d polls: TOD element %d is %v, entry state %v", c, n, i, v, entry.Data[i])
				}
			}
		}
	}
}

// lateGen wraps a generator, shares its state, and counts the Generate calls
// made after done is closed, across all its clones.
type lateGen struct {
	TODGenModule
	done <-chan struct{}
	late *atomic.Int64
}

func (l *lateGen) Generate(g *autodiff.Graph) *autodiff.Node {
	select {
	case <-l.done:
		l.late.Add(1)
	default:
	}
	return l.TODGenModule.Generate(g)
}

func (l *lateGen) CloneTODGen() TODGenModule {
	return &lateGen{TODGenModule: l.TODGenModule.CloneTODGen(), done: l.done, late: l.late}
}
