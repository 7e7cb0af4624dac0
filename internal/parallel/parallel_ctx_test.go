package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxUncancelledMatchesFor(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 97} {
			hits := make([]int32, n)
			if err := ForWorkersCtx(context.Background(), workers, n, 7, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForCtxAlreadyCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForWorkersCtx(ctx, 0, 100, 1, func(lo, hi int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("body ran under an already-cancelled context")
	}
}

func TestForCtxReturnsCause(t *testing.T) {
	sentinel := errors.New("stop: budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)
	if err := ForWorkersCtx(ctx, 0, 10, 1, func(lo, hi int) {}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancel cause", err)
	}
}

func TestForCtxCancelStopsAtChunkBoundary(t *testing.T) {
	// Cancel from inside chunk k: the in-flight chunk always completes (the
	// body is never torn mid-chunk) and no chunk starts after every worker
	// has observed the cancellation. With workers=1 the very next chunk
	// claim sees the cancelled context, so exactly k+1 chunks run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chunks atomic.Int64
	err := ForWorkersCtx(ctx, 1, 100, 10, func(lo, hi int) {
		if chunks.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := chunks.Load(); got != 3 {
		t.Fatalf("ran %d chunks after cancel at chunk 3, want exactly 3", got)
	}
}

func TestForCtxCancelledCompletesInFlightChunks(t *testing.T) {
	// Parallel workers: after cancellation every chunk that started still
	// runs to completion, and the visited set stays exactly-once — a
	// cancelled loop never double-runs or tears a chunk.
	n := 1000
	hits := make([]int32, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	err := ForWorkersCtx(ctx, 4, n, 10, func(lo, hi int) {
		if started.Add(1) == 5 {
			cancel()
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, h := range hits {
		if h > 1 {
			t.Fatalf("index %d visited %d times after cancellation", i, h)
		}
	}
}

func TestForCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForWorkersCtx(ctx, 8, 1000, 1, func(lo, hi int) {
			if lo == 0 {
				cancel()
			}
		})
		// nil is possible if every chunk was claimed before any worker saw
		// the cancellation; anything else must be the cancellation itself.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		cancel()
	}
	// The pool joins its spawned workers before returning, so the count must
	// settle back to the baseline (allow scheduler slack with retries).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled ForWorkersCtx runs", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunCtxSkipsUnstartedAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	fns := make([]func(), 50)
	for i := range fns {
		i := i
		fns[i] = func() {
			if i == 0 {
				cancel()
			}
			ran.Add(1)
		}
	}
	err := RunCtx(ctx, 1, fns...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("serial RunCtx ran %d fns after cancel in the first, want 1", got)
	}
}

func TestRunCtxUncancelledRunsAll(t *testing.T) {
	var count atomic.Int64
	fns := make([]func(), 17)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	if err := RunCtx(context.Background(), 4, fns...); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 17 {
		t.Fatalf("ran %d of 17 tasks", count.Load())
	}
}
