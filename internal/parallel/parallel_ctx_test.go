package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests named For… were written for the chunked loop that RunCtx absorbed;
// they keep their names so test histories stay comparable, and now check
// the same contract on RunCtx's tasks.

func TestForCtxUncancelledMatchesFor(t *testing.T) {
	// An uncancelled RunCtx at any worker count writes the same slots as the
	// serial run, each task exactly once.
	run := func(workers, n int) ([]int, []int32) {
		out := make([]int, n)
		hits := make([]int32, n)
		fns := make([]func(), n)
		for i := range fns {
			fns[i] = func() {
				atomic.AddInt32(&hits[i], 1)
				out[i] = i*i + 7
			}
		}
		if err := RunCtx(context.Background(), workers, fns...); err != nil {
			t.Fatalf("workers=%d n=%d: %v", workers, n, err)
		}
		return out, hits
	}
	for _, n := range []int{0, 1, 97} {
		want, _ := run(1, n)
		for _, workers := range []int{2, 8} {
			got, hits := run(workers, n)
			for i := range got {
				if hits[i] != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, hits[i])
				}
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: slot %d = %d, serial run wrote %d", workers, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestForCtxAlreadyCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{0, 100} {
		var ran atomic.Bool
		fns := make([]func(), n)
		for i := range fns {
			fns[i] = func() { ran.Store(true) }
		}
		err := RunCtx(ctx, 0, fns...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if ran.Load() {
			t.Fatalf("n=%d: a task ran under an already-cancelled context", n)
		}
	}
}

func TestForCtxReturnsCause(t *testing.T) {
	sentinel := errors.New("stop: budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)
	if err := RunCtx(ctx, 0, func() {}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancel cause", err)
	}
}

func TestForCtxCancelStopsAtChunkBoundary(t *testing.T) {
	// Cancel from inside task k: the in-flight task always completes and no
	// task starts after every worker has observed the cancellation. With
	// workers=1 the very next claim sees the cancelled context, so exactly
	// k+1 tasks run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	fns := make([]func(), 10)
	for i := range fns {
		fns[i] = func() {
			if ran.Add(1) == 3 {
				cancel()
			}
		}
	}
	err := RunCtx(ctx, 1, fns...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d tasks after cancel in task 3, want exactly 3", got)
	}
}

func TestForCtxCancelledCompletesInFlightChunks(t *testing.T) {
	// Parallel workers: after cancellation every task that started still
	// runs to completion, and no task runs twice.
	n := 100
	started := make([]int32, n)
	finished := make([]int32, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var claims atomic.Int64
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			atomic.AddInt32(&started[i], 1)
			if claims.Add(1) == 5 {
				cancel()
			}
			runtime.Gosched()
			atomic.AddInt32(&finished[i], 1)
		}
	}
	err := RunCtx(ctx, 4, fns...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range fns {
		if started[i] > 1 {
			t.Fatalf("task %d ran %d times after cancellation", i, started[i])
		}
		if started[i] != finished[i] {
			t.Fatalf("task %d started but was not finished when RunCtx returned", i)
		}
	}
}

func TestForCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		fns := make([]func(), 1000)
		for j := range fns {
			fns[j] = func() {
				if j == 0 {
					cancel()
				}
			}
		}
		// nil is possible if every task was claimed before any worker saw
		// the cancellation; anything else must be the cancellation itself.
		if err := RunCtx(ctx, 8, fns...); err != nil && !errors.Is(err, context.Canceled) {
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
			t.Fatalf("goroutines: %d before, %d after cancelled RunCtx calls", before, after)
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
