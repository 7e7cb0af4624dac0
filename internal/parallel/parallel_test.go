package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// Tests named For… were written for the chunked loop that RunCtx absorbed;
// they keep their names so test histories stay comparable, and now check
// the same contract on RunCtx's tasks.

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 97, 1024} {
			hits := make([]int32, n)
			fns := make([]func(), n)
			for i := range fns {
				fns[i] = func() { atomic.AddInt32(&hits[i], 1) }
			}
			if err := RunCtx(context.Background(), workers, fns...); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunCtxSerialRunsInIndexOrder(t *testing.T) {
	// workers = 1 runs every task on the calling goroutine in slice order.
	var order []int
	fns := make([]func(), 20)
	for i := range fns {
		fns[i] = func() { order = append(order, i) }
	}
	if err := RunCtx(context.Background(), 1, fns...); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v, want 0..19", order)
		}
	}
	if len(order) != len(fns) {
		t.Fatalf("ran %d of %d tasks", len(order), len(fns))
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var count atomic.Int64
		fns := make([]func(), 17)
		for i := range fns {
			fns[i] = func() { count.Add(1) }
		}
		if err := RunCtx(context.Background(), workers, fns...); err != nil {
			t.Fatal(err)
		}
		if count.Load() != 17 {
			t.Fatalf("workers=%d: ran %d of 17 tasks", workers, count.Load())
		}
	}
}

func TestRunPreservesIndexedResults(t *testing.T) {
	out := make([]int, 50)
	fns := make([]func(), len(out))
	for i := range fns {
		fns[i] = func() { out[i] = i * i }
	}
	if err := RunCtx(context.Background(), 4, fns...); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	// workers = 0 resolves to the process default: with SetWorkers(1) every
	// task runs on the calling goroutine, one after the other.
	SetWorkers(1)
	var running, peak atomic.Int64
	fns := make([]func(), 8)
	for i := range fns {
		fns[i] = func() {
			if n := running.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
			running.Add(-1)
		}
	}
	if err := RunCtx(context.Background(), 0, fns...); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Fatalf("RunCtx(workers=0) under SetWorkers(1) ran %d tasks at once", peak.Load())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) should reset to GOMAXPROCS, got %d", Workers())
	}
}

func TestRunCtxBoundsConcurrency(t *testing.T) {
	// At most `workers` tasks run at once, the caller included.
	const workers = 3
	var running, peak atomic.Int64
	fns := make([]func(), 64)
	for i := range fns {
		fns[i] = func() {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			running.Add(-1)
		}
	}
	if err := RunCtx(context.Background(), workers, fns...); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d tasks ran at once, want at most %d", p, workers)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// An outer fan-out whose tasks themselves fan out must complete: the
	// pool spawns helpers instead of waiting on fixed capacity.
	ctx := context.Background()
	var total atomic.Int64
	inner := make([]func(), 1000)
	for i := range inner {
		inner[i] = func() { total.Add(1) }
	}
	outer := make([]func(), 8)
	for i := range outer {
		outer[i] = func() {
			if err := RunCtx(ctx, 4, inner...); err != nil {
				t.Error(err)
			}
		}
	}
	if err := RunCtx(ctx, 4, outer...); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8000 {
		t.Fatalf("nested total = %d, want 8000", total.Load())
	}
}
