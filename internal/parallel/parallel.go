// Package parallel provides the deterministic worker pool behind the
// repository's one level of concurrency: the test-time fit restarts and the
// experiment harness's independent cells. Everything below that level — the
// simulator, the tape, the tensor kernels — runs serially on the goroutine
// that called it.
//
// Determinism is the design constraint, not an afterthought. RunCtx hands
// each task to exactly one goroutine, and a task that carries its own random
// state and writes only its own output slot therefore produces
// bitwise-identical results at every worker count, including the exact
// serial setting Workers = 1.
//
// The pool is a bounded-width spawning pool rather than a set of persistent
// goroutines: each call runs on the calling goroutine plus at most workers-1
// short-lived helpers. The caller always participates, so nested use can
// never deadlock on pool capacity. Cancellation is observed only between
// tasks, in-flight tasks always finish, and all helpers are joined before
// returning, so a cancelled call leaves no goroutines behind.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count used when a caller passes
// workers = 0. It starts at runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers returns the process-wide default worker count.
func Workers() int { return int(defaultWorkers.Load()) }

// SetWorkers sets the process-wide default worker count. n <= 0 resets it
// to runtime.GOMAXPROCS(0); n = 1 forces every default-sized call serial.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int64(n))
}

// RunCtx executes the given functions, at most `workers` concurrently (0 =
// process default, 1 = serial in slice order on the calling goroutine). The
// caller runs tasks too, alongside at most workers-1 helpers, and tasks are
// claimed in index order. Each function must carry its own random state
// (derived from the root seed by index) so results do not depend on the
// worker count.
//
// ctx is checked before each claim: no new function starts once it is
// cancelled, functions that have started run to completion, and every
// helper is joined before the call returns. The result is nil when every
// function ran, or the context's cancellation cause once cancellation was
// observed; which functions ran before a cancelled call stopped is
// scheduling-dependent, so callers must treat the output as abandoned.
func RunCtx(ctx context.Context, workers int, fns ...func()) error {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > len(fns) {
		workers = len(fns)
	}
	var cancelled atomic.Bool
	var next atomic.Int64
	work := func() {
		for {
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(fns) {
				return
			}
			fns[i]()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if cancelled.Load() {
		return context.Cause(ctx)
	}
	return nil
}
