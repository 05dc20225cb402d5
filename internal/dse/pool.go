package dse

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount sizes a worker pool over n jobs: cfg.Parallelism workers,
// GOMAXPROCS when it is 0, and never more than n.
func workerCount(cfg *Config, n int) int {
	w := cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// forEachIndex calls fn(i) for each i in [0, n) on workers goroutines and
// returns once every call it started has returned. Each worker claims
// the next index itself, with one atomic add, so no goroutine hands
// indices over and a worker never waits for one. A worker checks ctx
// before every claim and stops once it is done: after the context ends,
// a worker starts at most the one call whose check came first, and a
// worker that saw the end (a lone worker, or one whose own call ended
// the context) starts none. Calls in flight run to their end. Indices
// are claimed in ascending order, so one worker visits them in order;
// fn must tolerate any interleaving of the calls on several workers.
func forEachIndex(ctx context.Context, n, workers int, fn func(i int)) {
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
