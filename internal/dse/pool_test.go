package dse

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count falls back
// to before within a few seconds: a worker's deferred Done runs just
// before its goroutine exits.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForEachIndexVisitsEachOnce: every index in [0, n) is visited
// exactly once at every worker count, more workers than indices
// included, every call has returned when forEachIndex does, and no
// worker outlives it.
func TestForEachIndexVisitsEachOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 8, n + 3} {
			before := runtime.NumGoroutine()
			visits := make([]atomic.Int32, n)
			var running, returned atomic.Int64
			forEachIndex(context.Background(), n, workers, func(i int) {
				running.Add(1)
				if i%16 == 0 {
					time.Sleep(50 * time.Microsecond) // a slow call must still be waited for
				}
				visits[i].Add(1)
				running.Add(-1)
				returned.Add(1)
			})
			if r := running.Load(); r != 0 {
				t.Fatalf("n %d, %d workers: returned with %d calls running", n, workers, r)
			}
			if got := returned.Load(); got != int64(n) {
				t.Fatalf("n %d, %d workers: %d calls returned, want %d", n, workers, got, n)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n %d, %d workers: index %d visited %d times", n, workers, i, v)
				}
			}
			waitGoroutines(t, before)
		}
	}
}

// TestForEachIndexStopsClaimingOnCancel: a done context starts no call;
// a context cancelled inside the k-th call stops the claims, so one
// worker makes exactly k calls, and after the cancellation each other
// worker starts at most the one call it claimed before it could see it.
func TestForEachIndexStopsClaimingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachIndex(ctx, 100, 4, func(i int) { t.Errorf("call %d started under a done context", i) })

	const n, k = 1000, 10
	for _, workers := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var started, afterCancel atomic.Int64
		var cancelled atomic.Bool
		forEachIndex(ctx, n, workers, func(i int) {
			if cancelled.Load() {
				afterCancel.Add(1)
			}
			if started.Add(1) == k {
				cancel()
				cancelled.Store(true)
			}
		})
		cancel()
		if workers == 1 && started.Load() != k {
			t.Errorf("1 worker: %d calls, want %d", started.Load(), k)
		}
		if got := afterCancel.Load(); got > int64(workers-1) {
			t.Errorf("%d workers: %d calls started after the cancellation, want at most %d", workers, got, workers-1)
		}
		waitGoroutines(t, before)
	}
}
