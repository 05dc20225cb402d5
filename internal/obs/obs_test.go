package obs

import (
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter and one per-goroutine
// counter from many goroutines; run under -race this doubles as the
// data-race check for the registry fast paths.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter("shared").Add(2)
				r.Gauge("gauge").Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker*3 {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker*3)
	}
	g := r.Gauge("gauge").Value()
	if g < 0 || g >= workers {
		t.Fatalf("gauge value %v out of range", g)
	}
}

// TestConcurrentSpans starts same-named spans from many goroutines and
// checks they aggregate into a single node with the right count.
func TestConcurrentSpans(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("dse")
	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := root.Child("evaluate")
				inner := sp.Child("sched")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "dse" {
		t.Fatalf("want single root span dse, got %+v", snap.Spans)
	}
	dse := snap.Spans[0]
	if dse.Count != 1 {
		t.Fatalf("dse span count = %d, want 1", dse.Count)
	}
	if len(dse.Children) != 1 || dse.Children[0].Name != "evaluate" {
		t.Fatalf("want one evaluate child, got %+v", dse.Children)
	}
	ev := dse.Children[0]
	if ev.Count != workers*per {
		t.Fatalf("evaluate span count = %d, want %d", ev.Count, workers*per)
	}
	if len(ev.Children) != 1 || ev.Children[0].Count != workers*per {
		t.Fatalf("sched child aggregation wrong: %+v", ev.Children)
	}
}

// TestSpanEndIdempotent checks double-End records exactly once.
func TestSpanEndIdempotent(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("x")
	sp.End()
	sp.End()
	snap := r.Snapshot()
	if snap.Spans[0].Count != 1 {
		t.Fatalf("span recorded %d times, want 1", snap.Spans[0].Count)
	}
}

// TestNilRegistrySafety exercises every handle type on a nil registry.
func TestNilRegistrySafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value %d", v)
	}
	r.Gauge("g").Set(3)
	if v := r.Gauge("g").Value(); v != 0 {
		t.Fatalf("nil gauge value %v", v)
	}
	sp := r.StartSpan("root")
	child := sp.Child("child")
	child.End()
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}
