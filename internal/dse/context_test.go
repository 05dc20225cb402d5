package dse

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// smallConfig is a one-candidate space at a narrow width, cheap enough
// for instrumentation tests.
func smallConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Width = 8
	cfg.Buses = []int{2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = [][]RFSpec{{{16, 2, 2}, {16, 1, 2}}}
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
	cfg.Annotator = nil // rebuild for the narrow width
	return cfg
}

func TestExploreContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig(t)
	res, err := ExploreContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PartialError", err)
	}
	if pe.Evaluated != 0 || pe.Total != 1 {
		t.Fatalf("partial = %d/%d, want 0/1", pe.Evaluated, pe.Total)
	}
	if res == nil {
		t.Fatal("cancelled exploration returned no result at all")
	}
	if len(res.Feasible) != 0 || res.Selected != -1 {
		t.Fatalf("never-started exploration claims evaluations: %+v", res)
	}
}

// TestExploreContextCancelMidRun cancels a cold paper-scale exploration
// at its first candidate event and checks it aborts promptly, returns a
// *PartialError unwrapping to the context error alongside the salvaged
// partial result, and leaks no goroutine.
func TestExploreContextCancelMidRun(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at the first finished candidate: by then the warm-up has
	// scheduled and annotated, and the workers have claimed a few of the
	// 288 candidates at most.
	cfg.EventSink = func(ev Event) {
		if ev.Kind == EventCandidate {
			cancel()
		}
	}
	start := time.Now()
	res, err := ExploreContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PartialError", err)
	}
	if res == nil {
		t.Fatal("cancelled exploration dropped the partial result")
	}
	if pe.Evaluated >= pe.Total {
		t.Fatalf("mid-run cancellation evaluated %d/%d candidates", pe.Evaluated, pe.Total)
	}
	// Whatever did finish must be internally consistent: fronts only over
	// evaluated candidates, selection only when a front exists.
	for _, i := range res.Feasible {
		if res.Candidates[i].Arch == nil {
			t.Fatalf("feasible index %d points at a never-evaluated slot", i)
		}
	}
	if len(res.Front3D) > 0 && res.Selected < 0 {
		t.Fatal("non-empty front but no selection")
	}
	// A bound against a hang only: the whole cold sweep takes well under
	// a second, so Evaluated < Total above is what shows the
	// cancellation reached the workers.
	if elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// All worker goroutines must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExploreRejectsNegativeParallelism(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Parallelism = -1
	if _, err := ExploreContext(context.Background(), cfg); err == nil {
		t.Fatal("ExploreContext accepted negative Parallelism")
	}
}

// TestExploreContextMetrics runs an instrumented one-candidate
// exploration (with selected-candidate simulation) and checks the
// registry carries the per-stage spans and the engine counters the
// observability layer promises.
func TestExploreContextMetrics(t *testing.T) {
	cfg := smallConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.VerifySelected = true
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("selected candidate was not sim-verified")
	}
	snap := reg.Snapshot()

	if got := snap.Counters["dse.candidates.total"]; got != 1 {
		t.Fatalf("dse.candidates.total = %d, want 1", got)
	}
	if snap.Counters["dse.candidates.feasible"]+snap.Counters["dse.candidates.infeasible"] != 1 {
		t.Fatalf("feasible+infeasible != total: %+v", snap.Counters)
	}
	for _, c := range []string{"sched.cycles", "sched.moves", "atpg.podem.decisions",
		"atpg.patterns.final", "testcost.cache.miss", "sim.cycles"} {
		if snap.Counters[c] <= 0 {
			t.Fatalf("counter %s = %d, want > 0 (have %+v)", c, snap.Counters[c], snap.Counters)
		}
	}
	// AreaDelay and Evaluate hit the same annotations: there must be
	// cache hits, and the computed rate gauge must agree.
	hit, miss := snap.Counters["testcost.cache.hit"], snap.Counters["testcost.cache.miss"]
	if hit == 0 {
		t.Fatal("annotator cache recorded no hit")
	}
	wantRate := float64(hit) / float64(hit+miss)
	if got := snap.Gauges["testcost.cache.hit_rate"]; got != wantRate {
		t.Fatalf("hit_rate gauge = %v, want %v", got, wantRate)
	}

	// Span tree: dse > {enumerate, evaluate > {sched, atpg}, pareto, sim}.
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "dse" {
		t.Fatalf("root span missing: %+v", snap.Spans)
	}
	stages := map[string]obs.SpanStats{}
	for _, c := range snap.Spans[0].Children {
		stages[c.Name] = c
	}
	for _, name := range []string{"enumerate", "evaluate", "pareto", "sim"} {
		if stages[name].Count == 0 {
			t.Fatalf("stage span %q missing (have %+v)", name, snap.Spans[0].Children)
		}
	}
	inner := map[string]bool{}
	for _, c := range stages["evaluate"].Children {
		inner[c.Name] = c.Count > 0
	}
	if !inner["sched"] || !inner["atpg"] {
		t.Fatalf("evaluate span missing sched/atpg children: %+v", stages["evaluate"].Children)
	}
}

// TestExploreContextProgressEvents checks one event per candidate is
// emitted with a running N/Total.
func TestExploreContextProgressEvents(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Buses = []int{1, 2} // two candidates
	var events []Event
	cfg.EventSink = func(ev Event) { events = append(events, ev) } // calls are serialized
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var candidates int
	for _, ev := range events {
		if ev.Kind == EventCandidate {
			candidates++
			if ev.Total != 2 || ev.N < 1 || ev.N > 2 {
				t.Fatalf("bad progress event %+v", ev)
			}
		}
	}
	if candidates != 2 {
		t.Fatalf("got %d candidate events, want 2", candidates)
	}
}

// TestNoCandidateStartsAfterCancel cancels a serial sweep from its event
// sink at the k-th candidate event, on an annotator warm enough that a
// candidate needs no ATPG and may finish from memo and cache hits alone.
// The worker sees the cancellation before it claims another candidate,
// so every trial evaluates exactly k candidates and leaves no slot with
// an error. A worker handed candidates through a channel could still get
// one after the cancellation, which either ended in a context error or
// evaluated to completion.
func TestNoCandidateStartsAfterCancel(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buses = []int{1, 2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.Parallelism = 1
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err) // warms the annotator
	}
	const k, trials = 5, 100
	for trial := 0; trial < trials; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		cfg.EventSink = func(ev Event) { // calls are serialized
			if ev.Kind == EventCandidate {
				if seen++; seen == k {
					cancel()
				}
			}
		}
		_, err := ExploreContext(ctx, cfg)
		cancel()
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want a *PartialError for the cancellation", trial, err)
		}
		if pe.Evaluated != k || len(pe.Errs) != 0 {
			t.Fatalf("trial %d: %d evaluated and %d error slots (%v), want %d and none", trial, pe.Evaluated, len(pe.Errs), pe.Errs, k)
		}
	}
}
