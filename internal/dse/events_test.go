package dse

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/report"
	"repro/internal/testcost"
)

// smallSpec keeps event tests fast: 24 candidates (2 bus counts x 6 RF
// sets x 2 assignment strategies).
func smallSpec() jobspec.Spec {
	return jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}, Parallelism: 2}
}

func TestEventStreamLifecycle(t *testing.T) {
	cfg, _, err := FromSpec(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	cfg.EventSink = func(ev Event) { got = append(got, ev) } // calls are serialized
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	nCand, nDone := 0, 0
	var last Event
	for _, ev := range got {
		switch ev.Kind {
		case EventCandidate:
			nCand++
			if ev.Candidate == nil || ev.Candidate.Arch == "" {
				t.Errorf("candidate event without payload: %+v", ev)
			}
			if ev.Total != 24 {
				t.Errorf("candidate event total = %d, want 24", ev.Total)
			}
		case EventDone:
			nDone++
		}
		last = ev
	}
	if nCand != 24 {
		t.Errorf("got %d candidate events, want 24", nCand)
	}
	if nDone != 1 || last.Kind != EventDone {
		t.Errorf("stream must end with exactly one done event (done=%d, last=%s)", nDone, last.Kind)
	}
	if last.N != 24 || last.Total != 24 {
		t.Errorf("done event progress = %d/%d, want 24/24", last.N, last.Total)
	}
	// Sequence numbers are monotone and 1-based.
	for i, ev := range got {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestEventSeqStrictlyIncreasingInDeliveryOrder is the regression test for
// the seq delivery race: with Seq stamped outside the delivery lock, two
// workers finishing together could deliver seq 4 before seq 3. Stamping
// and delivery now share one lock, so a sink sees 1, 2, 3, ... in call
// order — under a burst of concurrent emits, and through a parallel
// exploration whose candidates wait on the same cold ATPG runs and then
// finish together.
func TestEventSeqStrictlyIncreasingInDeliveryOrder(t *testing.T) {
	var mu sync.Mutex
	var seqs []int64
	record := func(ev Event) {
		mu.Lock()
		seqs = append(seqs, ev.Seq)
		mu.Unlock()
	}
	check := func(what string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for i, s := range seqs {
			if s != int64(i+1) {
				t.Fatalf("%s: delivery %d carries seq %d", what, i+1, s)
			}
		}
		seqs = seqs[:0]
	}

	em := newEmitter(record)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				em.emit(Event{Kind: EventCandidate})
			}
		}()
	}
	wg.Wait()
	check("concurrent emits")

	spec := smallSpec()
	spec.Parallelism = 8
	cfg, _, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EventSink = record
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	check("parallel exploration")
}

func TestEventStreamDoneOnConfigError(t *testing.T) {
	cfg, _, err := FromSpec(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = -1 // configuration error: no evaluation runs
	var kinds []EventKind
	cfg.EventSink = func(ev Event) { kinds = append(kinds, ev.Kind) }
	if _, err := ExploreContext(context.Background(), cfg); err == nil {
		t.Fatal("want configuration error")
	}
	if len(kinds) != 1 || kinds[0] != EventDone {
		t.Fatalf("config-error stream = %v, want exactly [done]", kinds)
	}
}

func TestFrontTrackerLiveSnapshot(t *testing.T) {
	cfg, _, err := FromSpec(jobspec.Spec{Buses: []int{1, 2, 3}, ALUs: []int{1, 2}, CMPs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFrontTracker()
	cfg.EventSink = tr.Observe
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap.Evaluated != len(res.Candidates) {
		t.Errorf("tracker evaluated %d, result has %d", snap.Evaluated, len(res.Candidates))
	}
	if snap.Feasible != len(res.Feasible) {
		t.Errorf("tracker feasible %d, result has %d", snap.Feasible, len(res.Feasible))
	}
	// The tracker's final fronts must match the batch computation.
	if len(snap.Front2D) != len(res.Front2D) || len(snap.Front3D) != len(res.Front3D) {
		t.Fatalf("tracker fronts %d/%d, result fronts %d/%d",
			len(snap.Front2D), len(snap.Front3D), len(res.Front2D), len(res.Front3D))
	}
	for k, i := range res.Front3D {
		if snap.Front3D[k].Index != i {
			t.Errorf("front3d[%d] = candidate %d, want %d", k, snap.Front3D[k].Index, i)
		}
		if snap.Front3D[k].TestCost != res.Candidates[i].TestCost {
			t.Errorf("front3d[%d] test cost %d, want %d", k, snap.Front3D[k].TestCost, res.Candidates[i].TestCost)
		}
	}
	// Empty tracker snapshots are valid and empty.
	empty := NewFrontTracker().Snapshot()
	if empty.Evaluated != 0 || len(empty.Front2D) != 0 {
		t.Errorf("empty tracker snapshot: %+v", empty)
	}
}

// TestFrontTrackerDedupesByIndex is the accounting regression test: a
// checkpoint-resumed job can see the same candidate index delivered more
// than once (a restored event replayed around a resume, or a restored
// entry whose candidate later also completes live). The tracker must
// count every index exactly once, so the status endpoint can never
// report evaluated > total.
func TestFrontTrackerDedupesByIndex(t *testing.T) {
	tr := NewFrontTracker()
	upd := func(i int, area, et float64, tc int) *CandidateUpdate {
		return &CandidateUpdate{JSONCandidate: report.JSONCandidate{Index: i, Arch: "a", Feasible: true, Area: area, ExecTime: et, TestCost: tc}}
	}
	// 3 distinct candidates, total 3 — but 6 deliveries: each index
	// arrives once as "restored" and once more as "candidate".
	for _, ev := range []Event{
		{Kind: EventRestored, Total: 3, Candidate: upd(0, 10, 10, 10)},
		{Kind: EventRestored, Total: 3, Candidate: upd(1, 5, 20, 10)},
		{Kind: EventCandidate, Total: 3, Candidate: upd(0, 10, 10, 10)},
		{Kind: EventCandidate, Total: 3, Candidate: upd(2, 20, 5, 10)},
		{Kind: EventCandidate, Total: 3, Candidate: upd(1, 5, 20, 10)},
		{Kind: EventRestored, Total: 3, Candidate: upd(2, 20, 5, 10)},
	} {
		tr.Observe(ev)
	}
	evaluated, total := tr.Progress()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if evaluated > total {
		t.Fatalf("evaluated %d > total %d: resume double-counting", evaluated, total)
	}
	if evaluated != 3 {
		t.Fatalf("evaluated = %d, want 3 (each index once)", evaluated)
	}
	snap := tr.Snapshot()
	if snap.Evaluated != 3 || snap.Feasible != 3 {
		t.Fatalf("snapshot evaluated/feasible = %d/%d, want 3/3", snap.Evaluated, snap.Feasible)
	}
	if len(snap.Front2D) != 3 {
		t.Fatalf("front2d %d members, want 3 (no duplicated rows)", len(snap.Front2D))
	}
}

// TestFrontTrackerMemoryIsFrontBound asserts the unbounded-memory fix:
// after observing many dominated candidates, the tracker retains only
// current front members (plus the one-bit-per-index seen set), not every
// feasible CandidateUpdate — and Snapshot no longer recomputes a batch
// pareto.Front over the evaluated set.
func TestFrontTrackerMemoryIsFrontBound(t *testing.T) {
	tr := NewFrontTracker()
	const n = 50000
	// Every candidate is feasible; coordinates improve with the index, so
	// each new point evicts the previous one and the live front stays at
	// size 1 while n candidates stream through.
	for i := 0; i < n; i++ {
		v := float64(n - i)
		tr.Observe(Event{Kind: EventCandidate, Total: n, Candidate: &CandidateUpdate{JSONCandidate: report.JSONCandidate{
			Index: i, Arch: "a", Feasible: true, Area: v, ExecTime: v, TestCost: int(v),
		}}})
	}
	if got := len(tr.members); got != 1 {
		t.Fatalf("tracker retains %d candidate updates after %d evaluations; want 1 (front size)", got, n)
	}
	if s2, s3 := tr.sf2.Size(), tr.sf3.Size(); s2 != 1 || s3 != 1 {
		t.Fatalf("archive sizes %d/%d, want 1/1", s2, s3)
	}
	snap := tr.Snapshot()
	if snap.Evaluated != n || snap.Feasible != n {
		t.Fatalf("snapshot evaluated/feasible = %d/%d, want %d/%d", snap.Evaluated, snap.Feasible, n, n)
	}
	if len(snap.Front2D) != 1 || snap.Front2D[0].Index != n-1 {
		t.Fatalf("front2d = %+v, want the single best candidate %d", snap.Front2D, n-1)
	}
	// The seen set is a bitset: one bit per index, not a map of updates.
	if words := len(tr.seen); words > n/64+2 {
		t.Fatalf("seen bitset has %d words for %d candidates", words, n)
	}
}

// TestFrontTrackerRejectsNaN: a candidate with a NaN objective (e.g. a
// corrupted degraded annotation) must not poison the live fronts — it is
// refused at the pareto boundary and counted, while accounting proceeds.
func TestFrontTrackerRejectsNaN(t *testing.T) {
	tr := NewFrontTracker()
	nan := math.NaN()
	tr.Observe(Event{Kind: EventCandidate, Total: 2, Candidate: &CandidateUpdate{JSONCandidate: report.JSONCandidate{
		Index: 0, Arch: "bad", Feasible: true, Area: nan, ExecTime: 1, TestCost: 1,
	}}})
	tr.Observe(Event{Kind: EventCandidate, Total: 2, Candidate: &CandidateUpdate{JSONCandidate: report.JSONCandidate{
		Index: 1, Arch: "ok", Feasible: true, Area: 1, ExecTime: 1, TestCost: 1,
	}}})
	snap := tr.Snapshot()
	if snap.Evaluated != 2 || snap.Feasible != 2 {
		t.Fatalf("accounting = %d/%d, want 2/2", snap.Evaluated, snap.Feasible)
	}
	if len(snap.Front2D) != 1 || snap.Front2D[0].Index != 1 {
		t.Fatalf("front2d = %+v, want only the finite candidate", snap.Front2D)
	}
	if tr.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", tr.rejected)
	}
}

// TestEventsLeavesNoGoroutine runs five explorations, each with its own
// event sink, on one live context: a stream that ends with its "done"
// event must leave nothing running or waiting on that context.
func TestEventsLeavesNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(t)
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed) // one ATPG pass for all five
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c := cfg
		var last Event
		c.EventSink = func(ev Event) { last = ev }
		if _, err := ExploreContext(ctx, c); err != nil {
			t.Fatal(err)
		}
		if last.Kind != EventDone {
			t.Fatalf("exploration %d: last event %q, want done", i, last.Kind)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after five streams on a live context, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsClosesOnCancel cancels the context at the first candidate,
// while other workers may still emit: the stream must still end with
// exactly one "done" event, and nothing may follow it.
func TestEventsClosesOnCancel(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Buses = []int{1, 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kinds []EventKind
	cfg.EventSink = func(ev Event) {
		if ev.Kind == EventCandidate {
			cancel()
		}
		kinds = append(kinds, ev.Kind)
	}
	if _, err := ExploreContext(ctx, cfg); err != nil {
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want nil or *PartialError", err)
		}
	}
	if len(kinds) == 0 {
		t.Fatal("the cancelled exploration emitted no event")
	}
	for i, k := range kinds {
		if (k == EventDone) != (i == len(kinds)-1) {
			t.Fatalf("event %d of %d is %q: the stream must end with its only done event", i+1, len(kinds), k)
		}
	}
}
