package dse

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/tta"
)

// twoCandConfig is a two-candidate space (bus counts 1 and 2) cheap
// enough for resilience tests that need more than one slot.
func twoCandConfig(t *testing.T) Config {
	cfg := smallConfig(t)
	cfg.Buses = []int{1, 2}
	return cfg
}

// candidatesEqual compares two evaluations field by field, identifying
// architectures by name (the pointers necessarily differ across runs).
func candidatesEqual(a, b *Candidate) bool {
	an, bn := "", ""
	if a.Arch != nil {
		an = a.Arch.Name
	}
	if b.Arch != nil {
		bn = b.Arch.Name
	}
	return an == bn &&
		a.Area == b.Area && a.Cycles == b.Cycles && a.Clock == b.Clock &&
		a.ExecTime == b.ExecTime && a.TestCost == b.TestCost &&
		a.FullScan == b.FullScan && a.Feasible == b.Feasible &&
		a.Reason == b.Reason && a.Spills == b.Spills &&
		a.Degraded == b.Degraded
}

func requireSameResult(t *testing.T, ref, got *Result) {
	t.Helper()
	if len(ref.Candidates) != len(got.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(ref.Candidates), len(got.Candidates))
	}
	for i := range ref.Candidates {
		if !candidatesEqual(&ref.Candidates[i], &got.Candidates[i]) {
			t.Fatalf("candidate %d differs:\nref %+v\ngot %+v", i, ref.Candidates[i], got.Candidates[i])
		}
	}
	for name, pair := range map[string][2][]int{
		"Feasible": {ref.Feasible, got.Feasible},
		"Front2D":  {ref.Front2D, got.Front2D},
		"Front3D":  {ref.Front3D, got.Front3D},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s lengths differ: %v vs %v", name, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s differs: %v vs %v", name, a, b)
			}
		}
	}
	if ref.Selected != got.Selected {
		t.Fatalf("Selected differs: %d vs %d", ref.Selected, got.Selected)
	}
}

// TestPanicIsolation injects a panic into one candidate's evaluation and
// checks the sweep survives: the other candidate evaluates, the panic is
// isolated to its slot as *EvalPanicError with a stack, the counter and
// event fire, and the partial result still carries fronts and a pick.
func TestPanicIsolation(t *testing.T) {
	cfg := twoCandConfig(t)
	cfg.Parallelism = 1 // deterministic injection order: candidate 0 panics
	reg := obs.NewRegistry()
	cfg.Obs = reg
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModePanic, Limit: 1})
	cfg.Inject = inj

	res, err := ExploreContext(context.Background(), cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *PartialError", err, err)
	}
	if pe.Panics != 1 || pe.Evaluated != 1 || pe.Total != 2 {
		t.Fatalf("partial = %+v, want 1 panic, 1/2 evaluated", pe)
	}
	var epe *EvalPanicError
	if !errors.As(pe.Errs[0], &epe) {
		t.Fatalf("Errs[0] = %T, want *EvalPanicError", pe.Errs[0])
	}
	if len(epe.Stack) == 0 {
		t.Fatal("recovered panic carries no stack")
	}
	if res == nil {
		t.Fatal("panic dropped the whole result")
	}
	if len(res.Front3D) == 0 || res.Selected < 0 {
		t.Fatalf("surviving candidate produced no front/selection: %+v", res)
	}
	if res.Selected == 0 {
		t.Fatal("the panicked candidate won the selection")
	}
	if got := reg.Counter("dse.eval.panics").Value(); got != 1 {
		t.Fatalf("dse.eval.panics = %d, want 1", got)
	}
}

// TestPanicInStructuralEvalReleasesMemoWaiters drives the schedule memo
// with a structural evaluator that panics while a variant of the same
// structure waits on the latch: the leader's panic must propagate and
// the waiter must get an error, not hang — the regression this guards is
// a leader dying without settling the single-flight latch.
func TestPanicInStructuralEvalReleasesMemoWaiters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := &Config{Obs: reg}
	rfs := []RFSpec{{16, 1, 2}}
	leader := buildArch(8, 2, 1, 1, rfs, tta.SpreadFirst, 0, 0)
	waiter := buildArch(8, 2, 1, 1, rfs, tta.Packed, 1, 0)

	memo := newSchedMemo(nil) // eval is a stand-in
	release := make(chan struct{})
	memo.eval = func(context.Context, *Config, *tta.Architecture, *obs.Span) (structEval, error) {
		<-release
		panic("structural evaluation blew up")
	}
	waitCounter := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for reg.Counter(name).Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s never counted", name)
			}
			time.Sleep(time.Millisecond)
		}
	}

	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		memo.get(context.Background(), cfg, leader, nil)
	}()
	waitCounter("dse.sched.memo.miss") // the leader owns the entry
	waiterErr := make(chan error, 1)
	go func() {
		_, err := memo.get(context.Background(), cfg, waiter, nil)
		waiterErr <- err
	}()
	waitCounter("dse.sched.memo.hit") // the waiter latched on
	close(release)

	if r := <-leaderPanic; r == nil {
		t.Fatal("the leader's panic did not propagate")
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter got %v, want the latch's panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hangs on a latch its panicking leader never settled")
	}
}

// TestCheckpointResumeIdentical runs the same exploration three ways —
// no checkpoint, recording a checkpoint, and restoring everything from
// that checkpoint — and requires identical results, the byte-identical
// resume contract at the Result level (ttadse renders Results
// deterministically, so equal Results mean equal bytes).
func TestCheckpointResumeIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dse.ckpt")

	ref, err := ExploreContext(context.Background(), twoCandConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	cfg := twoCandConfig(t)
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	recorded, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, recorded)
	if ck.Len() != 2 {
		t.Fatalf("checkpoint holds %d entries, want 2", ck.Len())
	}

	cfg2 := twoCandConfig(t)
	reg := obs.NewRegistry()
	cfg2.Obs = reg
	ck2, err := OpenCheckpoint(path, cfg2)
	if err != nil {
		t.Fatalf("reopening a just-written checkpoint: %v", err)
	}
	if ck2.Len() != 2 {
		t.Fatalf("reopened checkpoint holds %d entries, want 2", ck2.Len())
	}
	cfg2.Checkpoint = ck2
	resumed, err := ExploreContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, resumed)
	if got := reg.Counter("dse.checkpoint.restored").Value(); got != 2 {
		t.Fatalf("dse.checkpoint.restored = %d, want 2", got)
	}
}

// TestCheckpointResumeAfterInterrupt interrupts a checkpointed run after
// the first completed candidate, then resumes from the file: the resumed
// run must restore at least one evaluation and finish with the same
// result as an uninterrupted run.
func TestCheckpointResumeAfterInterrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dse.ckpt")
	ref, err := ExploreContext(context.Background(), twoCandConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	cfg := twoCandConfig(t)
	cfg.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.EventSink = func(ev Event) {
		if ev.Kind == EventCandidate {
			cancel() // "kill" after the first completion
		}
	}
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	_, err = ExploreContext(ctx, cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("interrupted run: err = %T (%v), want *PartialError", err, err)
	}
	if pe.Evaluated == 0 {
		t.Skip("cancellation beat every evaluation; nothing to resume")
	}

	cfg2 := twoCandConfig(t)
	reg2 := obs.NewRegistry()
	cfg2.Obs = reg2
	ck2, err := OpenCheckpoint(path, cfg2)
	if err != nil {
		t.Fatalf("reopening the interrupted checkpoint: %v", err)
	}
	if ck2.Len() == 0 {
		t.Fatal("interrupted run flushed no entries")
	}
	cfg2.Checkpoint = ck2
	resumed, err := ExploreContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, resumed)
	if reg2.Counter("dse.checkpoint.restored").Value() == 0 {
		t.Fatal("resume restored nothing")
	}
}

// TestCheckpointRejectsForeignFile pins the header discipline: a
// checkpoint recorded at one width must not feed a run at another, and a
// garbage file must come back as a corrupt error — both yielding a
// usable fresh checkpoint.
func TestCheckpointRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dse.ckpt")
	cfg := twoCandConfig(t)
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	other := twoCandConfig(t)
	other.Width = 16
	other.Annotator = nil
	ck2, err := OpenCheckpoint(path, other)
	var mm *CheckpointMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("err = %T (%v), want *CheckpointMismatchError", err, err)
	}
	if ck2 == nil || ck2.Len() != 0 {
		t.Fatalf("mismatched open did not return a fresh checkpoint: %v", ck2)
	}

	ck3, err := OpenCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"), twoCandConfig(t))
	if err != nil || ck3 == nil {
		t.Fatalf("missing file: ck=%v err=%v, want fresh+nil", ck3, err)
	}
}

// degradedFrontResult builds a synthetic Result whose 3-D front holds
// the given candidates (no exploration involved).
func degradedFrontResult(cands []Candidate) *Result {
	r := &Result{Candidates: cands, Selected: -1}
	for i := range cands {
		r.Front3D = append(r.Front3D, i)
	}
	return r
}

// TestDegradedNeverBeatsEqualMeasured is the property behind the
// "exclude" policy: over randomized fronts, whenever a non-degraded
// candidate exists, the selection never lands on a degraded one — and in
// particular a degraded point with coordinates equal to a measured point
// can never displace it. Seeded generator: the test is deterministic.
func TestDegradedNeverBeatsEqualMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		cands := make([]Candidate, n)
		anyMeasured := false
		for i := range cands {
			cands[i] = Candidate{
				Feasible: true,
				Area:     100 + 900*rng.Float64(),
				ExecTime: 10 + 90*rng.Float64(),
				TestCost: 1000 + rng.Intn(9000),
				Degraded: rng.Intn(2) == 0,
			}
			if !cands[i].Degraded {
				anyMeasured = true
			}
		}
		// Force the equal-coordinates case: a degraded twin of candidate 0.
		if !cands[0].Degraded {
			twin := cands[0]
			twin.Degraded = true
			cands = append(cands, twin)
		}
		r := degradedFrontResult(cands)
		if err := r.Reselect(SelectionSpec{DegradedPolicy: "exclude"}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.Selected < 0 {
			t.Fatalf("trial %d: no selection", trial)
		}
		if anyMeasured && r.Candidates[r.Selected].Degraded {
			t.Fatalf("trial %d: degraded candidate %d won over %d-point front with measured members",
				trial, r.Selected, len(cands))
		}
	}
}

// TestDegradedPolicyFallbackAndPenalty covers the remaining policy arms:
// an all-degraded front still yields a pick under "exclude", and under
// "penalize" a degraded point loses to an otherwise-equal measured one.
func TestDegradedPolicyFallbackAndPenalty(t *testing.T) {
	all := degradedFrontResult([]Candidate{
		{Feasible: true, Area: 100, ExecTime: 10, TestCost: 1000, Degraded: true},
		{Feasible: true, Area: 200, ExecTime: 5, TestCost: 2000, Degraded: true},
	})
	if err := all.Reselect(SelectionSpec{DegradedPolicy: "exclude"}); err != nil {
		t.Fatalf("all-degraded exclude: %v", err)
	}
	if all.Selected < 0 {
		t.Fatal("all-degraded front under exclude yielded no selection")
	}

	pen := degradedFrontResult([]Candidate{
		{Feasible: true, Area: 100, ExecTime: 10, TestCost: 1000, Degraded: true},
		{Feasible: true, Area: 100, ExecTime: 10, TestCost: 1000},
	})
	if err := pen.Reselect(SelectionSpec{DegradedPolicy: "penalize"}); err != nil {
		t.Fatal(err)
	}
	if pen.Selected != 1 {
		t.Fatalf("penalize selected %d, want the measured twin (1)", pen.Selected)
	}

	if err := pen.Reselect(SelectionSpec{DegradedPolicy: "halfheartedly"}); err == nil {
		t.Fatal("unknown degraded policy accepted")
	}
	if err := pen.Reselect(SelectionSpec{DegradedPolicy: "penalize", DegradedPenalty: 0.5}); err == nil {
		t.Fatal("sub-1 degraded penalty accepted")
	}
}

// TestDegradedFlagReachesCandidate runs a real exploration under an
// exhausted ATPG budget and checks degradation propagates from the
// annotator into the dse.Candidate rows.
func TestDegradedFlagReachesCandidate(t *testing.T) {
	cfg := smallConfig(t)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	cfg.Annotator.ATPGDeadline = 1 // nanosecond: every ATPG run degrades
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range res.Feasible {
		if res.Candidates[i].Degraded {
			found = true
		}
	}
	if !found {
		t.Fatal("no candidate carries the Degraded flag under a 1ns ATPG budget")
	}
}
