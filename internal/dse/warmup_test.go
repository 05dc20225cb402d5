package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// warmUpConfig is a two-structure space whose first register-file set
// is infeasible (two registers cannot hold crypt's inputs) and whose
// second is feasible, explored under both assign strategies when
// variants is set.
func warmUpConfig(t *testing.T, infeasibleFirst, variants bool) Config {
	t.Helper()
	cfg := smallConfig(t)
	feasible, infeasible := []RFSpec{{16, 1, 2}}, []RFSpec{{2, 1, 1}}
	cfg.RFSets = [][]RFSpec{feasible, infeasible}
	if infeasibleFirst {
		cfg.RFSets = [][]RFSpec{infeasible, feasible}
	}
	if variants {
		cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.Packed}
	}
	return cfg
}

// TestWarmUpAnnotatesFeasibleKeysOnly: the stage annotates exactly the
// component keys of feasible structures — the keys the candidates'
// EvaluateContext calls read. The infeasible structure's register file
// is never annotated: not counted as a miss, not in the saved cache.
func TestWarmUpAnnotatesFeasibleKeysOnly(t *testing.T) {
	cfg := warmUpConfig(t, false, false)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 || !res.Candidates[0].Feasible || res.Candidates[1].Feasible {
		t.Fatalf("want candidate 0 feasible and candidate 1 infeasible, got %+v", res.Candidates)
	}
	ann := res.Config.Annotator
	keys := map[string]bool{}
	for ci := range res.Candidates[0].Arch.Components {
		k, err := ann.ComponentKey(&res.Candidates[0].Arch.Components[ci])
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if miss := reg.Counter("testcost.cache.miss").Value(); miss != int64(len(keys)) {
		t.Errorf("testcost.cache.miss = %d, want %d (the feasible structure's keys)", miss, len(keys))
	}
	if miss := reg.Counter("dse.sched.memo.miss").Value(); miss != 2 {
		t.Errorf("dse.sched.memo.miss = %d, want 2 (one per structure)", miss)
	}

	// The saved cache serves every feasible key and lacks the
	// infeasible register file.
	var file bytes.Buffer
	if err := ann.Save(&file); err != nil {
		t.Fatal(err)
	}
	probe := testcost.NewAnnotator(cfg.Width, cfg.Seed)
	probe.Obs = obs.NewRegistry()
	if err := probe.Load(&file); err != nil {
		t.Fatal(err)
	}
	for ci := range res.Candidates[0].Arch.Components {
		if _, err := probe.AnnotateContext(context.Background(), &res.Candidates[0].Arch.Components[ci]); err != nil {
			t.Fatal(err)
		}
	}
	if miss := probe.Obs.Counter("testcost.cache.miss").Value(); miss != 0 {
		t.Errorf("saved cache misses %d of the feasible structure's keys", miss)
	}
	infeasibleRF := &res.Candidates[1].Arch.Components[res.Candidates[1].Arch.ComponentsOf(tta.RF)[0]]
	if _, err := probe.AnnotateContext(context.Background(), infeasibleRF); err != nil {
		t.Fatal(err)
	}
	if miss := probe.Obs.Counter("testcost.cache.miss").Value(); miss != 1 {
		t.Errorf("the infeasible structure's register file is in the saved cache")
	}
}

// handoffRun explores warmUpConfig (infeasible structure first, two
// variants of the feasible one) with one injected ATPG panic.
func handoffRun(t *testing.T, parallelism int) (*Result, *PartialError) {
	t.Helper()
	cfg := warmUpConfig(t, true, true)
	cfg.Parallelism = parallelism
	reg := obs.NewRegistry()
	cfg.Obs = reg
	inj := faultinject.New(1)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModePanic, Limit: 1})
	cfg.Inject = inj
	res, err := ExploreContext(context.Background(), cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *PartialError", err, err)
	}
	if res == nil || len(res.Front3D) == 0 || res.Selected < 0 {
		t.Fatalf("no usable result after a warm-up panic: %+v", res)
	}
	if n := inj.Fires(faultinject.ATPGPattern); n != 1 {
		t.Fatalf("ATPG panic fired %d times, want 1", n)
	}
	if got := reg.Counter("dse.eval.panics").Value(); got != 1 {
		t.Fatalf("dse.eval.panics = %d, want 1", got)
	}
	return res, pe
}

// TestWarmUpPanicHandoffSerial: at Parallelism 1 the ATPG panic hits the
// first annotation job (the ALU of the first feasible structure). It
// surfaces as exactly one *EvalPanicError, on the lowest-index candidate
// that uses the ALU — candidate 2, since candidates 0 and 1 are the
// variants of the infeasible structure, which annotates nothing. The
// other variant retries the annotation and evaluates.
func TestWarmUpPanicHandoffSerial(t *testing.T) {
	res, pe := handoffRun(t, 1)
	if pe.Panics != 1 || len(pe.Errs) != 1 {
		t.Fatalf("partial = %+v, want exactly one error, a panic", pe)
	}
	var epe *EvalPanicError
	if !errors.As(pe.Errs[2], &epe) {
		t.Fatalf("candidate 2 error = %v, want *EvalPanicError (errors: %v)", pe.Errs[2], pe.Errs)
	}
	if epe.Arch != res.Candidates[2].Arch.Name {
		t.Errorf("panic reported for %s, want %s", epe.Arch, res.Candidates[2].Arch.Name)
	}
	if pv, ok := epe.Value.(*faultinject.PanicValue); !ok || pv.Point != faultinject.ATPGPattern {
		t.Errorf("recovered value %v, want the injected ATPG panic", epe.Value)
	}
	if !bytes.Contains(epe.Stack, []byte("repro/internal/atpg.")) {
		t.Errorf("stack does not reach the panicking ATPG run:\n%s", epe.Stack)
	}
	for _, i := range []int{0, 1} {
		if c := res.Candidates[i]; c.Arch == nil || c.Feasible {
			t.Errorf("candidate %d did not evaluate as infeasible: %+v", i, c)
		}
	}
	if c := res.Candidates[3]; !c.Feasible || c.TestCost <= 0 {
		t.Errorf("candidate 3 did not evaluate normally: %+v", c)
	}
}

// TestWarmUpPanicHandoffParallel: with several workers the panic may hit
// any annotation job; it is still counted once and the result usable.
func TestWarmUpPanicHandoffParallel(t *testing.T) {
	for _, p := range []int{2, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			_, pe := handoffRun(t, p)
			if pe.Panics != 1 {
				t.Fatalf("partial = %+v, want one panic", pe)
			}
		})
	}
}

// TestWarmUpCancelEvaluatesNoCandidate cancels a run while its warm-up
// stage is inside a (slowed) ATPG run: no candidate is evaluated or
// announced, and the error unwraps to the cancellation.
func TestWarmUpCancelEvaluatesNoCandidate(t *testing.T) {
	cfg := warmUpConfig(t, false, true)
	inj := faultinject.New(1)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 2 * time.Millisecond})
	cfg.Inject = inj
	events := make(chan Event, 64)
	cfg.EventSink = func(ev Event) { events <- ev }
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for inj.Fires(faultinject.ATPGPattern) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res, err := ExploreContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Evaluated != 0 || len(pe.Errs) != 0 {
		t.Fatalf("partial = %+v, want nothing evaluated and no candidate errors", pe)
	}
	for i := range res.Candidates {
		if res.Candidates[i].Arch != nil {
			t.Fatalf("candidate %d was evaluated after the stage was cancelled", i)
		}
	}
	close(events)
	for ev := range events {
		if ev.Kind == EventCandidate {
			t.Fatalf("candidate event after a cancelled warm-up: %+v", ev)
		}
	}
}

// takeNow calls st.take and fails the test if it blocks: every call in
// TestWarmUpTake has a job to hand out.
func takeNow(t *testing.T, st *warmStage) (si int, ann *annJob) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type taken struct {
		si  int
		ann *annJob
		ok  bool
	}
	got := make(chan taken, 1)
	go func() {
		si, ann, ok := st.take(ctx)
		got <- taken{si, ann, ok}
	}()
	select {
	case r := <-got:
		if !r.ok {
			t.Fatal("take reported the stage drained")
		}
		return r.si, r.ann
	case <-time.After(2 * time.Second):
		cancel()
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
		<-got
		t.Fatal("take blocked with a job to hand out")
		return 0, nil
	}
}

// TestWarmUpTake drives the stage's queue directly. Structural jobs go
// to every worker that asks, none of them completed. While structures
// remain to be handed out, a queued annotation waits for the one in
// flight, and the worker gets the next structure instead; once every
// structure is out, the queued annotation goes to the next worker.
func TestWarmUpTake(t *testing.T) {
	st := newWarmStage()
	st.structs = make([]warmStruct, 3)
	for want := 0; want < 2; want++ {
		if si, ann := takeNow(t, st); ann != nil || si != want {
			t.Fatalf("take %d = structure %d, annotation %v; want structure %d", want, si, ann, want)
		}
	}
	if st.running != 2 {
		t.Fatalf("%d structural jobs in flight, want 2", st.running)
	}

	st.anns = []annJob{{key: "alu"}, {key: "rf"}}
	if _, ann := takeNow(t, st); ann == nil || ann.key != "alu" {
		t.Fatalf("take = annotation %v, want alu", ann)
	}
	if si, ann := takeNow(t, st); ann != nil || si != 2 {
		t.Fatalf("take with an annotation in flight = structure %d, annotation %v; want structure 2", si, ann)
	}
	if len(st.anns) != 1 || st.atpg != 1 {
		t.Fatalf("queued %v with %d annotation jobs in flight; want rf queued beside one", st.anns, st.atpg)
	}
	if _, ann := takeNow(t, st); ann == nil || ann.key != "rf" {
		t.Fatalf("take with every structure out = annotation %v, want rf", ann)
	}
}
