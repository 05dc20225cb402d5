// Chaos suite: every injected failure mode — panics, per-candidate
// context cancellations, cache IO errors, slow ATPG under a wall-clock
// budget, checkpoint write failures — must leave the exploration with a
// usable result (full or partial), never a hang, a crash or a corrupted
// engine. The tier-1 race leg runs this file under -race, so the
// recover/latch paths are exercised with the race detector watching.
package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// chaosConfig is a narrow-width multi-candidate space: four candidates
// (two bus counts x two assign strategies, sharing structures pairwise)
// keep the single-flight memo and the worker pool honest without paying
// for a paper-scale sweep per scenario.
func chaosConfig(t *testing.T) dse.Config {
	t.Helper()
	cfg, err := dse.DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Width = 8
	cfg.Buses = []int{1, 2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = [][]dse.RFSpec{{
		{Regs: 16, In: 2, Out: 2},
		{Regs: 16, In: 1, Out: 2},
	}}
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.Packed}
	cfg.Annotator = nil // rebuild for the narrow width
	return cfg
}

// requireUsable asserts the chaos contract: err is nil or a
// *dse.PartialError, and the result exists with internally consistent
// fronts over whatever evaluated.
func requireUsable(t *testing.T, res *dse.Result, err error) *dse.PartialError {
	t.Helper()
	var pe *dse.PartialError
	if err != nil && !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want nil or *dse.PartialError", err, err)
	}
	if res == nil {
		t.Fatal("chaos run returned no result")
	}
	for _, i := range res.Feasible {
		if res.Candidates[i].Arch == nil {
			t.Fatalf("feasible index %d points at a never-evaluated slot", i)
		}
	}
	if len(res.Front3D) > 0 && res.Selected < 0 {
		t.Fatal("non-empty 3-D front but no selection")
	}
	if res.Selected >= 0 && !res.Candidates[res.Selected].Feasible {
		t.Fatal("selected an infeasible candidate")
	}
	return pe
}

// TestChaosEvalPanics panics a random half of the candidate evaluations
// and checks the sweep survives with the other half evaluated and every
// panic isolated as a typed per-candidate error.
func TestChaosEvalPanics(t *testing.T) {
	cfg := chaosConfig(t)
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModePanic, Prob: 0.5})
	cfg.Inject = inj

	res, err := dse.ExploreContext(context.Background(), cfg)
	pe := requireUsable(t, res, err)
	fires := int(inj.Fires(faultinject.DSEEval))
	if fires == 0 {
		t.Skip("seeded draw fired no panic this run shape; scenario not exercised")
	}
	if pe == nil {
		t.Fatalf("%d injected panics but no PartialError", fires)
	}
	if pe.Panics != fires {
		t.Fatalf("PartialError counts %d panics, injector fired %d", pe.Panics, fires)
	}
	for i, e := range pe.Errs {
		var epe *dse.EvalPanicError
		if !errors.As(e, &epe) {
			t.Fatalf("candidate %d error is %T, want *dse.EvalPanicError", i, e)
		}
		var pv *faultinject.PanicValue
		if pvv, ok := epe.Value.(*faultinject.PanicValue); ok {
			pv = pvv
		}
		if pv == nil || pv.Point != faultinject.DSEEval {
			t.Fatalf("candidate %d recovered value %v, want the injected *PanicValue", i, epe.Value)
		}
	}
	if pe.Evaluated+pe.Panics != pe.Total {
		t.Fatalf("accounting hole: %d evaluated + %d panics != %d total", pe.Evaluated, pe.Panics, pe.Total)
	}
}

// TestChaosATPGPanicUnderMemo panics inside the shared gate-level ATPG
// (under both the annotator's single-flight latch and the dse schedule
// memo) and checks no waiter hangs: the test finishing at all is the
// liveness proof, the typed errors are the visibility proof.
func TestChaosATPGPanicUnderMemo(t *testing.T) {
	cfg := chaosConfig(t)
	inj := faultinject.New(2)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModePanic, Limit: 1})
	cfg.Inject = inj

	res, err := dse.ExploreContext(context.Background(), cfg)
	pe := requireUsable(t, res, err)
	if inj.Fires(faultinject.ATPGPattern) != 1 {
		t.Fatalf("ATPG panic fired %d times, want 1", inj.Fires(faultinject.ATPGPattern))
	}
	if pe == nil || pe.Panics < 1 {
		t.Fatalf("injected ATPG panic not surfaced: %+v", pe)
	}
}

// TestChaosEvalCancellations injects context.Canceled into individual
// evaluations (a caller whose context died mid-call): hard per-candidate
// failures, exit-code-1 territory — but still a usable partial result.
func TestChaosEvalCancellations(t *testing.T) {
	cfg := chaosConfig(t)
	inj := faultinject.New(3)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeCancel, Every: 2})
	cfg.Inject = inj

	res, err := dse.ExploreContext(context.Background(), cfg)
	pe := requireUsable(t, res, err)
	if pe == nil {
		t.Fatal("injected cancellations produced no PartialError")
	}
	if !errors.Is(pe, context.Canceled) {
		t.Fatalf("PartialError cause = %v, want to unwrap to context.Canceled", pe.Cause)
	}
	if pe.Evaluated == 0 {
		t.Fatal("every candidate cancelled; Every=2 should spare half")
	}
}

// TestChaosCacheIOErrors flips the warm-start cache IO into failure and
// checks both directions come back as typed errors with the annotator
// intact — the ttadse -cache path warns and continues cold on exactly
// these.
func TestChaosCacheIOErrors(t *testing.T) {
	// A tiny real cache to attempt loading.
	donor := testcost.NewAnnotator(4, 7)
	comp := tta.NewFU(tta.ALU, "ALU1")
	if _, err := donor.AnnotateContext(context.Background(), &comp); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := donor.Save(&file); err != nil {
		t.Fatal(err)
	}
	// The saved cache holds the entry: a clean load serves it as a hit.
	probe := testcost.NewAnnotator(4, 7)
	probe.Obs = obs.NewRegistry()
	if err := probe.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.AnnotateContext(context.Background(), &comp); err != nil {
		t.Fatal(err)
	}
	if hit, miss := probe.Obs.Counter("testcost.cache.hit").Value(), probe.Obs.Counter("testcost.cache.miss").Value(); hit != 1 || miss != 0 {
		t.Fatalf("saved cache does not hold the ALU entry: %d hits, %d misses", hit, miss)
	}

	inj := faultinject.New(4)
	inj.Arm(faultinject.CacheRead, faultinject.Plan{}) // ModeError on every hit
	a := testcost.NewAnnotator(4, 7)
	a.Inject = inj
	err := a.Load(bytes.NewReader(file.Bytes()))
	var corrupt *testcost.CacheCorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("injected read error came back as %T (%v), want *CacheCorruptError", err, err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("corrupt error does not unwrap to ErrInjected: %v", err)
	}
	// The failed load must leave the annotator usable: the annotation
	// still runs (cold).
	if _, err := a.AnnotateContext(context.Background(), &comp); err != nil {
		t.Fatalf("annotator unusable after failed load: %v", err)
	}

	inj.Disarm(faultinject.CacheRead)
	inj.Arm(faultinject.CacheWrite, faultinject.Plan{})
	var out bytes.Buffer
	if err := a.Save(&out); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected write error came back as %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("failed save still wrote %d bytes", out.Len())
	}
}

// TestChaosSlowATPGDegrades slows every ATPG pattern down against a tight
// wall-clock budget: the run must complete (no hang), with annotations
// degraded to analytical bounds instead of waiting out the slowness.
func TestChaosSlowATPGDegrades(t *testing.T) {
	cfg := chaosConfig(t)
	if err := fillAnnotator(&cfg); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(5)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 2 * time.Millisecond})
	cfg.Inject = inj
	cfg.Annotator.ATPGDeadline = 20 * time.Millisecond

	start := time.Now()
	res, err := dse.ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireUsable(t, res, err)
	degraded := 0
	for _, i := range res.Feasible {
		if res.Candidates[i].Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("slow ATPG under a 20ms budget degraded nothing")
	}
	// Liveness: the budget must actually cut the sleeps short. A full
	// converged run at 2ms per fault would take minutes.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("budgeted run took %v", elapsed)
	}
}

// fillAnnotator materializes cfg.Annotator the way ExploreContext would,
// so the test can set its ATPG deadline beforehand.
func fillAnnotator(cfg *dse.Config) error {
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	return nil
}

// TestChaosCheckpointWriteFailure breaks every checkpoint flush: the
// exploration itself must still complete cleanly — the checkpoint exists
// to protect the run, so losing it is a warning, not a failure. The
// warning arrives on the run's own stream, before its final "done".
func TestChaosCheckpointWriteFailure(t *testing.T) {
	cfg := chaosConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	inj := faultinject.New(6)
	inj.Arm(faultinject.Checkpoint, faultinject.Plan{})
	cfg.Inject = inj
	ck, err := dse.OpenCheckpoint(t.TempDir()+"/chaos.ckpt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	var events []dse.Event
	cfg.EventSink = func(ev dse.Event) { events = append(events, ev) } // calls are serialized

	res, err := dse.ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("checkpoint write failures leaked into the run: %v", err)
	}
	requireUsable(t, res, err)
	if inj.Fires(faultinject.Checkpoint) == 0 {
		t.Fatal("no checkpoint flush attempted")
	}
	if reg.Counter("dse.checkpoint.write_errors").Value() == 0 {
		t.Fatal("flush failures not counted")
	}
	warnings := 0
	for _, ev := range events {
		if ev.Kind == dse.EventWarning && strings.Contains(ev.Msg, "checkpoint flush failed") {
			warnings++
		}
	}
	if warnings == 0 {
		t.Fatal("no flush-failure warning on the event stream")
	}
	if n := len(events); n == 0 || events[n-1].Kind != dse.EventDone {
		t.Fatalf("stream does not end with done: %d events", n)
	}
}

// TestChaosEverythingAtOnce arms every point at once — probabilistic
// panics, cache write failures, checkpoint write failures and slow ATPG —
// across a slightly larger space, the closest thing to a hostile machine.
// The only assertions are the chaos contract: terminates, usable result,
// clean accounting.
func TestChaosEverythingAtOnce(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Buses = []int{1, 2, 3}
	if err := fillAnnotator(&cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Annotator.ATPGDeadline = 50 * time.Millisecond
	inj := faultinject.New(7)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModePanic, Prob: 0.3})
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: time.Millisecond, Every: 8})
	inj.Arm(faultinject.CacheWrite, faultinject.Plan{})
	inj.Arm(faultinject.Checkpoint, faultinject.Plan{Every: 2})
	cfg.Inject = inj
	ck, err := dse.OpenCheckpoint(t.TempDir()+"/all.ckpt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck

	res, err := dse.ExploreContext(context.Background(), cfg)
	pe := requireUsable(t, res, err)
	if fires := int(inj.Fires(faultinject.DSEEval)); fires > 0 {
		if pe == nil || pe.Panics != fires {
			t.Fatalf("injector fired %d panics, PartialError says %+v", fires, pe)
		}
	} else if pe != nil && pe.Panics > 0 {
		t.Fatalf("phantom panics: %+v", pe)
	}
}
