package atpg

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gatelib"
)

// TestDeadlineAlreadyExpiredDegradesGracefully runs with a budget that
// expires before any work happens: no error, an empty-but-valid result,
// DeadlineExceeded set and every fault accounted for as aborted.
func TestDeadlineAlreadyExpiredDegradesGracefully(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), alu.Comb, Config{Seed: 7, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatalf("budget exhaustion surfaced as an error: %v", err)
	}
	if !res.DeadlineExceeded {
		t.Fatal("DeadlineExceeded not set")
	}
	if got := res.Detected + res.Redundant + res.Aborted; got != res.TotalFaults {
		t.Fatalf("fault accounting: detected %d + redundant %d + aborted %d != total %d",
			res.Detected, res.Redundant, res.Aborted, res.TotalFaults)
	}
}

// TestDeadlineGenerousIsByteIdentical checks a budget large enough to
// finish changes nothing: the run is byte-identical to an unbudgeted one.
func TestDeadlineGenerousIsByteIdentical(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, alu.Comb, Config{Seed: 7})
	bud := mustRun(t, alu.Comb, Config{Seed: 7, Deadline: time.Hour})
	if bud.DeadlineExceeded {
		t.Fatal("an hour-long budget expired on a sub-second run")
	}
	if !reflect.DeepEqual(ref.Patterns, bud.Patterns) {
		t.Fatal("budgeted run diverged from the unbudgeted reference")
	}
	if ref.Detected != bud.Detected || ref.Redundant != bud.Redundant || ref.Aborted != bud.Aborted {
		t.Fatalf("fault tallies diverged: %s vs %s", ref, bud)
	}
}

// TestDeadlineMidRunKeepsAccounting forces expiry mid-run with an
// injected per-fault sleep and checks the partial result stays coherent.
func TestDeadlineMidRunKeepsAccounting(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 2 * time.Millisecond})
	res, err := RunContext(context.Background(), alu.Comb, Config{
		Seed:     7,
		Deadline: 20 * time.Millisecond,
		Inject:   inj,
	})
	if err != nil {
		t.Fatalf("slow run surfaced an error: %v", err)
	}
	if !res.DeadlineExceeded {
		t.Fatal("injected slowness did not exhaust the deadline")
	}
	if got := res.Detected + res.Redundant + res.Aborted; got != res.TotalFaults {
		t.Fatalf("fault accounting off: %d != %d", got, res.TotalFaults)
	}
	// The partial pattern set must actually detect what it claims.
	u := NewUniverse(alu.Comb)
	sim := NewSimulator(alu.Comb)
	if got := countDetected(sim, u, res.Patterns); got != res.Detected {
		t.Fatalf("re-simulated %d detected, reported %d", got, res.Detected)
	}
}

// TestInjectedErrorAbortsLikeContext checks a firing ModeError plan in
// the PODEM merge loop surfaces as (nil, err), same as a context failure.
func TestInjectedErrorAbortsLikeContext(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.ATPGPattern, faultinject.Plan{Mode: faultinject.ModeError, Limit: 1})
	res, err := RunContext(context.Background(), alu.Comb, Config{Seed: 7, Inject: inj})
	if res != nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("res=%v err=%v, want nil result and ErrInjected", res, err)
	}
	if inj.Fires(faultinject.ATPGPattern) != 1 {
		t.Fatalf("fires = %d, want 1", inj.Fires(faultinject.ATPGPattern))
	}
}

// TestEstimateBoundDominatesConvergedRun checks the analytical bound is
// a true upper bound on the converged compacted pattern count, and its
// coverage estimate is at least the measured coverage — the property
// that keeps degraded candidates pessimistic, never flattered.
func TestEstimateBoundDominatesConvergedRun(t *testing.T) {
	for _, width := range []int{4, 8} {
		alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: width, Adder: gatelib.AdderRipple})
		if err != nil {
			t.Fatal(err)
		}
		b := EstimateBound(alu.Comb)
		res := mustRun(t, alu.Comb, Config{Seed: 7})
		if b.Patterns < res.NumPatterns() {
			t.Fatalf("width %d: bound %d < converged n_p %d", width, b.Patterns, res.NumPatterns())
		}
		if b.TotalFaults != res.TotalFaults {
			t.Fatalf("width %d: bound universe %d != run universe %d", width, b.TotalFaults, res.TotalFaults)
		}
		if b.Coverage() < res.RawCoverage() {
			t.Fatalf("width %d: bound coverage %.4f < measured raw coverage %.4f",
				width, b.Coverage(), res.RawCoverage())
		}
		// Pure function: two evaluations agree exactly.
		if b2 := EstimateBound(alu.Comb); b2 != b {
			t.Fatalf("EstimateBound not deterministic: %+v vs %+v", b, b2)
		}
	}
}
