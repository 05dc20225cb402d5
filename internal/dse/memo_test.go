package dse

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// TestScheduleMemoSharesStructuralWork explores one structure under every
// assign strategy and checks (a) the structural evaluation ran once (memo
// miss == distinct structures: the warm-up stage's lookup computes it, so
// every candidate's lookup is a hit), (b) the variants share cycle count
// and area, and (c) every candidate's values are identical to an unshared
// evaluation — memoization changes when work runs, never its result.
func TestScheduleMemoSharesStructuralWork(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.RoundRobin, tta.Packed}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("%d candidates, want 3 assign variants", len(res.Candidates))
	}

	miss := reg.Counter("dse.sched.memo.miss").Value()
	hit := reg.Counter("dse.sched.memo.hit").Value()
	if miss != 1 {
		t.Errorf("memo miss = %d, want 1 (one structure)", miss)
	}
	if hit != 3 {
		t.Errorf("memo hit = %d, want 3 (every variant)", hit)
	}

	base := &res.Candidates[0]
	for i := 1; i < len(res.Candidates); i++ {
		c := &res.Candidates[i]
		if c.Cycles != base.Cycles || c.Spills != base.Spills || c.Area != base.Area ||
			c.Clock != base.Clock || c.ExecTime != base.ExecTime {
			t.Errorf("variant %d structural axes differ from variant 0: %+v vs %+v", i, c, base)
		}
	}

	// Cross-check against evaluations that cannot share: a fresh memo per
	// candidate.
	cfgCopy := cfg
	if err := cfgCopy.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	for i := range res.Candidates {
		want, err := evaluate(context.Background(), &cfgCopy, res.Candidates[i].Arch, nil, memoFor(t, cfgCopy.Workload))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Candidates[i]
		got.Arch, want.Arch = nil, nil
		if got != want {
			t.Errorf("candidate %d: memoized %+v != unshared %+v", i, got, want)
		}
	}
}

// TestStructKeyIgnoresAssignment pins the memo key contract: variants of
// one structure collide, any structural change (width, buses, FU mix, RF
// shape, adder) separates.
func TestStructKeyIgnoresAssignment(t *testing.T) {
	base := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 0, 0)
	variant := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.Packed, 1, 0)
	if structKey(base) != structKey(variant) {
		t.Errorf("assign variants got different keys:\n%s\n%s", structKey(base), structKey(variant))
	}
	distinct := []*tta.Architecture{
		buildArch(8, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 2, 0),   // width
		buildArch(16, 3, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 3, 0),  // buses
		buildArch(16, 2, 2, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 4, 0),  // ALUs
		buildArch(16, 2, 1, 2, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 5, 0),  // CMPs
		buildArch(16, 2, 1, 1, []RFSpec{{12, 1, 1}}, tta.SpreadFirst, 6, 0), // RF shape
	}
	seen := map[string]bool{structKey(base): true}
	for _, a := range distinct {
		k := structKey(a)
		if seen[k] {
			t.Errorf("structural change did not change the key: %s (%s)", k, a.Name)
		}
		seen[k] = true
	}
	adder := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 7, 0)
	for ci := range adder.Components {
		if adder.Components[ci].Kind == tta.ALU {
			adder.Components[ci].Adder = 1 // carry-select
		}
	}
	if structKey(adder) == structKey(base) {
		t.Error("adder microarchitecture missing from the structural key")
	}
}

// TestScheduleClassIgnoresCounts pins the class a sealed schedule is
// filed under: bus, ALU and CMP counts and the adder collide (the
// scheduler reads none of them but the counts, which Usage.Admits
// judges), while width and register files separate.
func TestScheduleClassIgnoresCounts(t *testing.T) {
	rfs := []RFSpec{{8, 1, 1}}
	base := scheduleClass(buildArch(16, 2, 1, 1, rfs, tta.SpreadFirst, 0, 0))
	for _, a := range []*tta.Architecture{
		buildArch(16, 9, 3, 4, rfs, tta.Packed, 1, 0),
		assembleArch("csel", 16, 2, 1, 1, gatelib.AdderCarrySelect, rfs, tta.SpreadFirst),
	} {
		if got := scheduleClass(a); got != base {
			t.Errorf("%s: class %s, want %s", a.Name, got, base)
		}
	}
	for _, a := range []*tta.Architecture{
		buildArch(8, 2, 1, 1, rfs, tta.SpreadFirst, 2, 0),
		buildArch(16, 2, 1, 1, []RFSpec{{12, 1, 1}}, tta.SpreadFirst, 3, 0),
		buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}, {8, 1, 1}}, tta.SpreadFirst, 4, 0),
	} {
		if scheduleClass(a) == base {
			t.Errorf("%s: width or register files missing from the class %s", a.Name, base)
		}
	}
}

// TestScheduleMemoReusesSealedOnly: a schedule serves the structures its
// usage admits only once it is sealed. Before, an admitted structure is
// scheduled; after, it is served with the unshared evaluation's values;
// a structure the usage does not admit is always scheduled.
func TestScheduleMemoReusesSealedOnly(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	unshared := cfg
	unshared.Obs = nil
	ctx := context.Background()
	memo := memoFor(t, cfg.Workload)
	rfs := []RFSpec{{8, 1, 2}, {12, 2, 3}}
	get := func(buses int, adder gatelib.AdderKind) (runs, reuse int64) {
		t.Helper()
		arch := assembleArch("x", cfg.Width, buses, 2, 1, adder, rfs, tta.SpreadFirst)
		got, err := memo.get(ctx, &cfg, arch, nil)
		if err != nil || !got.feasible {
			t.Fatalf("%d buses: feasible %t, error %v", buses, got.feasible, err)
		}
		want, err := memoFor(t, unshared.Workload).evalStructural(ctx, &unshared, arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d buses, %s: memo %+v, unshared %+v", buses, adder, got, want)
		}
		return reg.Counter("sched.runs").Value(), reg.Counter("dse.sched.memo.reuse").Value()
	}
	// On 12 buses the busiest cycle moves 5, so the schedule admits 6 and
	// more buses.
	get(12, gatelib.AdderRipple)
	if runs, reuse := get(16, gatelib.AdderRipple); runs != 2 || reuse != 0 {
		t.Errorf("before the seal: sched.runs %d, reuse %d, want 2 and 0", runs, reuse)
	}
	memo.seal()
	if runs, reuse := get(6, gatelib.AdderCarrySelect); runs != 2 || reuse != 1 {
		t.Errorf("after the seal: sched.runs %d, reuse %d, want 2 and 1", runs, reuse)
	}
	if runs, reuse := get(5, gatelib.AdderRipple); runs != 3 || reuse != 1 {
		t.Errorf("5 buses, not admitted: sched.runs %d, reuse %d, want 3 and 1", runs, reuse)
	}
}

// TestUtilizationGaugeSetOnEveryExit pins the fixed exit-path contract:
// the dse.worker.utilization gauge is published whether the exploration
// completes, fails on configuration, or is cancelled mid-run.
func TestUtilizationGaugeSetOnEveryExit(t *testing.T) {
	gaugeSet := func(reg *obs.Registry) bool {
		_, ok := reg.Snapshot().Gauges["dse.worker.utilization"]
		return ok
	}

	// Completed run.
	cfg := smallConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a completed run")
	}

	// Configuration-error exit.
	cfg = smallConfig(t)
	cfg.Parallelism = -1
	reg = obs.NewRegistry()
	cfg.Obs = reg
	if _, err := ExploreContext(context.Background(), cfg); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a configuration-error exit")
	}

	// Cancelled mid-evaluation exit.
	cfg = smallConfig(t)
	reg = obs.NewRegistry()
	cfg.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := ExploreContext(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a cancelled run")
	}
}
