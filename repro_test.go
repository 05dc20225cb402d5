// Root-level integration test: one compact end-to-end run asserting the
// paper's headline claims hold together — the smoke test a fresh checkout
// answers with.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dse"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

func TestEndToEndStudy(t *testing.T) {
	// A trimmed exploration keeps this under a second while still crossing
	// every subsystem: gate-level ATPG back-annotation, scheduling the
	// crypt kernel, the three-axis evaluation and the selection.
	cfg, err := dse.DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buses = []int{2, 3}
	cfg.ALUCounts = []int{1, 2}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = cfg.RFSets[1:3]
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.Packed}
	study := core.NewStudyWithConfig(cfg)
	if err := study.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := study.Result

	// Claim 1 (figure 8): the area/time front survives the test axis.
	if !res.ProjectionPreserved() {
		t.Error("projection not preserved")
	}
	// Claim 2 (figure 8): 2-D-close designs spread on the test axis.
	if lo, hi, ok := res.TestCostSpread(0.01); !ok || hi <= lo {
		t.Errorf("no test-cost spread among close designs (%d..%d, ok=%v)", lo, hi, ok)
	}
	// Claim 3 (Table 1): functional beats full scan everywhere.
	for _, i := range res.Feasible {
		c := &res.Candidates[i]
		if c.TestCost >= c.FullScan {
			t.Errorf("%s: functional %d not below scan %d", c.Arch.Name, c.TestCost, c.FullScan)
		}
	}
	// Claim 4 (figure 9): a feasible architecture is selected and it
	// actually computes crypt, verified move by move.
	sel := study.SelectedArchitecture()
	if sel == nil {
		t.Fatal("no selection")
	}
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	schedRes, err := sched.ScheduleContext(context.Background(), kernel, sel, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Check(schedRes); err != nil {
		t.Fatal(err)
	}
	ks := crypt.KeySchedule(crypt.KeyFromPassword("integration"))
	out, err := sim.Run(schedRes, crypt.KernelInputs(0, 0, ks[:1]), crypt.MemoryImage(), sim.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	gl, gr := crypt.KernelOutputs(out)
	wl, wr := crypt.GoldenRounds(0, 0, ks[:1])
	if gl != wl || gr != wr {
		t.Fatalf("selected architecture miscomputes crypt: (%08X,%08X) vs (%08X,%08X)", gl, gr, wl, wr)
	}
}

func TestSchedulerPriorityAblation(t *testing.T) {
	// Critical-path list scheduling must not lose to naive source order on
	// the crypt kernel (and usually wins).
	arch := tta.Figure9()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{Priority: sched.CriticalPath})
	if err != nil {
		t.Fatal(err)
	}
	so, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{Priority: sched.SourceOrder})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Check(so); err != nil {
		t.Fatalf("source-order schedule invalid: %v", err)
	}
	t.Logf("crypt round: critical-path %d cycles, source-order %d cycles", cp.Cycles, so.Cycles)
	if cp.Cycles > so.Cycles+5 {
		t.Errorf("critical-path priority markedly worse than source order: %d vs %d", cp.Cycles, so.Cycles)
	}
	if sched.CriticalPath.String() == "" || sched.SourceOrder.String() == "" {
		t.Error("empty priority names")
	}

	// An adversarial graph — the long dependence chain appears last in
	// program order — separates the heuristics decisively.
	g := program.NewGraph("adversarial", 16)
	a := g.In()
	b := g.In()
	var shorts []program.ValueID
	for i := 0; i < 12; i++ {
		shorts = append(shorts, g.Xor(a, g.ConstV(uint64(i))))
	}
	chain := b
	for i := 0; i < 10; i++ {
		chain = g.Add(chain, a)
	}
	acc := chain
	for _, s := range shorts {
		acc = g.Or(acc, s)
	}
	g.Output(acc)
	cp2, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{Priority: sched.CriticalPath})
	if err != nil {
		t.Fatal(err)
	}
	so2, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{Priority: sched.SourceOrder})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adversarial graph: critical-path %d cycles, source-order %d cycles", cp2.Cycles, so2.Cycles)
	if cp2.Cycles > so2.Cycles {
		t.Errorf("critical-path lost on its home turf: %d vs %d", cp2.Cycles, so2.Cycles)
	}
}
