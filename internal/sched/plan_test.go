package sched_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

// TestNewPlanValidatesGraph: a malformed graph gets no plan, and the
// error is the graph's own validation error, as ScheduleContext reports
// it.
func TestNewPlanValidatesGraph(t *testing.T) {
	g := program.NewGraph("bad", 16)
	a := g.In()
	g.Output(g.Add(a, a))
	g.Ops[1].B = 7
	want := g.Validate()
	if want == nil {
		t.Fatal("the corrupted graph validates")
	}
	plan, err := sched.NewPlan(g, sched.CriticalPath)
	if plan != nil || err == nil || err.Error() != want.Error() {
		t.Errorf("NewPlan: plan %v, error %v; want no plan, %v", plan, err, want)
	}
	_, err = sched.ScheduleContext(context.Background(), g, structArch(2, 1, 1, rfShapes([3]int{8, 1, 1})), sched.Options{})
	if err == nil || err.Error() != want.Error() {
		t.Errorf("ScheduleContext error %v, want %v", err, want)
	}
}

// TestPlanRejectsOtherPriority: a plan orders by the priority it was
// built for; Plan.Measure refuses options asking for the other one with
// an error and no summary.
func TestPlanRejectsOtherPriority(t *testing.T) {
	g := workloadKernel(t, "crc16")
	arch := structArch(2, 1, 1, rfShapes([3]int{8, 1, 1}, [3]int{12, 1, 1}))
	ctx := context.Background()
	for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
		plan, err := sched.NewPlan(g, prio)
		if err != nil {
			t.Fatal(err)
		}
		other := sched.SourceOrder
		if prio == sched.SourceOrder {
			other = sched.CriticalPath
		}
		want := fmt.Sprintf("sched: options ask for %s priority, the plan orders by %s", other, prio)
		if sum, err := plan.Measure(ctx, arch, sched.Options{Priority: other}); sum != (sched.Summary{}) || err == nil || err.Error() != want {
			t.Errorf("Measure with %s on a %s plan: summary %+v, error %v, want %q", other, prio, sum, err, want)
		}
		if _, err := plan.Measure(ctx, arch, sched.Options{Priority: prio}); err != nil {
			t.Errorf("Measure with %s on a %s plan: %v", prio, prio, err)
		}
	}
}

// TestManyUnitsAndRegisters schedules past one 64-bit word of the
// resource bitmaps: 100 independent adds on 160 ALUs and a 160-register
// file with eight read ports and one write port, so operands leave the
// register file faster than results return and most ALUs are busy at
// once. The schedule must use ALUs and registers beyond position 64,
// pass the checker and the verified simulation, and, as Usage.Admits
// promises, be the schedule of the structure with exactly the ALUs it
// used.
func TestManyUnitsAndRegisters(t *testing.T) {
	g := program.NewGraph("wide", 16)
	a, b := g.In(), g.In()
	acc := g.Xor(g.Add(a, g.ConstV(0)), b)
	for i := 1; i < 100; i++ {
		acc = g.Or(acc, g.Xor(g.Add(a, g.ConstV(uint64(i))), b))
	}
	g.Output(acc)
	arch := func(alus int) *tta.Architecture {
		arch := &tta.Architecture{Name: fmt.Sprintf("a%d", alus), Width: 16, Buses: 24}
		for i := 0; i < alus; i++ {
			arch.Components = append(arch.Components, tta.NewFU(tta.ALU, fmt.Sprintf("ALU%d", i+1)))
		}
		arch.Components = append(arch.Components, tta.NewRF("RF1", 160, 1, 8), tta.NewPC("PC"), tta.NewIMM("Immediate"))
		tta.AssignPorts(arch, tta.SpreadFirst)
		return arch
	}
	ctx := context.Background()
	res, err := sched.ScheduleContext(ctx, g, arch(160), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Usage
	t.Logf("%d cycles, %d ALUs used, peak %d live registers", res.Cycles, u.Units[tta.ALU], res.PeakLive)
	if u.Units[tta.ALU] <= 64 || u.Short[tta.ALU] {
		t.Fatalf("usage %+v: want more than 64 ALUs used and none short", u)
	}
	highReg := false
	for _, loc := range res.RegAlloc {
		highReg = highReg || loc.Reg >= 64
	}
	if !highReg {
		t.Fatalf("no value allocated beyond register 63 (peak %d live)", res.PeakLive)
	}
	if err := sched.Check(res); err != nil {
		t.Fatal(err)
	}
	inputs := []uint64{0x1234, 0xBEEF}
	want, err := program.Evaluate(g, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sim.Run(res, inputs, nil, sim.Options{Verify: true}); err != nil || !slices.Equal(out, want) {
		t.Fatalf("simulation: outputs %x, error %v; reference %x", out, err, want)
	}
	sum := sched.Summary{Cycles: res.Cycles, Spills: res.Spills, Reloads: res.Reloads, PeakLive: res.PeakLive, Usage: u}
	plan, err := sched.NewPlan(g, sched.CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := plan.Measure(ctx, arch(u.Units[tta.ALU]), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tight != sum {
		t.Errorf("on the %d ALUs it used: %+v, on 160: %+v", u.Units[tta.ALU], tight, sum)
	}
}
