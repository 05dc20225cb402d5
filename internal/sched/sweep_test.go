package sched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/crypt"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
	"repro/internal/workloads"
)

// structArch builds one structure the way the explorer does: ALUs,
// CMPs, the register files, then LD/ST, PC and Immediate. The scheduler
// reads only the bus count and the component mix, so one assignment
// strategy stands for all.
func structArch(buses, alus, cmps int, rfs []dse.RFSpec) *tta.Architecture {
	a := &tta.Architecture{
		Name:  fmt.Sprintf("b%d_a%d_c%d_rf%v", buses, alus, cmps, rfs),
		Width: 16,
		Buses: buses,
	}
	for i := 0; i < alus; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.ALU, fmt.Sprintf("ALU%d", i+1)))
	}
	for i := 0; i < cmps; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.CMP, fmt.Sprintf("CMP%d", i+1)))
	}
	for i, rf := range rfs {
		a.Components = append(a.Components, tta.NewRF(fmt.Sprintf("RF%d", i+1), rf.Regs, rf.In, rf.Out))
	}
	a.Components = append(a.Components,
		tta.NewFU(tta.LDST, "LD/ST"),
		tta.NewPC("PC"),
		tta.NewIMM("Immediate"),
	)
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

// defaultStructures returns the default sweep's 144 structures (bus
// count × ALU count × CMP count × RF set) in sweep order.
func defaultStructures(tb testing.TB) []*tta.Architecture {
	tb.Helper()
	cfg, err := dse.DefaultConfig()
	if err != nil {
		tb.Fatal(err)
	}
	var out []*tta.Architecture
	for _, b := range cfg.Buses {
		for _, a := range cfg.ALUCounts {
			for _, c := range cfg.CMPCounts {
				for _, rfs := range cfg.RFSets {
					out = append(out, structArch(b, a, c, rfs))
				}
			}
		}
	}
	return out
}

// rfShapes turns {regs, write ports, read ports} triples into RF specs.
func rfShapes(shapes ...[3]int) []dse.RFSpec {
	out := make([]dse.RFSpec, len(shapes))
	for i, sh := range shapes {
		out[i] = dse.RFSpec{Regs: sh[0], In: sh[1], Out: sh[2]}
	}
	return out
}

// pinStructures is the default sweep plus shapes from the guided
// search's widened space (up to 16 buses, 8 ALUs, 4 CMPs, 3 RFs) and
// 4-register files that force spill code or infeasibility.
func pinStructures(tb testing.TB) []*tta.Architecture {
	out := defaultStructures(tb)
	for _, s := range []struct {
		buses, alus, cmps int
		rfs               []dse.RFSpec
	}{
		{16, 8, 4, rfShapes([3]int{32, 2, 3}, [3]int{24, 2, 3}, [3]int{16, 2, 3})},
		{16, 8, 4, rfShapes([3]int{4, 1, 1}, [3]int{4, 2, 3}, [3]int{8, 2, 2})},
		{12, 5, 3, rfShapes([3]int{4, 1, 1}, [3]int{8, 2, 2}, [3]int{12, 1, 3})},
		{7, 3, 2, rfShapes([3]int{4, 2, 3}, [3]int{12, 1, 1})},
		{3, 2, 1, rfShapes([3]int{4, 1, 1}, [3]int{12, 1, 1})},
		{2, 1, 1, rfShapes([3]int{4, 1, 1})},
	} {
		out = append(out, structArch(s.buses, s.alus, s.cmps, s.rfs))
	}
	return out
}

// workloadKernel resolves a jobspec workload name to its kernel graph
// through the same path the CLI and the daemon use.
func workloadKernel(tb testing.TB, name string) *program.Graph {
	tb.Helper()
	cfg, _, err := dse.FromSpec(jobspec.Spec{Workload: name})
	if err != nil {
		tb.Fatal(err)
	}
	return cfg.Workload
}

// sortedKeys returns a result map's keys in ascending order.
func sortedKeys[V any](m map[program.ValueID]V) []program.ValueID {
	ks := make([]program.ValueID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// writeResult serializes every field of a schedule in a fixed order:
// moves as emitted, the scalar totals, then each map by ascending key.
// Usage, which the pins predate, is left out; scheduleDigest's Summary
// carries it.
func writeResult(w io.Writer, res *sched.Result) {
	ep := func(e sched.Endpoint) string {
		return fmt.Sprintf("%d.%d.%d.%d", e.Comp, e.Port, e.Reg, e.Imm)
	}
	for _, m := range res.Moves {
		fmt.Fprintf(w, "m %d %s %s %d %d %t %d\n", m.Cycle, ep(m.Src), ep(m.Dst), m.Val, m.Op, m.Trigger, m.Spill)
	}
	fmt.Fprintf(w, "cycles %d peak %d spills %d reloads %d\n", res.Cycles, res.PeakLive, res.Spills, res.Reloads)
	for _, k := range sortedKeys(res.Timings) {
		t := res.Timings[k]
		fmt.Fprintf(w, "t %d %d %d %d %d %d\n", k, t.Fin, t.O, t.T, t.R, t.Fout)
	}
	for _, k := range sortedKeys(res.FUOf) {
		fmt.Fprintf(w, "fu %d %d\n", k, res.FUOf[k])
	}
	for _, k := range sortedKeys(res.RegAlloc) {
		fmt.Fprintf(w, "reg %d %d %d\n", k, res.RegAlloc[k].RF, res.RegAlloc[k].Reg)
	}
	for _, k := range sortedKeys(res.InputLoc) {
		fmt.Fprintf(w, "in %d %d %d\n", k, res.InputLoc[k].RF, res.InputLoc[k].Reg)
	}
}

// schedulePins are sha256 digests over every schedule of one kernel on
// pinStructures under both priorities (writeResult per feasible case,
// the error string per infeasible one). They were recorded with the
// scheduler that offered every pending op a start each cycle, before
// the ready set; any scheduler change must reproduce them exactly.
var schedulePins = map[string]string{
	"crypt":      "e68b6780cbebd09ccfa8a7088e9a9a7bb6501ae1829346fcaa7817b470d75a0a",
	"crc16":      "550a2558ea98be3517eb0d6f9221295d46addbdb25b1ea82a5331a4f8aaf93d2",
	"vecmax":     "861fb573c609d7eea1009147a3e823e891782d4738b961ff292e9974b0130b7c",
	"countbelow": "1023230df3f706424a4d5029e8f4c7241d40095c2490623a67ab53342c560f29",
	"checksum":   "dac9107340a683928d8fddcc47a932ed48bd99e89ccf2c8dd884106c203d356e",
}

// TestSchedulePins schedules every jobspec workload on the default
// sweep's structures and the wide/spilling shapes, under both
// priorities, and compares each kernel's digest with its pin.
func TestSchedulePins(t *testing.T) {
	archs := pinStructures(t)
	for _, name := range jobspec.Workloads {
		t.Run(name, func(t *testing.T) {
			g := workloadKernel(t, name)
			h := sha256.New()
			var feasible, infeasible, spilled int
			for _, arch := range archs {
				for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
					fmt.Fprintf(h, "== %s %s\n", arch.Name, prio)
					res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{Priority: prio})
					if err != nil {
						fmt.Fprintf(h, "err %s\n", err)
						infeasible++
						continue
					}
					feasible++
					if res.Spills > 0 {
						spilled++
					}
					writeResult(h, res)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: %d feasible (%d spilling), %d infeasible", name, feasible, spilled, infeasible)
			if want := schedulePins[name]; got != want {
				t.Errorf("%s schedule digest %s, pinned %s", name, got, want)
			}
		})
	}
}

// searchSpaceStructures draws n structures from the guided search's
// widened space with a fixed seed: 1–16 buses, 1–8 ALUs, 1–4 CMPs and
// 1–3 register files of {4, 8, 12, 16, 24, 32} registers with 1–2 write
// and 1–3 read ports.
func searchSpaceStructures(n int) []*tta.Architecture {
	regs := []int{4, 8, 12, 16, 24, 32}
	rng := rand.New(rand.NewSource(1))
	out := make([]*tta.Architecture, n)
	for i := range out {
		buses, alus, cmps := 1+rng.Intn(16), 1+rng.Intn(8), 1+rng.Intn(4)
		rfs := make([]dse.RFSpec, 1+rng.Intn(3))
		for j := range rfs {
			rfs[j] = dse.RFSpec{Regs: regs[rng.Intn(len(regs))], In: 1 + rng.Intn(2), Out: 1 + rng.Intn(3)}
		}
		out[i] = structArch(buses, alus, cmps, rfs)
	}
	return out
}

// searchSpacePins are sha256 digests over every schedule of one kernel on
// the 256 searchSpaceStructures under both priorities, serialized as in
// TestSchedulePins. They were recorded with the scheduler that offered a
// start to every pending op whose operand A existed.
var searchSpacePins = map[string]string{
	"crypt":      "7a96bfd12eaf84823ddebbb4a74dd4a52289f97b96c37ffe04e6ca74dce9d49f",
	"crc16":      "3c5a79e4dac606ff6047f5d5794abe2ad3677cc35e3f6ed68c2ace6871ee502d",
	"vecmax":     "9c89c0b41c97e06abb3b01a8358676e1abcba5e3efc009a0e44034df05632cd8",
	"countbelow": "b329b138c27a85631afeb01d4ebde0f9e386baec578b8928bcff9fac374e078c",
	"checksum":   "278938212c409e8c3bf7399f3b509f33db414e9494d76f143b8d16b29daee1ed",
}

// TestScheduleSearchSpacePins widens TestSchedulePins to the unit counts,
// bus counts and register-file shapes the guided search schedules: the
// start walk's behaviour depends on all three and on spill traffic.
func TestScheduleSearchSpacePins(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine pins, 20 s under the race detector; the plain go test ./... leg runs them (TestScheduleConcurrentReuse covers the shared state)")
	}
	archs := searchSpaceStructures(256)
	for _, name := range jobspec.Workloads {
		t.Run(name, func(t *testing.T) {
			g := workloadKernel(t, name)
			h := sha256.New()
			var feasible, spilled int
			for _, arch := range archs {
				for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
					fmt.Fprintf(h, "== %s %s\n", arch.Name, prio)
					res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{Priority: prio})
					if err != nil {
						fmt.Fprintf(h, "err %s\n", err)
						continue
					}
					feasible++
					if res.Spills > 0 {
						spilled++
					}
					writeResult(h, res)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: %d feasible (%d spilling) of %d", name, feasible, spilled, 2*len(archs))
			if want := searchSpacePins[name]; got != want {
				t.Errorf("%s schedule digest %s, pinned %s", name, got, want)
			}
		})
	}
}

// cryptInputs is a non-zero input vector for the sweep's crypt loop
// kernel: L and R halves, the round counter, one round key.
func cryptInputs() []uint64 {
	ks := crypt.KeySchedule(0x133457799BBCDFF1)
	in := crypt.KernelInputs(0x01234567, 0x89ABCDEF, ks[:1])
	return append(in[:4:4], append([]uint64{3}, in[4:]...)...)
}

// workloadData returns non-zero inputs for a jobspec workload's kernel
// and a constructor of its data memory: crypt's round-key vector and
// SP-table image, or seeded words for the other kernels, whose memory holds
// at most 16 words at the base address the explorer builds them with.
func workloadData(name string, g *program.Graph) ([]uint64, func() program.Memory) {
	if name == "crypt" {
		return cryptInputs(), crypt.MemoryImage
	}
	rng := rand.New(rand.NewSource(int64(len(name))))
	inputs := make([]uint64, g.NumInputs())
	for i := range inputs {
		inputs[i] = uint64(rng.Intn(1 << 16))
	}
	words := make([]uint16, 16)
	for i := range words {
		words[i] = uint16(rng.Intn(1 << 16))
	}
	return inputs, func() program.Memory { return workloads.MemoryFor(0x40, words) }
}

// TestScheduleOracleDefaultSweep checks schedules against referees that
// share no code with the scheduler: the structural checker, and the
// cycle-accurate simulator replaying the moves with every transported
// value verified against the reference dataflow evaluation. The
// simulated cycle count must equal the scheduler's, and the outputs must
// match the reference. It covers every jobspec workload on the pin
// structures (the default sweep's, up to 16 buses, 8 ALUs and 4 CMPs,
// and 4-register files that force spill code) under both priorities:
// the shapes that exercise the scheduler's unit masks and spill jobs.
func TestScheduleOracleDefaultSweep(t *testing.T) {
	archs := pinStructures(t)
	for _, name := range jobspec.Workloads {
		t.Run(name, func(t *testing.T) {
			g := workloadKernel(t, name)
			inputs, memory := workloadData(name, g)
			want, err := program.Evaluate(g, inputs, memory())
			if err != nil {
				t.Fatal(err)
			}
			var feasible, spilled int
			for _, arch := range archs {
				for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
					res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{Priority: prio})
					if err != nil {
						continue // infeasible structures are priced as such, not scheduled
					}
					feasible++
					if res.Spills > 0 {
						spilled++
					}
					if err := sched.Check(res); err != nil {
						t.Errorf("%s (%s): %v", arch.Name, prio, err)
						continue
					}
					reg := obs.NewRegistry()
					out, err := sim.Run(res, inputs, memory(), sim.Options{Verify: true, Obs: reg})
					if err != nil {
						t.Errorf("%s (%s): %v", arch.Name, prio, err)
						continue
					}
					if got := reg.Counter("sim.cycles").Value(); got != int64(res.Cycles) {
						t.Errorf("%s (%s): simulated %d cycles, scheduler reports %d", arch.Name, prio, got, res.Cycles)
					}
					if !slices.Equal(out, want) {
						t.Errorf("%s (%s): outputs %x, reference %x", arch.Name, prio, out, want)
					}
				}
			}
			if feasible == 0 {
				t.Fatal("no feasible structure")
			}
			t.Logf("%s: %d feasible schedules checked (%d with spill code)", name, feasible, spilled)
		})
	}
}

// TestScheduleAllocsFlatInCycles pins that the scheduler's per-cycle
// state is reused, not reallocated: a 1-bus structure takes far more
// cycles than a 4-bus one, yet neither entry point may allocate more per
// schedule. ScheduleContext, which builds the graph's plan in the pooled
// state, copies its Result out of it (16 allocations); Plan.Measure
// copies nothing out and does not allocate once warm.
func TestScheduleAllocsFlatInCycles(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled states at random; allocation counts vary")
	}
	g := workloadKernel(t, "crypt")
	plan, err := sched.NewPlan(g, sched.CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	rfs := rfShapes([3]int{16, 2, 2}, [3]int{16, 1, 2})
	ctx := context.Background()
	entries := []struct {
		name    string
		ceiling float64
		run     func(*tta.Architecture) (cycles int, err error)
	}{
		{"ScheduleContext", 16, func(arch *tta.Architecture) (int, error) {
			res, err := sched.ScheduleContext(ctx, g, arch, sched.Options{})
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		}},
		{"Plan.Measure", 0, func(arch *tta.Architecture) (int, error) {
			sum, err := plan.Measure(ctx, arch, sched.Options{})
			return sum.Cycles, err
		}},
	}
	for _, e := range entries {
		measure := func(buses int) (allocs float64, cycles int) {
			arch := structArch(buses, 1, 1, rfs)
			allocs = testing.AllocsPerRun(20, func() {
				var err error
				if cycles, err = e.run(arch); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, cycles
		}
		narrowAllocs, narrowCycles := measure(1)
		wideAllocs, wideCycles := measure(4)
		t.Logf("%s: 1 bus: %d cycles, %.0f allocs; 4 buses: %d cycles, %.0f allocs",
			e.name, narrowCycles, narrowAllocs, wideCycles, wideAllocs)
		if narrowCycles < wideCycles*3/2 {
			t.Fatalf("1-bus schedule (%d cycles) not clearly longer than 4-bus (%d)", narrowCycles, wideCycles)
		}
		if narrowAllocs > wideAllocs {
			t.Errorf("%s: allocations grow with cycle count: %.0f at %d cycles vs %.0f at %d",
				e.name, narrowAllocs, narrowCycles, wideAllocs, wideCycles)
		}
		if got := max(narrowAllocs, wideAllocs); got > e.ceiling {
			t.Errorf("%s allocates %.0f times per warm call, want at most %.0f", e.name, got, e.ceiling)
		}
	}
}

// scheduleCase is one (workload, structure, priority) triple of the pin
// suite, with the plan of its workload under its priority.
type scheduleCase struct {
	workload string
	g        *program.Graph
	arch     *tta.Architecture
	prio     sched.Priority
	plan     *sched.Plan
}

// plansFor returns g's plan under each priority.
func plansFor(tb testing.TB, g *program.Graph) map[sched.Priority]*sched.Plan {
	tb.Helper()
	plans := make(map[sched.Priority]*sched.Plan)
	for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
		plan, err := sched.NewPlan(g, prio)
		if err != nil {
			tb.Fatal(err)
		}
		plans[prio] = plan
	}
	return plans
}

// pinCases returns the pin suite's triples in pin order: each workload
// over pinStructures under both priorities. The cases of one workload
// and priority share one plan.
func pinCases(tb testing.TB) []scheduleCase {
	archs := pinStructures(tb)
	var out []scheduleCase
	for _, name := range jobspec.Workloads {
		g := workloadKernel(tb, name)
		plans := plansFor(tb, g)
		for _, arch := range archs {
			for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
				out = append(out, scheduleCase{name, g, arch, prio, plans[prio]})
			}
		}
	}
	return out
}

// scheduleDigest schedules one case with ScheduleContext and returns the
// sha256 of every Result field (or of the error), with the Result's
// Summary fields (zero on error).
func scheduleDigest(c scheduleCase) (string, sched.Summary) {
	return resultDigest(sched.ScheduleContext(context.Background(), c.g, c.arch, sched.Options{Priority: c.prio}))
}

// resultDigest returns the sha256 of every field of a schedule (or of
// its error), with its Summary fields (zero on error).
func resultDigest(res *sched.Result, err error) (string, sched.Summary) {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
		return hex.EncodeToString(h.Sum(nil)), sched.Summary{}
	}
	writeResult(h, res)
	return hex.EncodeToString(h.Sum(nil)), sched.Summary{
		Cycles: res.Cycles, Spills: res.Spills, Reloads: res.Reloads, PeakLive: res.PeakLive, Usage: res.Usage,
	}
}

// TestScheduleStateReuse schedules the pin cases on one goroutine, so
// each call reuses the pooled state the previous one left, in a seeded
// shuffle that interleaves workloads of different sizes with the wide
// and spilling shapes. Between them it runs schedules that stop midway,
// at a small cycle bound or on a cancelled context, leaving ops in
// flight, spill jobs pending and the ready set populated. Every schedule
// must equal its pin-order counterpart, and every case's Plan.Measure
// must return exactly the scalar fields of the pin-order
// ScheduleContext Result, or the same error where the structure is
// infeasible: no state leaks from one schedule into the next, and a
// measure is the schedule without its moves.
func TestScheduleStateReuse(t *testing.T) {
	cases := pinCases(t)
	wantDigest := make([]string, len(cases))
	wantSum := make([]sched.Summary, len(cases))
	wantErr := make([]string, len(cases))
	infeasible := 0
	for i, c := range cases {
		res, err := sched.ScheduleContext(context.Background(), c.g, c.arch, sched.Options{Priority: c.prio})
		wantDigest[i], wantSum[i] = resultDigest(res, err)
		if err != nil {
			wantErr[i] = err.Error()
			infeasible++
		}
	}
	t.Logf("%d feasible, %d infeasible cases", len(cases)-infeasible, infeasible)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	rng := rand.New(rand.NewSource(15))
	for _, i := range rng.Perm(len(cases)) {
		abort := cases[rng.Intn(len(cases))]
		if rng.Intn(2) == 0 {
			_, _ = abort.plan.Measure(ctx, abort.arch, sched.Options{Priority: abort.prio, MaxCycles: 1 + rng.Intn(200)})
		} else {
			_, _ = sched.ScheduleContext(cancelled, abort.g, abort.arch, sched.Options{Priority: abort.prio})
		}
		c := cases[i]
		if got, _ := scheduleDigest(c); got != wantDigest[i] {
			t.Errorf("%s on %s (%s): schedule differs after reuse", c.workload, c.arch.Name, c.prio)
		}
		sum, err := c.plan.Measure(ctx, c.arch, sched.Options{Priority: c.prio})
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != wantErr[i] {
			t.Errorf("%s on %s (%s): Plan.Measure error %q, ScheduleContext error %q",
				c.workload, c.arch.Name, c.prio, gotErr, wantErr[i])
		}
		if sum != wantSum[i] {
			t.Errorf("%s on %s (%s): summary %+v after reuse, %+v in pin order",
				c.workload, c.arch.Name, c.prio, sum, wantSum[i])
		}
	}
}

// TestScheduleConcurrentReuse: eight goroutines share the state pool
// and one plan per workload, each scheduling its own seeded shuffle of
// the default structures for one workload, with ScheduleContext and
// through the shared plan's Measure (workloads alternate between
// goroutines, so pooled states move between graph sizes). Every Result
// and Summary must equal the serial one. Run it under -race.
func TestScheduleConcurrentReuse(t *testing.T) {
	archs := defaultStructures(t)
	type want struct {
		digest string
		sum    sched.Summary
	}
	serial := make(map[string][]want)
	kernels := make(map[string]scheduleCase) // every field but arch
	for _, name := range jobspec.Workloads {
		g := workloadKernel(t, name)
		plan, err := sched.NewPlan(g, sched.CriticalPath)
		if err != nil {
			t.Fatal(err)
		}
		kernels[name] = scheduleCase{name, g, nil, sched.CriticalPath, plan}
		ws := make([]want, len(archs))
		for i, arch := range archs {
			ws[i].digest, ws[i].sum = scheduleDigest(scheduleCase{name, g, arch, sched.CriticalPath, plan})
		}
		serial[name] = ws
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		name := jobspec.Workloads[gi%len(jobspec.Workloads)]
		c := kernels[name]
		order := rand.New(rand.NewSource(int64(gi))).Perm(len(archs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for _, i := range order {
				w := serial[name][i]
				c.arch = archs[i]
				if got, _ := scheduleDigest(c); got != w.digest {
					errs <- fmt.Errorf("%s on %s: schedule differs from the serial one", name, archs[i].Name)
					return
				}
				sum, _ := c.plan.Measure(ctx, archs[i], sched.Options{})
				if sum != w.sum {
					errs <- fmt.Errorf("%s on %s: summary %+v, serial %+v", name, archs[i].Name, sum, w.sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkScheduleDefaultSweep schedules the crypt kernel onto the
// default sweep's 144 structures, serially — the scheduler's share of
// one warm exploration, without the explorer around it.
func BenchmarkScheduleDefaultSweep(b *testing.B) {
	g := workloadKernel(b, "crypt")
	archs := defaultStructures(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, arch := range archs {
			// Infeasible structures fail fast; their cost is part of the sweep.
			_, _ = sched.ScheduleContext(ctx, g, arch, sched.Options{})
		}
	}
}

// BenchmarkPlanMeasureDefaultSweep measures the same schedules as
// BenchmarkScheduleDefaultSweep from one plan built outside the timer,
// as the explorer's structural memo does: only their summaries are read
// out, and only the per-structure work is timed.
func BenchmarkPlanMeasureDefaultSweep(b *testing.B) {
	benchmarkPlanMeasure(b, defaultStructures(b))
}

// BenchmarkPlanMeasureSearchSpace measures the crypt kernel on the 256
// searchSpaceStructures from one plan: the wide and spilling shapes the
// guided search's screen schedules.
func BenchmarkPlanMeasureSearchSpace(b *testing.B) {
	benchmarkPlanMeasure(b, searchSpaceStructures(256))
}

// benchmarkPlanMeasure measures the crypt kernel on archs, serially, from
// one plan.
func benchmarkPlanMeasure(b *testing.B, archs []*tta.Architecture) {
	plan, err := sched.NewPlan(workloadKernel(b, "crypt"), sched.CriticalPath)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, arch := range archs {
			_, _ = plan.Measure(ctx, arch, sched.Options{})
		}
	}
}
