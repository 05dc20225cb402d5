package sched_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/sched"
	"repro/internal/tta"
)

// withCounts rebuilds arch, as structArch does, with other bus, ALU and
// CMP counts and the same register files.
func withCounts(arch *tta.Architecture, c sched.Counts) *tta.Architecture {
	var rfs []dse.RFSpec
	for _, comp := range arch.Components {
		if comp.Kind == tta.RF {
			rfs = append(rfs, dse.RFSpec{Regs: comp.NumRegs, In: comp.NumIn, Out: comp.NumOut})
		}
	}
	return structArch(c.Buses, c.ALUs, c.CMPs, rfs)
}

// admittedCorners returns, per dimension, the schedule's own count and,
// unless the dimension was saturated, the lowest count Admits lets the
// schedule move to and the guided search's maximum (16 buses, 8 ALUs,
// 4 CMPs).
func admittedCorners(u sched.Usage, from sched.Counts) (buses, alus, cmps []int) {
	buses = []int{from.Buses}
	if u.Moves < from.Buses {
		buses = append(buses, u.Moves+1, 16)
	}
	units := func(k tta.Kind, have, most int) []int {
		if u.Short[k] {
			return []int{have}
		}
		return []int{have, u.Units[k], most}
	}
	distinct := func(xs []int) []int {
		slices.Sort(xs)
		return slices.Compact(xs)
	}
	return distinct(buses), distinct(units(tta.ALU, from.ALUs, 8)), distinct(units(tta.CMP, from.CMPs, 4))
}

// priced is a Summary without its Usage: the fields the explorer prices.
func priced(s sched.Summary) sched.Summary {
	s.Usage = sched.Usage{}
	return s
}

// TestUsageAdmitsOracle checks Usage.Admits by execution. Every feasible
// schedule of every workload on the 256 searchSpaceStructures, under both
// priorities, is measured again on each admitted corner (admittedCorners
// and their combinations); each must report the identical Summary, Usage
// included. The bound is also shown to be one the oracle can see: one ALU
// or CMP below an unsaturated unit bound must change the priced fields
// (cycles, spill traffic, peak registers) of some schedule. One bus fewer
// than the proven bound (as many buses as the schedule's busiest cycle
// moved) is measured and logged, not asserted: the proof does not cover
// it.
func TestUsageAdmitsOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine oracle, 26 s under the race detector; the plain go test ./... leg runs it (TestScheduleConcurrentReuse covers the shared state)")
	}
	archs := searchSpaceStructures(256)
	ctx := context.Background()
	var schedules, variants int
	type probe struct{ cases, differ int }
	var alu, cmpUnits, bus probe
	for _, name := range jobspec.Workloads {
		plans := plansFor(t, workloadKernel(t, name))
		for _, arch := range archs {
			from := sched.CountsOf(arch)
			for _, prio := range []sched.Priority{sched.CriticalPath, sched.SourceOrder} {
				plan, opts := plans[prio], sched.Options{Priority: prio}
				want, err := plan.Measure(ctx, arch, opts)
				if err != nil {
					continue
				}
				schedules++
				u := want.Usage
				measure := func(to sched.Counts) sched.Summary {
					got, err := plan.Measure(ctx, withCounts(arch, to), opts)
					if err != nil {
						t.Fatalf("%s on %s (%s) with %+v: %v", name, arch.Name, prio, to, err)
					}
					return got
				}
				buses, alus, cmps := admittedCorners(u, from)
				for _, b := range buses {
					for _, a := range alus {
						for _, c := range cmps {
							to := sched.Counts{Buses: b, ALUs: a, CMPs: c}
							if to == from {
								continue
							}
							if !u.Admits(from, to) {
								t.Fatalf("%s on %s (%s): usage %+v does not admit corner %+v", name, arch.Name, prio, u, to)
							}
							variants++
							if got := measure(to); got != want {
								t.Errorf("%s on %s (%s): %+v gives %+v, the schedule on %+v %+v",
									name, arch.Name, prio, to, got, from, want)
							}
						}
					}
				}
				// One below each bound: Admits must refuse it, and the
				// oracle must see some of those differ.
				below := func(p *probe, to sched.Counts) {
					if u.Admits(from, to) {
						t.Fatalf("%s on %s (%s): usage %+v admits %+v, below its bound", name, arch.Name, prio, u, to)
					}
					p.cases++
					if priced(measure(to)) != priced(want) {
						p.differ++
					}
				}
				if k := u.Units[tta.ALU] - 1; !u.Short[tta.ALU] && k >= 1 {
					below(&alu, sched.Counts{Buses: from.Buses, ALUs: k, CMPs: from.CMPs})
				}
				if k := u.Units[tta.CMP] - 1; !u.Short[tta.CMP] && k >= 1 {
					below(&cmpUnits, sched.Counts{Buses: from.Buses, ALUs: from.ALUs, CMPs: k})
				}
				if u.Moves >= 1 && u.Moves < from.Buses {
					below(&bus, sched.Counts{Buses: u.Moves, ALUs: from.ALUs, CMPs: from.CMPs})
				}
			}
		}
	}
	t.Logf("%d feasible schedules, %d admitted variants measured", schedules, variants)
	t.Logf("one below the bound: ALU %d of %d differ, CMP %d of %d differ, buses %d of %d differ",
		alu.differ, alu.cases, cmpUnits.differ, cmpUnits.cases, bus.differ, bus.cases)
	if variants == 0 {
		t.Fatal("no admitted variant measured")
	}
	if alu.differ == 0 || cmpUnits.differ == 0 {
		t.Error("no schedule changed one ALU or one CMP below its bound: the oracle cannot tell the bound from a looser one")
	}
}
