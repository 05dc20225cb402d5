package atpg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gatelib"
)

// fullImply5 is the reference implication: every net from scratch, in
// topological order, under the control assignment and fault f (Gate -1
// injects nothing).
func fullImply5(t *simTopo, assign []v3, f Fault) []val5 {
	n := t.n
	vals := make([]val5, n.NumNets())
	for i := range vals {
		vals[i] = vvX
	}
	for ci, net := range t.ctrl {
		vals[net] = val5{assign[ci], assign[ci]}
	}
	for _, gi := range n.TopoOrder() {
		g := &n.Gates[gi]
		var out val5
		if f.Gate == gi && f.Pin >= 0 {
			out = evalGate5Pin(g, vals, int(f.Pin), f.SA)
		} else {
			out = evalGate5(g, vals)
		}
		if f.Gate == gi && f.Pin == PinOut {
			out.f = v3(f.SA)
		}
		vals[g.Out] = out
	}
	return vals
}

// checkRegionShape asserts the structural contract of the relevant
// region: it holds the cone, the fault site's driver and every coneObs
// driver, it is closed under fan-in, and its marks match its list.
func checkRegionShape(t *testing.T, name string, p *podem) {
	t.Helper()
	driver := p.t.fl.GateDriver
	marked := 0
	for _, m := range p.inRegion {
		if m {
			marked++
		}
	}
	if marked != len(p.region) {
		t.Fatalf("%s %v: %d gates marked, region lists %d", name, p.fault, marked, len(p.region))
	}
	for _, gi := range p.cone {
		if !p.inRegion[gi] {
			t.Fatalf("%s %v: cone gate %d outside the region", name, p.fault, gi)
		}
	}
	if d := driver[p.faultSiteNet()]; d >= 0 && !p.inRegion[d] {
		t.Fatalf("%s %v: site driver %d outside the region", name, p.fault, d)
	}
	for _, o := range p.coneObs {
		if d := driver[o]; d < 0 || !p.inRegion[d] {
			t.Fatalf("%s %v: observable net %d not driven from the region", name, p.fault, o)
		}
	}
	for _, gi := range p.region {
		for _, in := range p.n.Gates[gi].In {
			if d := driver[in]; d >= 0 && !p.inRegion[d] {
				t.Fatalf("%s %v: region gate %d reads net %d driven by gate %d outside the region", name, p.fault, gi, in, d)
			}
		}
	}
}

// TestRegionSoundness is the property behind cone-restricted implication.
// On every library class, for random faults and random partial control
// assignments applied through setAssign, every net inside the relevant
// region equals a from-scratch full 5-valued implication. Between faults
// the engine either keeps the random assignment or runs a real search, and
// the next retarget must restore the exact all-X fixpoint on the whole
// netlist, stale values outside the old region included.
func TestRegionSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	values := [...]v3{v0, v1, vX}
	for _, c := range libraryClasses(t) {
		topo := newSimTopo(c.comp.Seq)
		n := topo.n
		u := NewUniverse(n)
		eng := newPodem(topo, 200)
		for trial := 0; trial < 24; trial++ {
			f := u.Faults[rng.Intn(len(u.Faults))]
			eng.retarget(f)
			eng.buildCone()
			eng.buildRegion()
			ref := fullImply5(topo, eng.assign, f)
			for net := range ref {
				if eng.vals[net] != ref[net] {
					t.Fatalf("%s %v: after retarget net %d = %v, full implication %v", c.name, f, net, eng.vals[net], ref[net])
				}
			}
			checkRegionShape(t, c.name, eng)

			// Controls feeding the region, where assignments matter.
			var ctrls []int
			for ci, net := range topo.ctrl {
				for i, e := eng.fanStart[net], eng.fanStart[net+1]; i < e; i++ {
					if eng.inRegion[eng.fanGate[i]] {
						ctrls = append(ctrls, ci)
						break
					}
				}
			}
			for step := 0; step < 24; step++ {
				ci := rng.Intn(len(topo.ctrl))
				if len(ctrls) > 0 && rng.Intn(4) > 0 {
					ci = ctrls[rng.Intn(len(ctrls))]
				}
				eng.setAssign(ci, values[rng.Intn(len(values))])
				ref := fullImply5(topo, eng.assign, f)
				for _, gi := range eng.region {
					out := n.Gates[gi].Out
					if eng.vals[out] != ref[out] {
						t.Fatalf("%s %v step %d: region net %d = %v, full implication %v", c.name, f, step, out, eng.vals[out], ref[out])
					}
				}
			}
			if trial%2 == 1 {
				eng.generate(f) // leave a real search state behind
			}
		}
	}
}

// TestRippleAbortsHaveNoObservableCone pins the cost diagnosis behind the
// cone restriction: every fault alu16_ripple aborts at seed 7 sits on
// logic whose static fanout reaches no observable (the ripple adder's
// carry-out, which the ALU discards), so its search runs to the backtrack
// limit without any hope of success. Run does not report which faults it
// aborted, so the test replays the random phase and generates for every
// fault it leaves; the aborts found must match Run's count. If a generator
// change makes the carry-out observable, this fails.
func TestRippleAbortsHaveNoObservableCone(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	cfg := Config{Seed: 7, Workers: 1}.withDefaults()
	res, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Fatal("alu16_ripple aborts no fault at seed 7; the cost diagnosis no longer holds")
	}

	u := NewUniverse(n)
	topo := newSimTopo(n)
	detected := make([]bool, len(u.Faults))
	scratch := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	randomPhase(context.Background(), newSimPool(topo, 64, 1), u, cfg, detected, scratch, &runMetrics{}, budget{})
	eng := newPodem(topo, cfg.BacktrackLimit)
	var aborted []Fault
	for fi, f := range u.Faults {
		if detected[fi] {
			continue
		}
		if _, outcome := eng.generate(f); outcome == podemAborted {
			aborted = append(aborted, f)
		}
	}
	if len(aborted) != res.Aborted {
		t.Fatalf("replay aborts %d faults, Run reports %d", len(aborted), res.Aborted)
	}
	for _, f := range aborted {
		if reachesObservable(topo, f.Gate) {
			t.Errorf("aborted fault %v reaches an observable", f)
		}
	}
}

// reachesObservable walks the static fanout of gate gi and reports whether
// any gate in it drives an observable net.
func reachesObservable(t *simTopo, gi int32) bool {
	seen := make([]bool, len(t.n.Gates))
	stack := []int32{gi}
	seen[gi] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := t.n.Gates[g].Out
		if len(t.obsOfNet[out]) > 0 {
			return true
		}
		for i, e := t.fl.FanStart[out], t.fl.FanStart[out+1]; i < e; i++ {
			if fg := t.fl.FanGate[i]; !seen[fg] {
				seen[fg] = true
				stack = append(stack, fg)
			}
		}
	}
	return false
}
