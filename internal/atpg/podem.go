package atpg

import (
	"repro/internal/netlist"
)

// podemOutcome classifies the result of a deterministic generation attempt.
type podemOutcome uint8

// PODEM outcomes.
const (
	podemFound podemOutcome = iota
	podemRedundant
	podemAborted
)

// podem holds the working state of one PODEM run. PODEM assigns values only
// to controllable points; every assignment is followed by a full 5-valued
// forward implication, so the state is always consistent.
type podem struct {
	n          *netlist.Netlist
	t          *simTopo
	fault      Fault
	vals       []val5 // per net
	assign     []v3   // per controllable point
	ctrlOf     []int32
	limit      int
	backtracks int

	// CSR fanout (shared, read-only): the gates reading net x are
	// fanGate[fanStart[x]:fanStart[x+1]].
	fanStart []int32
	fanGate  []int32
	// Engine-lifetime totals across every generate call, reported to the
	// observability registry by the ATPG driver.
	totalDecisions  int64
	totalBacktracks int64
	// scoap, when non-nil, guides input choices toward the cheapest
	// controllability (the classic SCOAP-guided backtrace ablation).
	scoap *Scoap

	// Scratch for the X-path check and the frontier scan.
	frontier []int32
	xVisited []bool
	xStack   []int32
	xTouched []int32

	// Reusable decision stack (one entry per live assignment).
	stack []decision

	// Static fanout cone of the current fault site (topo-sorted, fault
	// gate first): the only region where a fault effect can live, so the
	// frontier scan and the test-found check walk it instead of the whole
	// netlist. Rebuilt once per generate call.
	cone    []int32
	coneObs []netlist.Net // observable nets inside the cone

	// Relevant region of the current fault gate: the cone plus its
	// transitive fan-in. Every value the search reads lies inside it and
	// it is closed under fan-in, so propagate skips gates outside it
	// without changing a single value inside (see buildRegion). Rebuilt
	// once per generate call, next to the cone.
	region   []int32
	inRegion []bool

	// Scratch for incremental implication: per-level pending buckets and
	// their membership marks. Every fanout edge ends at a strictly higher
	// logic level, so draining the buckets level by level visits gates in
	// a valid topological order with O(1) enqueue and dequeue; gates on
	// the same level never feed each other, so intra-level order cannot
	// affect the fixpoint. The levels are the netlist's own (Flat.GateLevel,
	// shared read-only) — any level function with the strict-climb property
	// reaches the same fixpoint.
	levelOf []int32   // gate -> logic level (shared with netlist.Flat)
	buckets [][]int32 // pending gates per level
	inQ     []bool
}

type decision struct {
	ctrl    int
	value   v3
	flipped bool
}

// newPodem prepares a PODEM engine bound to a shared structural view. The
// view is read-only; any number of engines can bind the same simTopo
// concurrently.
func newPodem(t *simTopo, limit int) *podem {
	n := t.n
	p := &podem{
		n:        n,
		t:        t,
		vals:     make([]val5, n.NumNets()),
		assign:   make([]v3, len(t.ctrl)),
		ctrlOf:   make([]int32, n.NumNets()),
		limit:    limit,
		fanStart: t.fl.FanStart,
		fanGate:  t.fl.FanGate,
	}
	for i := range p.ctrlOf {
		p.ctrlOf[i] = -1
	}
	for ci, net := range t.ctrl {
		p.ctrlOf[net] = int32(ci)
	}
	p.xVisited = make([]bool, len(n.Gates))
	p.inQ = make([]bool, len(n.Gates))
	p.inRegion = make([]bool, len(n.Gates))
	p.levelOf = t.fl.GateLevel
	p.buckets = make([][]int32, t.fl.NumLevels)
	// Establish the fault-free all-X fixpoint; generate maintains it
	// incrementally from here on (fault.Gate == -1 means "no injection" —
	// real gate indices are non-negative).
	p.fault = Fault{Gate: -1}
	for i := range p.vals {
		p.vals[i] = vvX
	}
	for _, gi := range n.TopoOrder() {
		p.vals[n.Gates[gi].Out] = p.evalFaultGate(gi)
	}
	return p
}

// xPathExists reports whether a path of X-valued gate outputs connects any
// frontier gate to an observable point — the classic PODEM pruning rule: a
// fault effect that cannot possibly reach an output under the current
// assignment warrants an immediate backtrack.
func (p *podem) xPathExists() bool {
	stack := p.xStack[:0]
	visited := p.xVisited
	touched := p.xTouched[:0]
	found := false
	// A frontier gate's own output is a candidate origin (it is X).
	for _, gi := range p.frontier {
		if !visited[gi] {
			visited[gi] = true
			touched = append(touched, gi)
			stack = append(stack, gi)
		}
	}
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := p.n.Gates[gi].Out
		if len(p.t.obsOfNet[out]) > 0 {
			found = true
			break
		}
		for i, e := p.fanStart[out], p.fanStart[out+1]; i < e; i++ {
			fg := p.fanGate[i]
			if visited[fg] {
				continue
			}
			g := &p.n.Gates[fg]
			v := p.vals[g.Out]
			if v.g != vX && v.f != vX {
				continue // fully determined; a fault effect cannot pass
			}
			visited[fg] = true
			touched = append(touched, fg)
			stack = append(stack, fg)
		}
	}
	for _, gi := range touched {
		visited[gi] = false
	}
	p.xTouched = touched[:0]
	p.xStack = stack[:0]
	return found
}

// generate attempts to derive a test for the fault. On success it returns
// the 3-valued controllable assignment (vX entries are don't-cares).
//
// Implication is incremental: the all-X base state is implied once with a
// full forward pass, then every decision, flip and unassignment propagates
// only through the fanout of the changed control inside the fault's
// relevant region (values inside the region are byte-identical to a full
// re-implication — gate evaluation is a pure function of the inputs over a
// DAG, propagation in topological order with change pruning reaches the
// same fixpoint, and the region is closed under fan-in).
func (p *podem) generate(f Fault) ([]v3, podemOutcome) {
	// Return to the all-X base state incrementally: whatever the previous
	// call left behind is unwound and the injected fault swapped in a
	// single drain — only the affected cones are re-evaluated, never the
	// full netlist.
	p.retarget(f)
	p.backtracks = 0
	p.buildCone()
	p.buildRegion()
	stack := p.stack[:0]

	for {
		if p.testFound() {
			out := make([]v3, len(p.assign))
			copy(out, p.assign)
			p.stack = stack
			return out, podemFound
		}
		objNet, objVal, ok := p.objective()
		if ok {
			if ci, v, ok2 := p.backtrace(objNet, objVal); ok2 {
				p.setAssign(ci, v)
				stack = append(stack, decision{ctrl: ci, value: v})
				p.totalDecisions++
				continue
			}
		}
		// Conflict: flip the most recent unflipped decision.
		flipped := false
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.value = notV3(top.value)
				p.setAssign(top.ctrl, top.value)
				flipped = true
				break
			}
			p.setAssign(top.ctrl, vX)
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			p.stack = stack
			return nil, podemRedundant
		}
		p.backtracks++
		p.totalBacktracks++
		if p.backtracks > p.limit {
			p.stack = stack
			return nil, podemAborted
		}
	}
}

// buildCone collects the static fanout cone of the fault gate (the fault
// gate first, then its transitive fanout in topological order) and the
// observable nets inside it — the only region a fault effect can reach.
func (p *podem) buildCone() {
	marked := p.inQ // reuse the propagation marks; cleared before return
	cone := p.cone[:0]
	cone = append(cone, p.fault.Gate)
	marked[p.fault.Gate] = true
	for qi := 0; qi < len(cone); qi++ {
		out := p.n.Gates[cone[qi]].Out
		for i, e := p.fanStart[out], p.fanStart[out+1]; i < e; i++ {
			fg := p.fanGate[i]
			if !marked[fg] {
				marked[fg] = true
				cone = insertByTopo(cone, qi, fg, p.t.topoPos)
			}
		}
	}
	obs := p.coneObs[:0]
	for _, gi := range cone {
		out := p.n.Gates[gi].Out
		if len(p.t.obsOfNet[out]) > 0 {
			obs = append(obs, out)
		}
		marked[gi] = false
	}
	p.cone = cone
	p.coneObs = obs
}

// buildRegion marks the relevant region of the fault gate: the cone plus
// its transitive fan-in. Everything the search reads lies inside it — the
// fault site, the frontier gates and their side inputs, the X-path
// corridor (all in the cone), the backtrace path (fan-in of those) and
// coneObs — and every input of a region gate is driven by a region gate or
// a control. So propagate may skip gates outside the region: the values
// inside are exactly those of a full implication, and the search takes
// the same decisions and backtracks.
//
// Values outside the region go stale during a generate call, yet retarget
// (which unwinds through the full fanout) still restores the exact all-X
// fixpoint for the next fault: a gate outside the region reads no net of
// the old fault's cone, so all its inputs are fault-free; the good
// component of a net does not depend on the injected fault, so a
// fault-free input that already holds its new all-X value also held it
// when the stale gate was last evaluated. A stale gate whose inputs do
// not move in the drain therefore already holds its target value.
func (p *podem) buildRegion() {
	inRegion, driver := p.inRegion, p.t.fl.GateDriver
	for _, gi := range p.region {
		inRegion[gi] = false
	}
	region := append(p.region[:0], p.cone...)
	for _, gi := range region {
		inRegion[gi] = true
	}
	for qi := 0; qi < len(region); qi++ {
		for _, in := range p.n.Gates[region[qi]].In {
			if d := driver[in]; d >= 0 && !inRegion[d] {
				inRegion[d] = true
				region = append(region, d)
			}
		}
	}
	p.region = region
}

// retarget returns the engine to the all-X fixpoint under fault f without
// a full re-implication: every control the previous call left assigned is
// reset to X, the old fault gate is de-injected and the new one injected,
// and all of it settles in ONE level-ordered drain (seeding every affected
// gate first means no cone is walked twice, unlike unassigning controls
// one by one).
func (p *podem) retarget(f Fault) {
	inQ, levelOf, buckets := p.inQ, p.levelOf, p.buckets
	lo := int32(len(buckets))
	hi := int32(-1)
	push := func(gi int32) {
		if inQ[gi] {
			return
		}
		inQ[gi] = true
		l := levelOf[gi]
		buckets[l] = append(buckets[l], gi)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	for ci := range p.assign {
		if p.assign[ci] == vX {
			continue
		}
		p.assign[ci] = vX
		net := p.t.ctrl[ci]
		p.vals[net] = vvX
		for i, e := p.fanStart[net], p.fanStart[net+1]; i < e; i++ {
			push(p.fanGate[i])
		}
	}
	// Enqueued gates are always re-evaluated (pruning only skips their
	// fanout when the output is unchanged), so seeding both fault gates
	// swaps the injection even where net values happen not to move.
	oldGate := p.fault.Gate
	p.fault = f
	if oldGate >= 0 {
		push(oldGate)
	}
	push(f.Gate)
	for l := lo; l <= hi; l++ {
		b := buckets[l]
		for _, gi := range b {
			inQ[gi] = false
			out := p.evalFaultGate(gi)
			g := &p.n.Gates[gi]
			if out == p.vals[g.Out] {
				continue
			}
			p.vals[g.Out] = out
			for i, e := p.fanStart[g.Out], p.fanStart[g.Out+1]; i < e; i++ {
				push(p.fanGate[i])
			}
		}
		buckets[l] = b[:0]
	}
}

// evalFaultGate evaluates gate gi under the current values with the
// fault's injection rules applied (forced input pin or forced faulty
// output component).
func (p *podem) evalFaultGate(gi int32) val5 {
	g := &p.n.Gates[gi]
	var out val5
	if p.fault.Gate == gi && p.fault.Pin >= 0 {
		out = evalGate5Pin(g, p.vals, int(p.fault.Pin), p.fault.SA)
	} else {
		out = evalGate5(g, p.vals)
	}
	if p.fault.Gate == gi && p.fault.Pin == PinOut {
		out.f = v3(p.fault.SA)
	}
	return out
}

// setAssign sets controllable ci to v and incrementally re-implies: the
// new value propagates level by level through the fanout of the control
// net, pruning subtrees whose gate output is unchanged. A gate is only
// enqueued at a level strictly above the one being drained, so every gate
// is evaluated at most once, after all of its dirty inputs settled.
func (p *podem) setAssign(ci int, v v3) {
	p.assign[ci] = v
	net := p.t.ctrl[ci]
	nv := val5{v, v}
	if p.vals[net] == nv {
		return
	}
	p.vals[net] = nv
	p.propagate(net)
}

// propagate forwards a changed value on net through its transitive fanout
// inside the relevant region using the per-level pending buckets. The
// enqueue is written out inline (twice) rather than through a closure:
// this is the hottest loop in PODEM and the closure call alone showed up
// with double-digit flat time.
func (p *podem) propagate(net netlist.Net) {
	inQ, inRegion, levelOf, buckets := p.inQ, p.inRegion, p.levelOf, p.buckets
	faultGate := p.fault.Gate
	lo := int32(len(buckets))
	hi := int32(-1)
	for i, e := p.fanStart[net], p.fanStart[net+1]; i < e; i++ {
		gi := p.fanGate[i]
		if inQ[gi] || !inRegion[gi] {
			continue
		}
		inQ[gi] = true
		l := levelOf[gi]
		buckets[l] = append(buckets[l], gi)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	for l := lo; l <= hi; l++ {
		b := buckets[l]
		for _, gi := range b {
			inQ[gi] = false
			g := &p.n.Gates[gi]
			var out val5
			if gi != faultGate {
				out = evalGate5(g, p.vals)
			} else {
				out = p.evalFaultGate(gi)
			}
			if out == p.vals[g.Out] {
				continue
			}
			p.vals[g.Out] = out
			for i, e := p.fanStart[g.Out], p.fanStart[g.Out+1]; i < e; i++ {
				fg := p.fanGate[i]
				if inQ[fg] || !inRegion[fg] {
					continue
				}
				inQ[fg] = true
				fl := levelOf[fg]
				buckets[fl] = append(buckets[fl], fg)
				// fl > l always (every fanout edge climbs levels), so only
				// the high-water mark can move.
				if fl > hi {
					hi = fl
				}
			}
		}
		buckets[l] = b[:0]
	}
}

func evalGate5(g *netlist.Gate, vals []val5) val5 {
	switch g.Type {
	case netlist.Const0:
		return vv0
	case netlist.Const1:
		return vv1
	case netlist.Buf:
		return vals[g.In[0]]
	case netlist.Not:
		v := vals[g.In[0]]
		return dec5Tab[not5Tab[enc5(v)]]
	case netlist.And, netlist.Nand:
		acc := enc5(vv1)
		for _, in := range g.In {
			acc = and5Tab[uint(acc)*9+uint(enc5(vals[in]))]
		}
		if g.Type == netlist.Nand {
			acc = not5Tab[acc]
		}
		return dec5Tab[acc]
	case netlist.Or, netlist.Nor:
		acc := enc5(vv0)
		for _, in := range g.In {
			acc = or5Tab[uint(acc)*9+uint(enc5(vals[in]))]
		}
		if g.Type == netlist.Nor {
			acc = not5Tab[acc]
		}
		return dec5Tab[acc]
	case netlist.Xor, netlist.Xnor:
		acc := enc5(vv0)
		for _, in := range g.In {
			acc = xor5Tab[uint(acc)*9+uint(enc5(vals[in]))]
		}
		if g.Type == netlist.Xnor {
			acc = not5Tab[acc]
		}
		return dec5Tab[acc]
	default: // Mux2
		sel, a0, a1 := vals[g.In[0]], vals[g.In[1]], vals[g.In[2]]
		return val5{muxV3(sel.g, a0.g, a1.g), muxV3(sel.f, a0.f, a1.f)}
	}
}

// evalGate5Pin evaluates a gate whose input pin carries the fault: the
// faulty component of that pin is forced to the stuck value. The forcing
// is substituted inline while folding over the inputs — no temporary
// input copy, no allocation.
func evalGate5Pin(g *netlist.Gate, vals []val5, pin int, sa uint8) val5 {
	fv := v3(sa)
	pinVal := func(i int) val5 {
		v := vals[g.In[i]]
		if i == pin {
			v.f = fv
		}
		return v
	}
	switch g.Type {
	case netlist.Buf:
		return pinVal(0)
	case netlist.Not:
		v := pinVal(0)
		return val5{notV3(v.g), notV3(v.f)}
	case netlist.And, netlist.Nand:
		acc := val5{v1, v1}
		for i := range g.In {
			v := pinVal(i)
			acc = val5{andV3(acc.g, v.g), andV3(acc.f, v.f)}
		}
		if g.Type == netlist.Nand {
			acc = val5{notV3(acc.g), notV3(acc.f)}
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := val5{v0, v0}
		for i := range g.In {
			v := pinVal(i)
			acc = val5{orV3(acc.g, v.g), orV3(acc.f, v.f)}
		}
		if g.Type == netlist.Nor {
			acc = val5{notV3(acc.g), notV3(acc.f)}
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := val5{v0, v0}
		for i := range g.In {
			v := pinVal(i)
			acc = val5{xorV3(acc.g, v.g), xorV3(acc.f, v.f)}
		}
		if g.Type == netlist.Xnor {
			acc = val5{notV3(acc.g), notV3(acc.f)}
		}
		return acc
	case netlist.Mux2:
		sel, a0, a1 := pinVal(0), pinVal(1), pinVal(2)
		return val5{muxV3(sel.g, a0.g, a1.g), muxV3(sel.f, a0.f, a1.f)}
	default:
		// Constants carry no input pins; fall back to the plain evaluation.
		return evalGate5(g, vals)
	}
}

// testFound reports whether a fault effect has reached an observable point.
// Only observables inside the fault cone can carry one.
func (p *podem) testFound() bool {
	for _, o := range p.coneObs {
		if p.vals[o].hasFaultEffect() {
			return true
		}
	}
	return false
}

// objective returns the next (net, value) goal: activate the fault if it is
// not activated yet, otherwise advance the D-frontier.
func (p *podem) objective() (netlist.Net, v3, bool) {
	site := p.faultSiteNet()
	sv := p.vals[site]
	want := notV3(v3(p.fault.SA))
	if sv.g == vX {
		return site, want, true
	}
	if sv.g != want {
		return 0, v0, false // activation impossible under current assignment
	}
	// D-frontier: every gate with a fault effect on an input and an
	// unknown output; the objective advances the deepest member. Fault
	// effects only exist inside the fault cone, which buildCone keeps in
	// topological order — so scanning it visits the same gates in the
	// same order as a whole-netlist scan would.
	n := p.n
	p.frontier = p.frontier[:0]
	for _, gi := range p.cone {
		g := &n.Gates[gi]
		if p.vals[g.Out].g != vX && p.vals[g.Out].f != vX {
			continue
		}
		hasD := false
		for _, in := range g.In {
			if p.vals[in].hasFaultEffect() {
				hasD = true
				break
			}
		}
		// An input-pin fault makes its own gate part of the frontier even
		// though no net carries a fault effect yet.
		if gi == p.fault.Gate && p.fault.Pin >= 0 {
			hasD = true
		}
		if hasD {
			p.frontier = append(p.frontier, gi)
		}
	}
	if len(p.frontier) == 0 {
		return 0, v0, false
	}
	// X-path pruning: if no all-X corridor links the frontier to an
	// observable, this branch is hopeless.
	if !p.xPathExists() {
		return 0, v0, false
	}
	return p.frontierObjective(p.frontier[len(p.frontier)-1])
}

// frontierObjective chooses the side input and value needed to propagate a
// fault effect through the gate.
func (p *podem) frontierObjective(gi int32) (netlist.Net, v3, bool) {
	g := &p.n.Gates[gi]
	dpin := int8(-1) // pseudo-D pin for an input-pin fault on this gate
	if gi == p.fault.Gate && p.fault.Pin >= 0 {
		dpin = p.fault.Pin
	}
	switch g.Type {
	case netlist.And, netlist.Nand:
		return p.firstXInput(g, v1)
	case netlist.Or, netlist.Nor:
		return p.firstXInput(g, v0)
	case netlist.Xor, netlist.Xnor:
		return p.firstXInput(g, v0)
	case netlist.Mux2:
		sel, a0, a1 := p.vals[g.In[0]], p.vals[g.In[1]], p.vals[g.In[2]]
		switch {
		case (a0.hasFaultEffect() || dpin == 1) && sel.g == vX:
			return g.In[0], v0, true
		case (a1.hasFaultEffect() || dpin == 2) && sel.g == vX:
			return g.In[0], v1, true
		case sel.hasFaultEffect() || dpin == 0:
			// Data inputs must differ to propagate a select fault.
			if a0.g == vX {
				if a1.g != vX {
					return g.In[1], notV3(a1.g), true
				}
				return g.In[1], v0, true
			}
			if a1.g == vX {
				return g.In[2], notV3(a0.g), true
			}
			return 0, v0, false
		default:
			return 0, v0, false
		}
	default:
		return 0, v0, false
	}
}

func (p *podem) firstXInput(g *netlist.Gate, want v3) (netlist.Net, v3, bool) {
	best := netlist.InvalidNet
	bestCost := int32(1) << 30
	for _, in := range g.In {
		if p.vals[in].g != vX || p.vals[in].hasFaultEffect() {
			continue
		}
		if p.scoap == nil {
			return in, want, true
		}
		cost := p.scoap.CC1[in]
		if want == v0 {
			cost = p.scoap.CC0[in]
		}
		if cost < bestCost {
			bestCost = cost
			best = in
		}
	}
	if best == netlist.InvalidNet {
		return 0, v0, false
	}
	return best, want, true
}

// faultSiteNet returns the net whose good value must be set opposite to the
// stuck value to activate the fault.
func (p *podem) faultSiteNet() netlist.Net {
	g := &p.n.Gates[p.fault.Gate]
	if p.fault.Pin == PinOut {
		return g.Out
	}
	return g.In[p.fault.Pin]
}

// backtrace walks an objective (net, value) backwards through X paths to an
// unassigned controllable point and returns the implied assignment.
func (p *podem) backtrace(net netlist.Net, want v3) (int, v3, bool) {
	n := p.n
	for {
		if ci := p.ctrlOf[net]; ci >= 0 {
			if p.assign[ci] != vX {
				return 0, v0, false
			}
			return int(ci), want, true
		}
		drv := n.Driver(net)
		if drv.Kind != netlist.DriverGate {
			return 0, v0, false
		}
		g := &n.Gates[drv.Index]
		switch g.Type {
		case netlist.Const0, netlist.Const1:
			return 0, v0, false
		case netlist.Buf:
			net = g.In[0]
		case netlist.Not:
			net = g.In[0]
			want = notV3(want)
		case netlist.And, netlist.Or:
			in, ok := p.pickXInput(g)
			if !ok {
				return 0, v0, false
			}
			net = in
		case netlist.Nand, netlist.Nor:
			in, ok := p.pickXInput(g)
			if !ok {
				return 0, v0, false
			}
			net = in
			want = notV3(want)
		case netlist.Xor, netlist.Xnor:
			in, ok := p.pickXInput(g)
			if !ok {
				return 0, v0, false
			}
			// Desired parity of the chosen input given known co-inputs
			// (unknown co-inputs counted as 0 — heuristic, validated by the
			// following implication).
			acc := want
			if g.Type == netlist.Xnor {
				acc = notV3(acc)
			}
			for _, other := range g.In {
				if other == in {
					continue
				}
				if v := p.vals[other].g; v == v1 {
					acc = notV3(acc)
				}
			}
			net = in
			want = acc
		case netlist.Mux2:
			sel := p.vals[g.In[0]]
			switch sel.g {
			case v0:
				net = g.In[1]
			case v1:
				net = g.In[2]
			default:
				// Prefer steering toward a data input that already has the
				// wanted value; otherwise resolve the select first.
				if p.vals[g.In[1]].g == want {
					net, want = g.In[0], v0
				} else if p.vals[g.In[2]].g == want {
					net, want = g.In[0], v1
				} else if p.vals[g.In[1]].g == vX {
					net = g.In[1]
				} else if p.vals[g.In[2]].g == vX {
					net = g.In[2]
				} else {
					net = g.In[0]
					want = v0
				}
			}
		default:
			return 0, v0, false
		}
	}
}

// insertByTopo inserts gate gi into cone (topologically sorted beyond
// position qi), keeping the order. Fanout edges always point forward, so
// insertion never lands at or before qi.
func insertByTopo(cone []int32, qi int, gi int32, topoPos []int32) []int32 {
	pos := len(cone)
	for pos > qi+1 && topoPos[cone[pos-1]] > topoPos[gi] {
		pos--
	}
	cone = append(cone, 0)
	copy(cone[pos+1:], cone[pos:])
	cone[pos] = gi
	return cone
}

// pickXInput returns an input with unknown good value — the first one, or
// the cheapest-to-control one under SCOAP guidance.
func (p *podem) pickXInput(g *netlist.Gate) (netlist.Net, bool) {
	best := netlist.InvalidNet
	bestCost := int32(1) << 30
	for _, in := range g.In {
		if p.vals[in].g != vX {
			continue
		}
		if p.scoap == nil {
			return in, true
		}
		cost := p.scoap.CC0[in]
		if p.scoap.CC1[in] < cost {
			cost = p.scoap.CC1[in]
		}
		if cost < bestCost {
			bestCost = cost
			best = in
		}
	}
	if best == netlist.InvalidNet {
		return 0, false
	}
	return best, true
}
