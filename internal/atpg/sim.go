package atpg

import (
	"math/bits"

	"repro/internal/netlist"
)

// Pattern is a fully specified test vector: one 0/1 value per controllable
// point, in Simulator.Controllables order (primary inputs first, then
// flip-flop Q outputs).
type Pattern []uint8

// Clone returns a copy of the pattern.
func (p Pattern) Clone() Pattern { return append(Pattern(nil), p...) }

// simTopo is the read-only structural view shared by the fault simulator
// and the PODEM engine over one netlist: controllable/observable points,
// the flat SoA netlist view, and the derived slot-indexed tables. It is
// built once per RunContext (or NewSimulator) and shared by every engine
// of the run; nothing in it is written after construction, so engines
// on different goroutines may share it too.
type simTopo struct {
	n  *netlist.Netlist
	fl *netlist.Flat

	ctrl     []netlist.Net
	obs      []netlist.Net
	obsOfNet [][]int32 // observable indices listening on each net
	topoPos  []int32   // gate -> position in TopoOrder (PODEM cone order)

	slotLevel []int32 // slot -> logic level
	fanSlot   []int32 // CSR fanout targets as slots (parallel to Flat.FanGate)
}

func newSimTopo(n *netlist.Netlist) *simTopo {
	fl := n.Flat()
	t := &simTopo{n: n, fl: fl}
	t.ctrl = append(t.ctrl, n.PIs...)
	for _, ff := range n.FFs {
		t.ctrl = append(t.ctrl, ff.Q)
	}
	t.obs = append(t.obs, n.POs...)
	for _, ff := range n.FFs {
		t.obs = append(t.obs, ff.D)
	}
	t.obsOfNet = make([][]int32, n.NumNets())
	for oi, net := range t.obs {
		t.obsOfNet[net] = append(t.obsOfNet[net], int32(oi))
	}
	t.topoPos = make([]int32, len(n.Gates))
	for pos, gi := range n.TopoOrder() {
		t.topoPos[gi] = int32(pos)
	}
	t.slotLevel = make([]int32, len(fl.Order))
	for s, gi := range fl.Order {
		t.slotLevel[s] = fl.GateLevel[gi]
	}
	t.fanSlot = make([]int32, len(fl.FanGate))
	for i, gi := range fl.FanGate {
		t.fanSlot[i] = fl.SlotOf[gi]
	}
	return t
}

// Simulator is the 64-lane parallel-pattern serial-fault simulator over
// the full-scan view of a netlist: one pattern per bit of a uint64 word
// per net. Every ATPG phase runs on it, and so do bist, tdf and the
// functional-test flow. Fault evaluation is cone-restricted and
// event-driven: only gates in the transitive fanout of the fault site are
// re-evaluated, scheduled through per-level pending buckets with a
// level-activity bitmap, so quiescent cone regions (levels where every
// difference already died) are skipped without being scanned.
type Simulator struct {
	t    *simTopo
	good []uint64 // per-net fault-free values
	// cur holds the faulty-machine values: equal to good outside the most
	// recently evaluated cone, so gate evaluation reads inputs directly
	// with no per-pin source selection. The cone is repaired back to good
	// lazily, at the start of the next Detects (or block load), which
	// keeps the faulty response readable between calls.
	cur   []uint64
	valid uint64 // mask of lanes carrying real patterns

	// Scratch state, reused across faults.
	inCone  []bool    // slot was queued for the current cone walk
	coneBuf []int32   // slots evaluated by the most recent Detects, push order
	buckets [][]int32 // pending slots per level
	active  []uint64  // bitmap of levels with a non-empty bucket
}

// NewSimulator prepares a simulator for the netlist.
func NewSimulator(n *netlist.Netlist) *Simulator { return newSimulator(newSimTopo(n)) }

func newSimulator(t *simTopo) *Simulator {
	nn := t.n.NumNets()
	return &Simulator{
		t:       t,
		good:    make([]uint64, nn),
		cur:     make([]uint64, nn),
		inCone:  make([]bool, len(t.fl.Order)),
		buckets: make([][]int32, t.fl.NumLevels),
		active:  make([]uint64, (t.fl.NumLevels+63)/64),
	}
}

// Controllables returns the controllable points in pattern order.
func (s *Simulator) Controllables() []netlist.Net { return s.t.ctrl }

// Observables returns the observable points (POs then FF D nets).
func (s *Simulator) Observables() []netlist.Net { return s.t.obs }

// NumControls returns the pattern width.
func (s *Simulator) NumControls() int { return len(s.t.ctrl) }

// LoadBlock loads up to 64 patterns (lane k = pats[k]) and evaluates the
// fault-free circuit.
func (s *Simulator) LoadBlock(pats []Pattern) {
	if len(pats) > 64 {
		pats = pats[:64]
	}
	s.valid = ^uint64(0) >> uint(64-len(pats)) // 0 for an empty block
	for ci, net := range s.t.ctrl {
		var w uint64
		for k, p := range pats {
			if p[ci] != 0 {
				w |= 1 << uint(k)
			}
		}
		s.good[net] = w
	}
	s.evalGood()
}

// loadWords loads a full block already in transposed form: words[ci] is
// the 64-lane word of controllable ci. The random phase generates pattern
// words directly in this layout, so the byte-matrix transpose of
// LoadBlock is skipped entirely.
func (s *Simulator) loadWords(words []uint64) {
	s.valid = ^uint64(0)
	for ci, net := range s.t.ctrl {
		s.good[net] = words[ci]
	}
	s.evalGood()
}

// evalGood evaluates the fault-free circuit over the loaded controllable
// words and resets the faulty machine and the cone scratch to it.
func (s *Simulator) evalGood() {
	s.t.fl.Eval64(s.good)
	copy(s.cur, s.good)
	for _, gs := range s.coneBuf {
		s.inCone[gs] = false
	}
	s.coneBuf = s.coneBuf[:0]
}

// Detects simulates the fault against the currently loaded block and
// returns the lane mask of patterns whose observable response differs from
// the fault-free circuit. Only the fault's fanout cone is re-evaluated; a
// difference that reconverges to the good value prunes its subtree.
func (s *Simulator) Detects(f Fault) uint64 {
	t := s.t
	fl := t.fl
	// Lazily repair the previous fault's cone: cur returns to the good
	// machine before any of it is read.
	for _, gs := range s.coneBuf {
		outN := fl.Out[gs]
		s.cur[outN] = s.good[outN]
		s.inCone[gs] = false
	}
	s.coneBuf = s.coneBuf[:0]

	slot0 := fl.SlotOf[f.Gate]
	var out0 uint64
	if f.Pin >= 0 {
		// The root gate's inputs are all fault-free.
		lo, hi := fl.PinStart[slot0], fl.PinStart[slot0+1]
		out0 = evalPin(fl.Type[slot0], fl.Pins[lo:hi], s.good, int(f.Pin), f.SA)
	} else if f.SA == 1 {
		out0 = ^uint64(0)
	}
	outNet := fl.Out[slot0]
	if out0 == s.good[outNet] {
		return 0 // fault never excited in this block
	}

	cone := s.coneBuf[:0]
	cone = append(cone, slot0)
	s.inCone[slot0] = true
	s.cur[outNet] = out0
	var diff uint64
	if len(t.obsOfNet[outNet]) > 0 {
		diff = out0 ^ s.good[outNet]
	}

	active, bkts, fanSlot, slotLevel := s.active, s.buckets, t.fanSlot, t.slotLevel
	loWord := len(active)
	for i, e := fl.FanStart[outNet], fl.FanStart[outNet+1]; i < e; i++ {
		ns := fanSlot[i]
		if s.inCone[ns] {
			continue
		}
		s.inCone[ns] = true
		cone = append(cone, ns)
		nl := slotLevel[ns]
		bkts[nl] = append(bkts[nl], ns)
		w := int(nl >> 6)
		active[w] |= 1 << (uint(nl) & 63)
		if w < loWord {
			loWord = w
		}
	}

	// Drain levels in ascending order. Fanout edges climb strictly, so a
	// level's bucket is complete before its bit is consumed, every slot is
	// evaluated exactly once after all its dirty drivers settled, and the
	// bitmap scan steps straight over quiescent level ranges.
	for wi := loWord; wi < len(active); wi++ {
		for active[wi] != 0 {
			bit := bits.TrailingZeros64(active[wi])
			active[wi] &^= 1 << uint(bit)
			l := int32(wi<<6 | bit)
			b := bkts[l]
			for _, gs := range b {
				out := evalSlot(fl, gs, s.cur)
				outN := fl.Out[gs]
				s.cur[outN] = out
				live := out ^ s.good[outN]
				if live == 0 {
					// The difference died here; downstream sees good values
					// either way, so its fanout is simply not scheduled.
					continue
				}
				if len(t.obsOfNet[outN]) > 0 {
					diff |= live
				}
				for i, e := fl.FanStart[outN], fl.FanStart[outN+1]; i < e; i++ {
					ns := fanSlot[i]
					if s.inCone[ns] {
						continue
					}
					s.inCone[ns] = true
					cone = append(cone, ns)
					nl := slotLevel[ns]
					bkts[nl] = append(bkts[nl], ns)
					active[nl>>6] |= 1 << (uint(nl) & 63)
				}
			}
			bkts[l] = b[:0]
		}
	}
	s.coneBuf = cone
	return diff & s.valid
}

// GoodResponse returns the fault-free 64-lane word at an observable net of
// the currently loaded block.
func (s *Simulator) GoodResponse(net netlist.Net) uint64 { return s.good[net] }

// FaultyWord returns the faulty-machine word at a net as of the most
// recent Detects call; nets outside the evaluated cone equal the good
// machine.
func (s *Simulator) FaultyWord(net netlist.Net) uint64 {
	// cur equals good outside the most recent cone, and the cone is only
	// repaired at the next Detects or LoadBlock, so the faulty response is
	// still readable here.
	return s.cur[net]
}

// evalSlot evaluates one slot of the flat view over per-net words w — the
// cone-walk kernel. Inputs are read straight from w (the faulty-machine
// array), so there is no per-pin source selection or gathering.
func evalSlot(fl *netlist.Flat, slot int32, w []uint64) uint64 {
	pins := fl.Pins
	lo, hi := fl.PinStart[slot], fl.PinStart[slot+1]
	var v uint64
	switch t := fl.Type[slot]; t {
	case netlist.Const0:
	case netlist.Const1:
		v = ^uint64(0)
	case netlist.Buf:
		v = w[pins[lo]]
	case netlist.Not:
		v = ^w[pins[lo]]
	case netlist.And, netlist.Nand:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			v &= w[pins[i]]
		}
		if t == netlist.Nand {
			v = ^v
		}
	case netlist.Or, netlist.Nor:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			v |= w[pins[i]]
		}
		if t == netlist.Nor {
			v = ^v
		}
	case netlist.Xor, netlist.Xnor:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			v ^= w[pins[i]]
		}
		if t == netlist.Xnor {
			v = ^v
		}
	default: // Mux2
		sel, a0, a1 := w[pins[lo]], w[pins[lo+1]], w[pins[lo+2]]
		v = a0&^sel | a1&sel
	}
	return v
}

// evalPin evaluates a gate with input pin `pin` forced to the stuck value,
// substituted inline while folding over the inputs — the excitation check
// of every Detects call, allocation-free.
func evalPin(t netlist.GateType, pins []netlist.Net, w []uint64, pin int, sa uint8) uint64 {
	forced := uint64(0)
	if sa == 1 {
		forced = ^uint64(0)
	}
	pv := func(i int) uint64 {
		if i == pin {
			return forced
		}
		return w[pins[i]]
	}
	var v uint64
	switch t {
	case netlist.Buf:
		v = pv(0)
	case netlist.Not:
		v = ^pv(0)
	case netlist.And, netlist.Nand:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			v &= pv(i)
		}
		if t == netlist.Nand {
			v = ^v
		}
	case netlist.Or, netlist.Nor:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			v |= pv(i)
		}
		if t == netlist.Nor {
			v = ^v
		}
	case netlist.Xor, netlist.Xnor:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			v ^= pv(i)
		}
		if t == netlist.Xnor {
			v = ^v
		}
	case netlist.Mux2:
		sel, a0, a1 := pv(0), pv(1), pv(2)
		v = a0&^sel | a1&sel
	case netlist.Const1:
		// Constants carry no input pins; mirror the fault-free value.
		v = ^uint64(0)
	}
	return v
}
