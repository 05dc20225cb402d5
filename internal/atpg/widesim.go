package atpg

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
)

// laneBlock is the set of pattern-block widths the fault simulator can be
// instantiated at: 64, 256 or 512 parallel pattern lanes per block. Each
// width compiles to its own fully unrolled kernel (arrays of different
// lengths are distinct shapes), so the per-word inner loops carry no
// width-generic overhead.
type laneBlock interface {
	comparable
	[1]uint64 | [4]uint64 | [8]uint64
}

// simTopo is the read-only structural view shared by every fault-simulation
// engine and PODEM engine over one netlist: controllable/observable points,
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

// laneMask is a width-independent lane mask: bit k refers to pattern lane
// k of the most recently loaded block. Words beyond the engine's width are
// always zero.
type laneMask [8]uint64

func (m *laneMask) any() bool {
	acc := uint64(0)
	for _, w := range m {
		acc |= w
	}
	return acc != 0
}

func (m *laneMask) bit(k int) bool { return m[k>>6]>>(uint(k)&63)&1 == 1 }

// first returns the lowest set lane, or -1 when the mask is empty.
func (m *laneMask) first() int {
	for i, w := range m {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// faultSim is the width-erased engine interface the ATPG driver phases run
// against: the same random-phase, batch-drop and compaction code serves
// 64, 256 and 512 lanes.
type faultSim interface {
	lanes() int
	NumControls() int
	loadBlock(pats []Pattern)
	loadWords(words [][]uint64)
	detectsMask(f Fault) laneMask
	topo() *simTopo
}

// newFaultSim builds an engine of the given lane width (64, 256 or 512).
func newFaultSim(n *netlist.Netlist, lanes int) faultSim {
	return newFaultSimFromTopo(newSimTopo(n), lanes)
}

func newFaultSimFromTopo(t *simTopo, lanes int) faultSim {
	switch lanes {
	case 64:
		return newWideSim[[1]uint64](t)
	case 256:
		return newWideSim[[4]uint64](t)
	case 512:
		return newWideSim[[8]uint64](t)
	default:
		// Widths come from resolveLaneWidth or from a test forcing one;
		// silently falling back to 64 lanes here would hide a caller bug.
		panic(fmt.Sprintf("atpg: unsupported lane width %d", lanes))
	}
}

// wideSim is the width-parameterized parallel-pattern serial-fault
// simulator. B is the per-net pattern block ([1], [4] or [8]uint64 = 64,
// 256 or 512 lanes). Fault evaluation is cone-restricted and event-driven:
// only gates in the transitive fanout of the fault site are re-evaluated,
// scheduled through per-level pending buckets with a level-activity bitmap,
// so quiescent cone regions (levels where every difference already died)
// are skipped without being scanned.
type wideSim[B laneBlock] struct {
	t    *simTopo
	good []B // per-net fault-free values
	// cur holds the faulty-machine values: equal to good outside the most
	// recently evaluated cone, so gate evaluation reads inputs directly
	// with no per-pin source selection. The cone is repaired back to good
	// lazily, at the start of the next detects (or block load), which
	// keeps the faulty response readable between calls.
	cur   []B
	valid B // mask of lanes carrying real patterns

	// Scratch state, reused across faults.
	inCone  []bool    // slot was queued for the current cone walk
	coneBuf []int32   // slots evaluated by the most recent detects, push order
	buckets [][]int32 // pending slots per level
	active  []uint64  // bitmap of levels with a non-empty bucket
}

func newWideSim[B laneBlock](t *simTopo) *wideSim[B] {
	nn := t.n.NumNets()
	return &wideSim[B]{
		t:       t,
		good:    make([]B, nn),
		cur:     make([]B, nn),
		inCone:  make([]bool, len(t.fl.Order)),
		buckets: make([][]int32, t.fl.NumLevels),
		active:  make([]uint64, (t.fl.NumLevels+63)/64),
	}
}

func (s *wideSim[B]) topo() *simTopo { return s.t }

func (s *wideSim[B]) lanes() int {
	var b B
	return len(b) * 64
}

// Controllables returns the controllable points in pattern order.
func (s *wideSim[B]) Controllables() []netlist.Net { return s.t.ctrl }

// Observables returns the observable points (POs then FF D nets).
func (s *wideSim[B]) Observables() []netlist.Net { return s.t.obs }

// NumControls returns the pattern width.
func (s *wideSim[B]) NumControls() int { return len(s.t.ctrl) }

// loadBlock loads up to lanes() patterns (lane k = pats[k]) and evaluates
// the fault-free circuit over the flat SoA view.
func (s *wideSim[B]) loadBlock(pats []Pattern) {
	var valid B
	if max := len(valid) * 64; len(pats) > max {
		pats = pats[:max]
	}
	for k := range pats {
		valid[k>>6] |= 1 << (uint(k) & 63)
	}
	s.valid = valid
	// Transpose pattern bytes to per-net lane words in 64-pattern chunks:
	// each chunk's pattern slices stay cache-resident across the whole
	// controllable sweep instead of striding the full block per net.
	var zero B
	for _, net := range s.t.ctrl {
		s.good[net] = zero
	}
	for c := 0; c*64 < len(pats); c++ {
		chunk := pats[c*64:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		for ci, net := range s.t.ctrl {
			var w uint64
			for k, p := range chunk {
				if p[ci] != 0 {
					w |= 1 << uint(k)
				}
			}
			s.good[net][c] = w
		}
	}
	evalFlatBlock(s.t.fl, s.good)
	copy(s.cur, s.good)
	for _, gs := range s.coneBuf {
		s.inCone[gs] = false
	}
	s.coneBuf = s.coneBuf[:0]
}

// loadWords loads a block already in transposed form: words[c][ci] is the
// 64-lane word of controllable ci for the block's c-th 64-pattern
// sub-block, every lane carrying a real pattern. The random phase
// generates pattern words directly in this layout, so the byte-matrix
// transpose of loadBlock is skipped entirely.
func (s *wideSim[B]) loadWords(words [][]uint64) {
	var valid B
	if max := len(valid); len(words) > max {
		words = words[:max]
	}
	for c := range words {
		valid[c] = ^uint64(0)
	}
	s.valid = valid
	var w B
	for ci, net := range s.t.ctrl {
		for c := range words {
			w[c] = words[c][ci]
		}
		s.good[net] = w
	}
	evalFlatBlock(s.t.fl, s.good)
	copy(s.cur, s.good)
	for _, gs := range s.coneBuf {
		s.inCone[gs] = false
	}
	s.coneBuf = s.coneBuf[:0]
}

// detects simulates the fault against the currently loaded block and
// returns the block of lanes whose observable response differs from the
// fault-free circuit.
func (s *wideSim[B]) detects(f Fault) B {
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
	var out0 B
	if f.Pin >= 0 {
		// The root gate's inputs are all fault-free.
		lo, hi := fl.PinStart[slot0], fl.PinStart[slot0+1]
		out0 = evalPinBlock(fl.Type[slot0], fl.Pins[lo:hi], s.good, int(f.Pin), f.SA)
	} else if f.SA == 1 {
		for i := 0; i < len(out0); i++ {
			out0[i] = ^uint64(0)
		}
	}
	outNet := fl.Out[slot0]
	g0 := s.good[outNet]
	var excited uint64
	for i := 0; i < len(out0); i++ {
		excited |= out0[i] ^ g0[i]
	}
	if excited == 0 {
		var zero B
		return zero // fault never excited in this block
	}

	cone := s.coneBuf[:0]
	cone = append(cone, slot0)
	s.inCone[slot0] = true
	s.cur[outNet] = out0
	var diff B
	if len(t.obsOfNet[outNet]) > 0 {
		g := s.good[outNet]
		for i := 0; i < len(diff); i++ {
			diff[i] = out0[i] ^ g[i]
		}
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
				out := evalSlotBlock(fl, gs, s.cur)
				outN := fl.Out[gs]
				s.cur[outN] = out
				g := s.good[outN]
				var live uint64
				for i := 0; i < len(out); i++ {
					live |= out[i] ^ g[i]
				}
				if live == 0 {
					// The difference died here; downstream sees good values
					// either way, so its fanout is simply not scheduled.
					continue
				}
				if len(t.obsOfNet[outN]) > 0 {
					for i := 0; i < len(diff); i++ {
						diff[i] |= out[i] ^ g[i]
					}
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
	for i := 0; i < len(diff); i++ {
		diff[i] &= s.valid[i]
	}
	return diff
}

// detectsMask is detects widened to the driver-facing laneMask.
func (s *wideSim[B]) detectsMask(f Fault) laneMask {
	d := s.detects(f)
	var m laneMask
	for i := 0; i < len(d); i++ {
		m[i] = d[i]
	}
	return m
}

// evalSlotBlock evaluates one slot of the flat view over per-net blocks w
// — the cone-walk kernel. Inputs are read straight from w (the faulty-
// machine array), so there is no per-pin source selection or gathering.
func evalSlotBlock[B laneBlock](fl *netlist.Flat, slot int32, w []B) B {
	pins := fl.Pins
	lo, hi := fl.PinStart[slot], fl.PinStart[slot+1]
	var v B
	switch fl.Type[slot] {
	case netlist.Const0:
	case netlist.Const1:
		for j := 0; j < len(v); j++ {
			v[j] = ^uint64(0)
		}
	case netlist.Buf:
		v = w[pins[lo]]
	case netlist.Not:
		v = w[pins[lo]]
		for j := 0; j < len(v); j++ {
			v[j] = ^v[j]
		}
	case netlist.And, netlist.Nand:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			x := w[pins[i]]
			for j := 0; j < len(v); j++ {
				v[j] &= x[j]
			}
		}
		if fl.Type[slot] == netlist.Nand {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	case netlist.Or, netlist.Nor:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			x := w[pins[i]]
			for j := 0; j < len(v); j++ {
				v[j] |= x[j]
			}
		}
		if fl.Type[slot] == netlist.Nor {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	case netlist.Xor, netlist.Xnor:
		v = w[pins[lo]]
		for i := lo + 1; i < hi; i++ {
			x := w[pins[i]]
			for j := 0; j < len(v); j++ {
				v[j] ^= x[j]
			}
		}
		if fl.Type[slot] == netlist.Xnor {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	default: // Mux2
		sel, a0, a1 := w[pins[lo]], w[pins[lo+1]], w[pins[lo+2]]
		for j := 0; j < len(v); j++ {
			v[j] = a0[j]&^sel[j] | a1[j]&sel[j]
		}
	}
	return v
}

// evalFlatBlock evaluates every gate of the flat view over per-net blocks
// w, in level-major (topological) order.
func evalFlatBlock[B laneBlock](fl *netlist.Flat, w []B) {
	pins := fl.Pins
	for s, t := range fl.Type {
		lo, hi := fl.PinStart[s], fl.PinStart[s+1]
		var v B
		switch t {
		case netlist.Const0:
		case netlist.Const1:
			for j := 0; j < len(v); j++ {
				v[j] = ^uint64(0)
			}
		case netlist.Buf:
			v = w[pins[lo]]
		case netlist.Not:
			v = w[pins[lo]]
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		case netlist.And, netlist.Nand:
			v = w[pins[lo]]
			for i := lo + 1; i < hi; i++ {
				x := w[pins[i]]
				for j := 0; j < len(v); j++ {
					v[j] &= x[j]
				}
			}
			if t == netlist.Nand {
				for j := 0; j < len(v); j++ {
					v[j] = ^v[j]
				}
			}
		case netlist.Or, netlist.Nor:
			v = w[pins[lo]]
			for i := lo + 1; i < hi; i++ {
				x := w[pins[i]]
				for j := 0; j < len(v); j++ {
					v[j] |= x[j]
				}
			}
			if t == netlist.Nor {
				for j := 0; j < len(v); j++ {
					v[j] = ^v[j]
				}
			}
		case netlist.Xor, netlist.Xnor:
			v = w[pins[lo]]
			for i := lo + 1; i < hi; i++ {
				x := w[pins[i]]
				for j := 0; j < len(v); j++ {
					v[j] ^= x[j]
				}
			}
			if t == netlist.Xnor {
				for j := 0; j < len(v); j++ {
					v[j] = ^v[j]
				}
			}
		default: // Mux2
			sel, a0, a1 := w[pins[lo]], w[pins[lo+1]], w[pins[lo+2]]
			for j := 0; j < len(v); j++ {
				v[j] = a0[j]&^sel[j] | a1[j]&sel[j]
			}
		}
		w[fl.Out[s]] = v
	}
}

// evalPinBlock evaluates a gate with input pin `pin` forced to the stuck
// value, substituted inline while folding over the inputs — the excitation
// check of every detects call, allocation-free.
func evalPinBlock[B laneBlock](t netlist.GateType, pins []netlist.Net, w []B, pin int, sa uint8) B {
	var forced B
	if sa == 1 {
		for j := 0; j < len(forced); j++ {
			forced[j] = ^uint64(0)
		}
	}
	pv := func(i int) B {
		if i == pin {
			return forced
		}
		return w[pins[i]]
	}
	var v B
	switch t {
	case netlist.Buf:
		v = pv(0)
	case netlist.Not:
		v = pv(0)
		for j := 0; j < len(v); j++ {
			v[j] = ^v[j]
		}
	case netlist.And, netlist.Nand:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			x := pv(i)
			for j := 0; j < len(v); j++ {
				v[j] &= x[j]
			}
		}
		if t == netlist.Nand {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	case netlist.Or, netlist.Nor:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			x := pv(i)
			for j := 0; j < len(v); j++ {
				v[j] |= x[j]
			}
		}
		if t == netlist.Nor {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	case netlist.Xor, netlist.Xnor:
		v = pv(0)
		for i := 1; i < len(pins); i++ {
			x := pv(i)
			for j := 0; j < len(v); j++ {
				v[j] ^= x[j]
			}
		}
		if t == netlist.Xnor {
			for j := 0; j < len(v); j++ {
				v[j] = ^v[j]
			}
		}
	case netlist.Mux2:
		sel, a0, a1 := pv(0), pv(1), pv(2)
		for j := 0; j < len(v); j++ {
			v[j] = a0[j]&^sel[j] | a1[j]&sel[j]
		}
	case netlist.Const1:
		// Constants carry no input pins; mirror the fault-free value.
		for j := 0; j < len(v); j++ {
			v[j] = ^uint64(0)
		}
	}
	return v
}
