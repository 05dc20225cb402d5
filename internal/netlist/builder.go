package netlist

import (
	"fmt"
	"sort"
)

// Builder incrementally constructs a Netlist. All gate constructors return
// the freshly driven output net. Feedback through flip-flops is expressed
// by declaring the flip-flop first (obtaining its Q net) and connecting its
// D input later via SetD.
type Builder struct {
	name    string
	gates   []Gate
	ffs     []FF
	inPorts []Port
	outPort []Port
	netName []string
	drivers []Driver
	numPIs  int
	err     error
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("netlist %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) newNet(name string) Net {
	n := Net(len(b.drivers))
	b.drivers = append(b.drivers, Driver{Kind: DriverNone})
	b.netName = append(b.netName, name)
	return n
}

// Input declares a single-bit primary input and returns its net.
func (b *Builder) Input(name string) Net {
	return b.InputBus(name, 1)[0]
}

// InputBus declares a width-bit primary input port (LSB first).
func (b *Builder) InputBus(name string, width int) []Net {
	if width < 1 {
		b.fail("input %q: width %d < 1", name, width)
		width = 1
	}
	nets := make([]Net, width)
	for i := range nets {
		nm := name
		if width > 1 {
			nm = fmt.Sprintf("%s[%d]", name, i)
		}
		nets[i] = b.newNet(nm)
		b.drivers[nets[i]] = Driver{Kind: DriverPI, Index: int32(b.numPIs)}
		b.numPIs++
	}
	b.inPorts = append(b.inPorts, Port{Name: name, Nets: nets})
	return nets
}

// Output declares a single-bit primary output connected to net x.
func (b *Builder) Output(name string, x Net) {
	b.OutputBus(name, []Net{x})
}

// OutputBus declares a multi-bit primary output port (LSB first).
func (b *Builder) OutputBus(name string, nets []Net) {
	for i, x := range nets {
		if x == InvalidNet {
			b.fail("output %q bit %d: invalid net", name, i)
			return
		}
	}
	b.outPort = append(b.outPort, Port{Name: name, Nets: append([]Net(nil), nets...)})
}

// FFDecl declares a flip-flop whose D input will be connected later with
// SetD. It returns the Q net and the flip-flop index.
func (b *Builder) FFDecl(name string, init bool) (Net, int) {
	q := b.newNet(name + ".q")
	idx := len(b.ffs)
	b.ffs = append(b.ffs, FF{Name: name, D: InvalidNet, Q: q, Init: init})
	b.drivers[q] = Driver{Kind: DriverFF, Index: int32(idx)}
	return q, idx
}

// SetD connects the D input of a previously declared flip-flop.
func (b *Builder) SetD(ff int, d Net) {
	if ff < 0 || ff >= len(b.ffs) {
		b.fail("SetD: flip-flop index %d out of range", ff)
		return
	}
	if b.ffs[ff].D != InvalidNet {
		b.fail("SetD: flip-flop %q already connected", b.ffs[ff].Name)
		return
	}
	b.ffs[ff].D = d
}

// DFF declares a flip-flop with D already connected and returns its Q net.
func (b *Builder) DFF(name string, d Net, init bool) Net {
	q, idx := b.FFDecl(name, init)
	b.SetD(idx, d)
	return q
}

// DFFBus declares a bank of width flip-flops fed by the nets in d and
// returns the Q nets.
func (b *Builder) DFFBus(name string, d []Net, init bool) []Net {
	q := make([]Net, len(d))
	for i := range d {
		q[i] = b.DFF(fmt.Sprintf("%s[%d]", name, i), d[i], init)
	}
	return q
}

func (b *Builder) gate(t GateType, name string, in ...Net) Net {
	for i, x := range in {
		if x == InvalidNet || int(x) >= len(b.drivers) {
			b.fail("%s gate: input %d is invalid", t, i)
			return b.newNet(name)
		}
	}
	out := b.newNet(name)
	b.drivers[out] = Driver{Kind: DriverGate, Index: int32(len(b.gates))}
	b.gates = append(b.gates, Gate{Type: t, Out: out, In: append([]Net(nil), in...)})
	return out
}

// Const returns a constant-0 or constant-1 net.
func (b *Builder) Const(v bool) Net {
	if v {
		return b.gate(Const1, "const1")
	}
	return b.gate(Const0, "const0")
}

// Buf returns a buffered copy of a.
func (b *Builder) Buf(a Net) Net { return b.gate(Buf, "", a) }

// Not returns the inversion of a.
func (b *Builder) Not(a Net) Net { return b.gate(Not, "", a) }

// And returns the conjunction of the inputs (fan-in >= 1).
func (b *Builder) And(in ...Net) Net { return b.nary(And, in) }

// Or returns the disjunction of the inputs (fan-in >= 1).
func (b *Builder) Or(in ...Net) Net { return b.nary(Or, in) }

// Nand returns the inverted conjunction of the inputs.
func (b *Builder) Nand(in ...Net) Net { return b.nary(Nand, in) }

// Nor returns the inverted disjunction of the inputs.
func (b *Builder) Nor(in ...Net) Net { return b.nary(Nor, in) }

// Xor returns the parity of the inputs.
func (b *Builder) Xor(in ...Net) Net { return b.nary(Xor, in) }

// Xnor returns the inverted parity of the inputs.
func (b *Builder) Xnor(in ...Net) Net { return b.nary(Xnor, in) }

func (b *Builder) nary(t GateType, in []Net) Net {
	if len(in) == 0 {
		b.fail("%s gate with no inputs", t)
		return b.newNet("")
	}
	return b.gate(t, "", in...)
}

// Mux returns a0 when sel is 0 and a1 when sel is 1.
func (b *Builder) Mux(sel, a0, a1 Net) Net {
	return b.gate(Mux2, "", sel, a0, a1)
}

// MuxBus muxes two equal-width buses bit by bit.
func (b *Builder) MuxBus(sel Net, a0, a1 []Net) []Net {
	if len(a0) != len(a1) {
		b.fail("MuxBus: width mismatch %d vs %d", len(a0), len(a1))
		return a0
	}
	out := make([]Net, len(a0))
	for i := range a0 {
		out[i] = b.Mux(sel, a0[i], a1[i])
	}
	return out
}

// Gate emits a gate of type t over the inputs through the matching typed
// constructor above and returns its output net. Const0 and Const1 take no
// inputs, Buf and Not one, Mux2 three (select, a0, a1). Instantiate and
// scan insertion copy netlists gate by gate through it.
func (b *Builder) Gate(t GateType, in ...Net) Net {
	switch t {
	case Const0:
		return b.Const(false)
	case Const1:
		return b.Const(true)
	case Buf:
		return b.Buf(in[0])
	case Not:
		return b.Not(in[0])
	case And:
		return b.And(in...)
	case Or:
		return b.Or(in...)
	case Nand:
		return b.Nand(in...)
	case Nor:
		return b.Nor(in...)
	case Xor:
		return b.Xor(in...)
	case Xnor:
		return b.Xnor(in...)
	default: // Mux2
		return b.Mux(in[0], in[1], in[2])
	}
}

// Wire forward-declares a net whose driver is connected later with Drive —
// the mechanism for assembling mutually referential structures (buses
// reading component outputs that themselves sample the buses through
// registers). Internally the wire is a buffer whose input is bound by
// Drive; Build fails on undriven wires.
func (b *Builder) Wire(name string) Net {
	out := b.newNet(name)
	b.drivers[out] = Driver{Kind: DriverGate, Index: int32(len(b.gates))}
	b.gates = append(b.gates, Gate{Type: Buf, Out: out, In: []Net{InvalidNet}})
	return out
}

// WireBus forward-declares a bank of wires.
func (b *Builder) WireBus(name string, width int) []Net {
	nets := make([]Net, width)
	for i := range nets {
		nets[i] = b.Wire(fmt.Sprintf("%s[%d]", name, i))
	}
	return nets
}

// Drive connects the source of a previously declared Wire.
func (b *Builder) Drive(w Net, src Net) {
	if w < 0 || int(w) >= len(b.drivers) {
		b.fail("Drive: invalid wire %d", w)
		return
	}
	d := b.drivers[w]
	if d.Kind != DriverGate || b.gates[d.Index].Type != Buf || len(b.gates[d.Index].In) != 1 {
		b.fail("Drive: net %s is not a wire", b.netName[w])
		return
	}
	if b.gates[d.Index].In[0] != InvalidNet {
		b.fail("Drive: wire %s already driven", b.netName[w])
		return
	}
	if src == InvalidNet || int(src) >= len(b.drivers) {
		b.fail("Drive: invalid source for wire %s", b.netName[w])
		return
	}
	b.gates[d.Index].In[0] = src
}

// DriveBus connects a bank of wires to sources.
func (b *Builder) DriveBus(ws, srcs []Net) {
	if len(ws) != len(srcs) {
		b.fail("DriveBus: width mismatch %d vs %d", len(ws), len(srcs))
		return
	}
	for i := range ws {
		b.Drive(ws[i], srcs[i])
	}
}

// Name attaches a debug name to an existing net.
func (b *Builder) Name(x Net, name string) {
	if x >= 0 && int(x) < len(b.netName) {
		b.netName[x] = name
	}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// Build validates and levelizes the netlist. After Build the Builder must
// not be reused.
func (b *Builder) Build() (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Netlist{
		Name:        b.name,
		Gates:       b.gates,
		FFs:         b.ffs,
		InputPorts:  b.inPorts,
		OutputPorts: b.outPort,
		numNets:     len(b.drivers),
		netName:     b.netName,
		drivers:     b.drivers,
	}
	for _, p := range b.inPorts {
		n.PIs = append(n.PIs, p.Nets...)
	}
	for _, p := range b.outPort {
		n.POs = append(n.POs, p.Nets...)
	}
	for i, ff := range n.FFs {
		if ff.D == InvalidNet {
			return nil, fmt.Errorf("netlist %q: flip-flop %q (index %d) has unconnected D", b.name, ff.Name, i)
		}
	}
	for x, d := range n.drivers {
		if d.Kind == DriverNone {
			return nil, fmt.Errorf("netlist %q: net %s is undriven", b.name, n.NetName(Net(x)))
		}
	}
	for gi, g := range n.Gates {
		for pin, in := range g.In {
			if in == InvalidNet {
				return nil, fmt.Errorf("netlist %q: gate %d (%s -> %s) has unconnected input %d (undriven wire?)",
					b.name, gi, g.Type, n.NetName(g.Out), pin)
			}
		}
	}
	if err := n.levelize(); err != nil {
		return nil, err
	}
	return n, nil
}

// levelize computes a topological order of gates, treating primary inputs
// and flip-flop Q outputs as sources. It fails on combinational cycles.
func (n *Netlist) levelize() error {
	pending := make([]int32, len(n.Gates)) // unresolved input count per gate
	fan := n.FanoutTable()
	ready := make([]int32, 0, len(n.Gates))
	level := make([]int32, len(n.Gates))

	netLevel := make([]int32, n.numNets)
	resolved := make([]bool, n.numNets)
	for _, x := range n.PIs {
		resolved[x] = true
	}
	for _, ff := range n.FFs {
		resolved[ff.Q] = true
	}
	for gi, g := range n.Gates {
		cnt := int32(0)
		for _, in := range g.In {
			if !resolved[in] {
				cnt++
			}
		}
		pending[gi] = cnt
		if cnt == 0 {
			ready = append(ready, int32(gi))
		}
	}
	order := make([]int32, 0, len(n.Gates))
	for len(ready) > 0 {
		gi := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		g := &n.Gates[gi]
		lv := int32(0)
		for _, in := range g.In {
			if netLevel[in]+1 > lv {
				lv = netLevel[in] + 1
			}
		}
		if len(g.In) == 0 { // constants
			lv = 0
		}
		level[gi] = lv
		netLevel[g.Out] = lv
		if lv > n.maxLevel {
			n.maxLevel = lv
		}
		order = append(order, gi)
		resolved[g.Out] = true
		for _, ld := range fan[g.Out] {
			pending[ld.Gate]--
			if pending[ld.Gate] == 0 {
				// Only schedule once all inputs resolved; pending tracked
				// per unresolved input occurrence, so recheck cheaply.
				all := true
				for _, in := range n.Gates[ld.Gate].In {
					if !resolved[in] {
						all = false
						break
					}
				}
				if all {
					ready = append(ready, ld.Gate)
				}
			}
		}
	}
	if len(order) != len(n.Gates) {
		// Identify one gate in the cycle for the error message.
		var stuck []string
		for gi, p := range pending {
			if p > 0 {
				stuck = append(stuck, fmt.Sprintf("%s->%s", n.Gates[gi].Type, n.NetName(n.Gates[gi].Out)))
				if len(stuck) >= 4 {
					break
				}
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("netlist %q: combinational cycle involving %v", n.Name, stuck)
	}
	n.order = order
	n.level = level
	return nil
}
