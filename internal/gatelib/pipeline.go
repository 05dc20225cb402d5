package gatelib

import "repro/internal/netlist"

// coreFn emits a combinational two-operand core: o is the operand register
// value, t the trigger register value, op the opcode field. It returns the
// result nets.
type coreFn func(b *netlist.Builder, o, t, op []netlist.Net) []netlist.Net

// buildCombWrapper instantiates a core as a standalone combinational
// netlist with ports o, t, op and result.
func buildCombWrapper(name string, width, opBits int, core coreFn) (*netlist.Netlist, error) {
	b := netlist.NewBuilder(name)
	o := b.InputBus("o", width)
	t := b.InputBus("t", width)
	op := b.InputBus("op", opBits)
	res := core(b, o, t, op)
	b.OutputBus("result", res)
	return b.Build()
}

// buildPipelinedWrapper instantiates a core inside the hybrid-pipelining
// structure of the paper's figure 3: an operand register O (with load
// enable), a trigger register T whose load starts the operation, the opcode
// latched together with T, a valid-tracking flip-flop (the stage control
// condition C(R)-C(T) >= 1, relation (3)), and the result register R.
//
// Ports:
//
//	inputs:  bus_o, bus_t (data), op_in (opcode), load_o, load_t (socket
//	         enables)
//	outputs: r_out (result register), r_valid (result available)
func buildPipelinedWrapper(name string, width, opBits int, core coreFn) (*netlist.Netlist, error) {
	b := netlist.NewBuilder(name)
	busO := b.InputBus("bus_o", width)
	busT := b.InputBus("bus_t", width)
	opIn := b.InputBus("op_in", opBits)
	loadO := b.Input("load_o")
	loadT := b.Input("load_t")

	// Operand register with load enable: O <- bus_o when load_o.
	oq := loadReg(b, name, "O", loadO, busO)
	// Trigger register: T <- bus_t when load_t.
	tq := loadReg(b, name, "T", loadT, busT)
	// Opcode latched with the trigger.
	opq := loadReg(b, name, "OP", loadT, opIn)
	// Stage control: VT marks "operation triggered last cycle".
	vt := b.DFF(name+".VT", loadT, false)

	res := core(b, oq, tq, opq)

	// Result register loads the core output one cycle after the trigger
	// (relation (3): C(R) - C(T) >= 1).
	rq := loadReg(b, name, "R", vt, res)
	rv := b.DFF(name+".RV", vt, false)

	b.OutputBus("r_out", rq)
	b.Output("r_valid", rv)
	return b.Build()
}

// loadReg declares the register comp.reg[0..len(d)-1] with a load enable:
// bit i takes d[i] on a clock edge with load high and keeps its value
// otherwise. It returns the Q nets.
func loadReg(b *netlist.Builder, comp, reg string, load netlist.Net, d []netlist.Net) []netlist.Net {
	q := make([]netlist.Net, len(d))
	for i := range d {
		qi, ff := b.FFDecl(bitName(comp, reg, i), false)
		b.SetD(ff, b.Mux(load, qi, d[i]))
		q[i] = qi
	}
	return q
}

func bitName(comp, reg string, i int) string {
	return comp + "." + reg + "[" + itoa(i) + "]"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
