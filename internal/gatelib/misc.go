package gatelib

import (
	"fmt"

	"repro/internal/netlist"
)

// NewPC generates the program counter: a width-bit register that either
// increments or loads a branch target. The PC appears once in every
// candidate architecture, so (like the paper) it contributes equally to all
// test costs and is excluded from the comparison — but it is still needed
// for the area model and the full-scan baseline of Table 1.
func NewPC(width int) (*Component, error) {
	if width < 2 {
		return nil, fmt.Errorf("gatelib: PC width %d < 2", width)
	}
	name := fmt.Sprintf("pc%d", width)
	b := netlist.NewBuilder(name)
	target := b.InputBus("target", width)
	branch := b.Input("branch")
	stall := b.Input("stall")

	pcq := make([]netlist.Net, width)
	ffs := make([]int, width)
	for i := 0; i < width; i++ {
		pcq[i], ffs[i] = b.FFDecl(bitName(name, "PC", i), false)
	}
	inc := buildIncrementer(b, pcq)
	for i := 0; i < width; i++ {
		next := b.Mux(branch, inc[i], target[i])
		held := b.Mux(stall, next, pcq[i])
		b.SetD(ffs[i], held)
	}
	b.OutputBus("pc_out", pcq)
	seq, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Component{
		Kind:  KindPC,
		Name:  name,
		Seq:   seq,
		NumIn: 1, NumOut: 1,
		Width: width,
	}, nil
}

// NewLDST generates the load/store unit. Stores place the address in the
// operand register and the data in the trigger register; loads are
// triggered by moving the address directly into the trigger register (one
// transport instead of two), so the memory address multiplexes between the
// two registers on the latched store flag. The data memory itself is
// architectural state outside the datapath (as in the paper's figure 9,
// "to/from the Data Memory").
func NewLDST(width int) (*Component, error) {
	if width < 2 {
		return nil, fmt.Errorf("gatelib: LD/ST width %d < 2", width)
	}
	name := fmt.Sprintf("ldst%d", width)
	b := netlist.NewBuilder(name)
	busO := b.InputBus("bus_o", width) // address
	busT := b.InputBus("bus_t", width) // store data / load trigger
	isStore := b.Input("is_store")
	loadO := b.Input("load_o")
	loadT := b.Input("load_t")
	memRData := b.InputBus("mem_rdata", width)

	oq := loadReg(b, name, "A", loadO, busO)
	tq := loadReg(b, name, "D", loadT, busT)
	stq, stFF := b.FFDecl(name+".ST", false)
	b.SetD(stFF, b.Mux(loadT, stq, isStore))
	vt := b.DFF(name+".VT", loadT, false)

	rq := loadReg(b, name, "R", vt, memRData)
	rv := b.DFF(name+".RV", b.And(vt, b.Not(stq)), false)

	// Store: address from the operand register; load: address from the
	// trigger register.
	addr := make([]netlist.Net, width)
	for i := 0; i < width; i++ {
		addr[i] = b.Mux(stq, tq[i], oq[i])
	}
	b.OutputBus("mem_addr", addr)
	b.OutputBus("mem_wdata", tq)
	b.Output("mem_we", b.And(vt, stq))
	b.OutputBus("r_out", rq)
	b.Output("r_valid", rv)
	seq, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Component{
		Kind:  KindLDST,
		Name:  name,
		Seq:   seq,
		NumIn: 2, NumOut: 1,
		Width: width,
	}, nil
}

// NewIMM generates the immediate unit: a register loaded from the
// instruction's immediate field and readable on a bus.
func NewIMM(width int) (*Component, error) {
	if width < 2 {
		return nil, fmt.Errorf("gatelib: IMM width %d < 2", width)
	}
	name := fmt.Sprintf("imm%d", width)
	b := netlist.NewBuilder(name)
	field := b.InputBus("imm_field", width)
	load := b.Input("load")
	b.OutputBus("imm_out", loadReg(b, name, "I", load, field))
	seq, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Component{
		Kind:  KindIMM,
		Name:  name,
		Seq:   seq,
		NumIn: 1, NumOut: 1,
		Width: width,
	}, nil
}
