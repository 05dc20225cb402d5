// Package gatelib generates gate-level netlists for the TTA component
// library used by the design/test space exploration: the ALU, comparator,
// register files, load/store unit, program counter, immediate unit, the
// MOVE input/output sockets and the hybrid-pipelining stage controller of
// the paper's figure 3/4.
//
// Every functional component is produced in two forms sharing the same
// combinational core:
//
//   - Comb: the core alone, with operand/trigger/opcode ports as primary
//     inputs and the result as primary output. This is the circuit the ATPG
//     targets; because the O, T and R registers of a TTA component are
//     directly accessible from the MOVE buses, the same structural patterns
//     can be applied functionally (the paper's central observation).
//   - Seq: the hybrid-pipelined component of the paper's figure 3 — O and T
//     registers at the inputs, the R register at the output, and the valid
//     tracking flip-flop of the stage control. The flip-flop count of Seq
//     (plus the component's sockets) is the scan-chain length n_l used by
//     both the full-scan baseline and the socket test cost f_ts.
//
// Components are pre-designed once per configuration and cached by the
// library (mirroring the paper's flow, where components are synthesized up
// to gate level once and their pattern counts back-annotated).
package gatelib

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/netlist"
)

// LibraryKey identifies the generation of the component generators. Any
// change to the emitted netlists (gate structure, flip-flop counts, area
// or delay models) must bump it: persisted annotation caches carry the
// key and are invalidated on mismatch, so stale pattern counts can never
// leak into a new exploration.
const LibraryKey = "gatelib/v1"

// Kind identifies a component class of the TTA datapath.
type Kind uint8

// Component kinds. The first six mirror the paper's figure 9 architecture;
// the socket and stage-controller kinds implement its figures 3-5.
const (
	KindALU Kind = iota
	KindCMP
	KindRF
	KindLDST
	KindPC
	KindIMM
	KindInputSocket
	KindOutputSocket
	KindStageCtl
)

var kindNames = map[Kind]string{
	KindALU:          "ALU",
	KindCMP:          "CMP",
	KindRF:           "RF",
	KindLDST:         "LD/ST",
	KindPC:           "PC",
	KindIMM:          "Immediate",
	KindInputSocket:  "InSocket",
	KindOutputSocket: "OutSocket",
	KindStageCtl:     "StageCtl",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Component bundles the generated netlists and interface metadata for one
// library element.
type Component struct {
	Kind Kind
	Name string

	// Comb is the combinational core (nil for pure-register components
	// such as the Immediate unit).
	Comb *netlist.Netlist
	// Seq is the pipelined component including its O/T/R registers and
	// stage-control state.
	Seq *netlist.Netlist

	// Interface shape: number of input data ports (operand+trigger) and
	// output data ports, as seen from the MOVE buses.
	NumIn  int
	NumOut int
	// Width is the data-path width in bits.
	Width int

	// Register-file shape (KindRF only).
	NumRegs int
}

// NumConnectors returns n_conn, the total number of bus connectors
// (input + output data ports) of the component — the quantity in the
// paper's test cost function (1).
func (c *Component) NumConnectors() int { return c.NumIn + c.NumOut }

// SeqFFs returns the number of flip-flops in the pipelined form; together
// with the component's sockets this determines the scan-chain length n_l.
func (c *Component) SeqFFs() int { return len(c.Seq.FFs) }

// AdderKind selects the adder microarchitecture inside the ALU — one of
// the design choices the ablation benchmarks sweep.
type AdderKind uint8

// Adder microarchitectures.
const (
	AdderRipple AdderKind = iota
	AdderCarrySelect
)

func (a AdderKind) String() string {
	switch a {
	case AdderRipple:
		return "ripple"
	case AdderCarrySelect:
		return "carry-select"
	default:
		return fmt.Sprintf("AdderKind(%d)", uint8(a))
	}
}

// ALUConfig parametrizes the ALU generator.
type ALUConfig struct {
	Width int
	Adder AdderKind
}

// RFConfig parametrizes the register-file generator.
type RFConfig struct {
	Width   int
	NumRegs int
	NumIn   int // write ports
	NumOut  int // read ports
}

// Validate reports whether the configuration is buildable.
func (c RFConfig) Validate() error {
	if c.Width < 1 || c.NumRegs < 2 || c.NumIn < 1 || c.NumOut < 1 {
		return fmt.Errorf("gatelib: invalid RF config %+v", c)
	}
	return nil
}

// String names the configuration "RF<regs>x<width>_<in>w<out>r", the
// register file's key in the library and in the annotation cache. It is
// built with strconv rather than fmt: the guided search's screen keys
// every register file of every genome by it.
func (c RFConfig) String() string {
	var buf [24]byte
	return string(c.AppendString(buf[:0]))
}

// AppendString appends the configuration's String to b.
func (c RFConfig) AppendString(b []byte) []byte {
	b = append(b, "RF"...)
	b = strconv.AppendInt(b, int64(c.NumRegs), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(c.Width), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(c.NumIn), 10)
	b = append(b, 'w')
	b = strconv.AppendInt(b, int64(c.NumOut), 10)
	return append(b, 'r')
}

// Library caches generated components by configuration so the (expensive)
// generation and downstream ATPG run once per distinct configuration, as in
// the paper's pre-designed component library.
type Library struct {
	mu    sync.Mutex
	cache map[string]*Component
}

// NewLibrary returns an empty component library.
func NewLibrary() *Library {
	return &Library{cache: make(map[string]*Component)}
}

func (l *Library) memo(key string, gen func() (*Component, error)) (*Component, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	c, err := gen()
	if err != nil {
		return nil, err
	}
	l.cache[key] = c
	return c, nil
}

// ALU returns the cached ALU for the configuration.
func (l *Library) ALU(cfg ALUConfig) (*Component, error) {
	key := fmt.Sprintf("alu/w%d/%s", cfg.Width, cfg.Adder)
	return l.memo(key, func() (*Component, error) { return NewALU(cfg) })
}

// CMP returns the cached comparator for the width.
func (l *Library) CMP(width int) (*Component, error) {
	key := fmt.Sprintf("cmp/w%d", width)
	return l.memo(key, func() (*Component, error) { return NewCMP(width) })
}

// RF returns the cached register file for the configuration.
func (l *Library) RF(cfg RFConfig) (*Component, error) {
	key := "rf/" + cfg.String()
	return l.memo(key, func() (*Component, error) { return NewRF(cfg) })
}

// LDST returns the cached load/store unit for the width.
func (l *Library) LDST(width int) (*Component, error) {
	key := fmt.Sprintf("ldst/w%d", width)
	return l.memo(key, func() (*Component, error) { return NewLDST(width) })
}

// PC returns the cached program counter for the width.
func (l *Library) PC(width int) (*Component, error) {
	key := fmt.Sprintf("pc/w%d", width)
	return l.memo(key, func() (*Component, error) { return NewPC(width) })
}

// IMM returns the cached immediate unit for the width.
func (l *Library) IMM(width int) (*Component, error) {
	key := fmt.Sprintf("imm/w%d", width)
	return l.memo(key, func() (*Component, error) { return NewIMM(width) })
}

// InputSocket returns the cached input socket for an ID width.
func (l *Library) InputSocket(idBits int) (*Component, error) {
	key := fmt.Sprintf("isock/id%d", idBits)
	return l.memo(key, func() (*Component, error) { return NewInputSocket(idBits) })
}

// OutputSocket returns the cached output socket for an ID width.
func (l *Library) OutputSocket(idBits int) (*Component, error) {
	key := fmt.Sprintf("osock/id%d", idBits)
	return l.memo(key, func() (*Component, error) { return NewOutputSocket(idBits) })
}
