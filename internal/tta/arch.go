// Package tta models transport-triggered architectures at the level the
// design/test space exploration works on: components (function units and
// register files) with operand/trigger/result ports, MOVE buses, sockets,
// and the port-to-bus assignment. It also encodes the paper's
// transport-timing relations (2)-(8) and the resulting minimum
// cycle-distance CD(t_Din, t_Dout) of equations (9)-(10).
package tta

import (
	"fmt"
	"strings"

	"repro/internal/gatelib"
)

// Kind identifies a datapath component class.
type Kind uint8

// Component kinds of the paper's figure 9 template.
const (
	ALU Kind = iota
	CMP
	RF
	LDST
	PC
	IMM
)

var kindNames = [...]string{"ALU", "CMP", "RF", "LD/ST", "PC", "IMM"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// PortRole distinguishes the register class behind a bus connector.
type PortRole uint8

// Port roles: the paper's O (operand), T (trigger) and R (result)
// registers for function units; register files expose write and read
// ports.
const (
	Operand PortRole = iota
	Trigger
	Result
	WritePort
	ReadPort
)

var roleNames = [...]string{"O", "T", "R", "W", "Rd"}

func (r PortRole) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// IsInput reports whether the role receives data from a bus.
func (r PortRole) IsInput() bool {
	return r == Operand || r == Trigger || r == WritePort
}

// Port is one bus connector of a component.
type Port struct {
	Role PortRole
	// Bus is the index of the MOVE bus this connector is attached to
	// (set by an assignment strategy; -1 while unassigned).
	Bus int
}

// Component is one datapath element of a candidate architecture.
type Component struct {
	Kind  Kind
	Name  string
	Ports []Port

	// Register-file shape (Kind == RF only).
	NumRegs int
	NumIn   int
	NumOut  int

	// Adder selects the ALU microarchitecture (Kind == ALU only).
	Adder gatelib.AdderKind
}

// NumConnectors returns n_conn, the connector count entering the test cost
// function.
func (c *Component) NumConnectors() int { return len(c.Ports) }

// PortCounts returns the number of bus-receiving (in) and bus-driving
// (out) ports, without building InputPorts' and OutputPorts' index lists.
func (c *Component) PortCounts() (in, out int) {
	for _, p := range c.Ports {
		if p.Role.IsInput() {
			in++
		}
	}
	return in, len(c.Ports) - in
}

// InputPorts returns the indices of bus-receiving ports.
func (c *Component) InputPorts() []int {
	var out []int
	for i, p := range c.Ports {
		if p.Role.IsInput() {
			out = append(out, i)
		}
	}
	return out
}

// OutputPorts returns the indices of bus-driving ports.
func (c *Component) OutputPorts() []int {
	var out []int
	for i, p := range c.Ports {
		if !p.Role.IsInput() {
			out = append(out, i)
		}
	}
	return out
}

// NewFU builds a standard two-input one-output function unit (O, T, R).
func NewFU(kind Kind, name string) Component {
	return Component{
		Kind: kind,
		Name: name,
		Ports: []Port{
			{Role: Operand, Bus: -1},
			{Role: Trigger, Bus: -1},
			{Role: Result, Bus: -1},
		},
	}
}

// NewRF builds a register file with nIn write and nOut read ports.
func NewRF(name string, numRegs, nIn, nOut int) Component {
	c := Component{Kind: RF, Name: name, NumRegs: numRegs, NumIn: nIn, NumOut: nOut,
		Ports: make([]Port, 0, max(nIn, 0)+max(nOut, 0))}
	for i := 0; i < nIn; i++ {
		c.Ports = append(c.Ports, Port{Role: WritePort, Bus: -1})
	}
	for i := 0; i < nOut; i++ {
		c.Ports = append(c.Ports, Port{Role: ReadPort, Bus: -1})
	}
	return c
}

// NewPC builds the program counter (branch-target trigger in, PC value
// out).
func NewPC(name string) Component {
	return Component{
		Kind: PC,
		Name: name,
		Ports: []Port{
			{Role: Trigger, Bus: -1},
			{Role: Result, Bus: -1},
		},
	}
}

// NewIMM builds the immediate unit (result port only; the value itself is
// carried by the instruction word).
func NewIMM(name string) Component {
	return Component{
		Kind:  IMM,
		Name:  name,
		Ports: []Port{{Role: Result, Bus: -1}},
	}
}

// Architecture is one point of the design space: a bus count and a set of
// components with (possibly assigned) port-to-bus connections.
type Architecture struct {
	Name       string
	Width      int
	Buses      int
	Components []Component
}

// Clone deep-copies the architecture (ports included).
func (a *Architecture) Clone() *Architecture {
	out := &Architecture{Name: a.Name, Width: a.Width, Buses: a.Buses}
	out.Components = make([]Component, len(a.Components))
	for i, c := range a.Components {
		cc := c
		cc.Ports = append([]Port(nil), c.Ports...)
		out.Components[i] = cc
	}
	return out
}

// NumSockets returns the socket count: one socket per bus connector (the
// control unit of a TTA is distributed over its sockets).
func (a *Architecture) NumSockets() int {
	n := 0
	for i := range a.Components {
		n += a.Components[i].NumConnectors()
	}
	return n
}

// ComponentsOf returns indices of all components of a kind.
func (a *Architecture) ComponentsOf(kind Kind) []int {
	var out []int
	for i := range a.Components {
		if a.Components[i].Kind == kind {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural well-formedness: positive width and buses,
// port roles appropriate for each kind, and bus indices in range once
// assigned.
func (a *Architecture) Validate() error {
	if a.Width < 2 {
		return fmt.Errorf("tta: width %d < 2", a.Width)
	}
	if a.Buses < 1 {
		return fmt.Errorf("tta: bus count %d < 1", a.Buses)
	}
	for ci := range a.Components {
		c := &a.Components[ci]
		in, out := c.PortCounts()
		switch c.Kind {
		case ALU, CMP, LDST:
			if in != 2 || out != 1 {
				return fmt.Errorf("tta: %s %q must have 2 inputs + 1 output", c.Kind, c.Name)
			}
		case RF:
			if c.NumRegs < 2 {
				return fmt.Errorf("tta: RF %q has %d registers", c.Name, c.NumRegs)
			}
			if in != c.NumIn || out != c.NumOut {
				return fmt.Errorf("tta: RF %q port/shape mismatch", c.Name)
			}
		case PC:
			if in != 1 || out != 1 {
				return fmt.Errorf("tta: PC %q must have 1 input + 1 output", c.Name)
			}
		case IMM:
			if in != 0 || out != 1 {
				return fmt.Errorf("tta: IMM %q must have exactly 1 output", c.Name)
			}
		}
		for pi, p := range c.Ports {
			if p.Bus >= a.Buses {
				return fmt.Errorf("tta: %q port %d assigned to bus %d of %d", c.Name, pi, p.Bus, a.Buses)
			}
		}
	}
	return nil
}

// Assigned reports whether every port has a bus.
func (a *Architecture) Assigned() bool {
	for ci := range a.Components {
		for _, p := range a.Components[ci].Ports {
			if p.Bus < 0 {
				return false
			}
		}
	}
	return true
}

// String renders a compact architecture description.
func (a *Architecture) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d-bit, %d bus(es):", a.Name, a.Width, a.Buses)
	for ci := range a.Components {
		c := &a.Components[ci]
		if c.Kind == RF {
			fmt.Fprintf(&b, " %s(%d regs,%dw%dr)", c.Name, c.NumRegs, c.NumIn, c.NumOut)
		} else {
			fmt.Fprintf(&b, " %s", c.Name)
		}
	}
	return b.String()
}

// Figure9 returns the paper's selected architecture (figure 9): a 16-bit
// datapath with one ALU, one CMP, RF1 with 8 registers, RF2 with 12
// registers, the LD/ST unit, PC and immediate unit. The paper draws a
// small number of shared buses; two MOVE buses reproduce its port
// contention profile.
func Figure9() *Architecture {
	a := &Architecture{
		Name:  "figure9",
		Width: 16,
		Buses: 2,
		Components: []Component{
			NewFU(ALU, "ALU"),
			NewFU(CMP, "CMP"),
			NewRF("RF1", 8, 1, 1),
			NewRF("RF2", 12, 1, 1),
			NewFU(LDST, "LD/ST"),
			NewPC("PC"),
			NewIMM("Immediate"),
		},
	}
	AssignPorts(a, SpreadFirst)
	return a
}
