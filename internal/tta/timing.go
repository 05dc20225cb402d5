package tta

import "fmt"

// OpTiming records the clock cycles of one operation's register transports
// through a pipelined component: the instruction-decode flip-flops F_in and
// F_out of the sockets and the O, T, R registers of the component (the
// paper's figure 3). A value of -1 for O marks a single-operand operation.
type OpTiming struct {
	Fin  int // decode of the incoming move(s)
	O    int // operand register load (-1 if unused)
	T    int // trigger register load
	R    int // result register load
	Fout int // decode of the outgoing move
}

// CheckRelations verifies the paper's transport-timing relations (2)-(8)
// over a sequence of operations executed by the same component. ops must
// be given in trigger order for the cross-operation relations (4)-(5).
func CheckRelations(ops []OpTiming) error {
	for i, op := range ops {
		if op.O >= 0 && op.T-op.O < 0 {
			return fmt.Errorf("op %d violates (2): C(T)-C(O) = %d < 0", i, op.T-op.O)
		}
		if op.R-op.T < 1 {
			return fmt.Errorf("op %d violates (3): C(R)-C(T) = %d < 1", i, op.R-op.T)
		}
		if op.O >= 0 && op.O-op.Fin < 1 {
			return fmt.Errorf("op %d violates (6): C(O)-C(Fin) = %d < 1", i, op.O-op.Fin)
		}
		if op.T-op.Fin < 1 {
			return fmt.Errorf("op %d violates (7): C(T)-C(Fin) = %d < 1", i, op.T-op.Fin)
		}
		if op.Fout-op.R < 1 {
			return fmt.Errorf("op %d violates (8): C(Fout)-C(R) = %d < 1", i, op.Fout-op.R)
		}
	}
	for i := 0; i < len(ops); i++ {
		for j := 0; j < len(ops); j++ {
			if i == j {
				continue
			}
			// (4): Ci(T) > Cj(T) <=> Ci(R) > Cj(R) — results in trigger order.
			if (ops[i].T > ops[j].T) != (ops[i].R > ops[j].R) {
				return fmt.Errorf("ops %d,%d violate (4): trigger order %d,%d but result order %d,%d",
					i, j, ops[i].T, ops[j].T, ops[i].R, ops[j].R)
			}
			// (5): Ci(T) > Cj(T) => Ci(O) > Cj(T) — a later operation must
			// not overwrite the operand before the earlier trigger uses it.
			if ops[i].O >= 0 && ops[i].T > ops[j].T && !(ops[i].O > ops[j].T) {
				return fmt.Errorf("ops %d,%d violate (5): C(O)=%d not after C(T)=%d",
					i, j, ops[i].O, ops[j].T)
			}
		}
	}
	return nil
}

// CD returns CD(t_Din, t_Dout): the minimum number of clock cycles between
// applying data to the component from a MOVE bus and reading its response
// back onto a bus, as a function of the port-to-bus assignment
// (equations (9) and (10) of the paper).
//
// With every input port on its own bus, the operand and trigger arrive
// together and CD = 3 (F_in->T, T->R, R->F_out, eq. 9). Every additional
// input port that must share a bus serializes one more transport (eq. 10),
// and a result port sharing a bus with an input adds a final turnaround
// slot ("the number of cycles will further increase if all of the
// registers are tied to the same bus").
func (c *Component) CD() int {
	// A component has a handful of ports, so each input port counts the
	// input ports sharing its bus, and notes an output port there, by a
	// scan of all ports.
	maxShare, turnaround := 1, false
	for _, p := range c.Ports {
		if !p.Role.IsInput() {
			continue
		}
		share := 0
		for _, q := range c.Ports {
			if q.Bus != p.Bus {
				continue
			}
			if q.Role.IsInput() {
				share++
			} else {
				turnaround = true
			}
		}
		maxShare = max(maxShare, share)
	}
	cd := maxShare + 2
	if turnaround {
		cd++
	}
	return cd
}

// MinCD is the lower bound of equation (9).
const MinCD = 3

// CDOfTiming derives the cycle distance of one operation directly from its
// recorded timing, the left side of equations (9)-(10).
func CDOfTiming(op OpTiming) int {
	return op.Fout - op.Fin
}
