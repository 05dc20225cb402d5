// Package sim executes scheduled move programs cycle by cycle against the
// behavioural semantics of the TTA components: register files, the
// ALU/CMP/LD-ST function units with their O/T/R hybrid-pipeline registers,
// and immediate sourcing. It is the ground truth that demonstrates a
// schedule produced by internal/sched really computes the program — every
// transported value is checked against the dataflow reference evaluation.
package sim

import (
	"fmt"
	"maps"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
)

// fuState is the runtime state of one function unit.
type fuState struct {
	o         uint64
	oValid    bool
	result    uint64
	resultAt  int // earliest bus cycle the result may move out
	hasResult bool
}

// Trace optionally collects per-cycle activity for debugging and the
// examples' pretty-printing.
type Trace struct {
	Lines []string
}

// Options controls a simulation run.
type Options struct {
	// Verify cross-checks every transported value against the reference
	// dataflow evaluation (strongly recommended; small overhead).
	Verify bool
	// Trace collects a human-readable transport log when non-nil.
	Trace *Trace
	// ExecOverride, when non-nil, may take over the execution of a
	// triggered ALU/CMP operation on a specific component — the hook
	// fault-injection campaigns use to substitute a faulty gate-level
	// netlist for the behavioural semantics. Return handled=false to fall
	// back to the normal execution.
	ExecOverride func(comp int, op program.OpCode, o, t uint64) (result uint64, handled bool)
	// Obs, when non-nil, receives simulation metrics: runs, cycles
	// executed and moves transported (counters "sim.*").
	Obs *obs.Registry
}

// Run executes the schedule with the given program inputs and memory
// image, returning the program outputs. The memory map is mutated by
// stores (pass a copy to keep the original). It is one iteration of an
// Instance over mem, with the reference values computed before the inputs
// are seeded when opts.Verify is set.
func Run(res *sched.Result, inputs []uint64, mem program.Memory, opts Options) ([]uint64, error) {
	if mem == nil {
		mem = program.Memory{}
	}
	in := newInstance(res, opts, mem)
	in.once = true
	if opts.Verify {
		ref, err := referenceValues(res.Graph, inputs, maps.Clone(mem))
		if err != nil {
			return nil, err
		}
		in.ref = ref
	}
	if err := in.SeedInputs(inputs); err != nil {
		return nil, err
	}
	if err := in.RunIteration(); err != nil {
		return nil, err
	}
	if r := opts.Obs; r != nil {
		r.Counter("sim.runs").Inc()
		r.Counter("sim.cycles").Add(int64(in.maxCyc + 1))
		r.Counter("sim.moves").Add(int64(len(res.Moves)))
	}
	return in.ReadOutputs()
}

// referenceValues evaluates every op of the graph (not only outputs).
func referenceValues(g *program.Graph, inputs []uint64, mem program.Memory) ([]uint64, error) {
	// Re-run the evaluator but capture all intermediate values by making
	// every defining op an output of a shadow graph evaluation.
	shadow := *g
	shadow.Outputs = nil
	for i, op := range g.Ops {
		if op.Defines() {
			shadow.Outputs = append(shadow.Outputs, program.ValueID(i))
		}
	}
	outs, err := program.Evaluate(&shadow, inputs, mem)
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, len(g.Ops))
	k := 0
	for i, op := range g.Ops {
		if op.Defines() {
			vals[i] = outs[k]
			k++
		}
	}
	return vals, nil
}

// commitSpill executes the destination side of compiler-inserted spill
// traffic: the LD/ST unit stores a victim register to the spill region or
// reloads it from there.
func commitSpill(arch *tta.Architecture, rfData map[int][]uint64, fus map[int]*fuState, mem program.Memory, m sched.Move, v uint64, cycle int, mask uint64) error {
	switch m.Spill {
	case sched.SpillStoreAddr:
		fu := fus[m.Dst.Comp]
		fu.o = v & mask
		fu.oValid = true
		return nil
	case sched.SpillStoreData:
		fu := fus[m.Dst.Comp]
		if !fu.oValid {
			return fmt.Errorf("sim: spill store %v with empty address register", m)
		}
		mem[fu.o] = v & mask
		fu.oValid = false
		return nil
	case sched.SpillLoadTrig:
		fu := fus[m.Dst.Comp]
		fu.result = mem[v&mask] & mask
		fu.hasResult = true
		fu.resultAt = cycle + 3
		return nil
	case sched.SpillLoadResult:
		if m.Dst.Reg < 0 || m.Dst.Reg >= len(rfData[m.Dst.Comp]) {
			return fmt.Errorf("sim: spill reload %v writes invalid register", m)
		}
		rfData[m.Dst.Comp][m.Dst.Reg] = v & mask
		return nil
	default:
		return fmt.Errorf("sim: unknown spill kind %d", m.Spill)
	}
}

func sampleSource(arch *tta.Architecture, rfData map[int][]uint64, fus map[int]*fuState, m sched.Move, cycle int) (uint64, error) {
	src := m.Src
	c := &arch.Components[src.Comp]
	switch c.Kind {
	case tta.IMM:
		return src.Imm, nil
	case tta.RF:
		if src.Reg < 0 || src.Reg >= len(rfData[src.Comp]) {
			return 0, fmt.Errorf("sim: move %v reads invalid register", m)
		}
		return rfData[src.Comp][src.Reg], nil
	case tta.ALU, tta.CMP, tta.LDST:
		fu := fus[src.Comp]
		if !fu.hasResult {
			return 0, fmt.Errorf("sim: move %v reads result of idle unit %s", m, c.Name)
		}
		if cycle < fu.resultAt {
			return 0, fmt.Errorf("sim: move %v reads result at cycle %d, ready at %d (relation (8) violated)",
				m, cycle, fu.resultAt)
		}
		return fu.result, nil
	default:
		return 0, fmt.Errorf("sim: move %v has unsupported source kind %s", m, c.Kind)
	}
}

func commitDest(g *program.Graph, arch *tta.Architecture, rfData map[int][]uint64, fus map[int]*fuState, mem program.Memory, m sched.Move, v uint64, cycle int, mask uint64,
	execOverride func(int, program.OpCode, uint64, uint64) (uint64, bool)) error {
	dst := m.Dst
	c := &arch.Components[dst.Comp]
	if m.Spill != sched.SpillNone {
		return commitSpill(arch, rfData, fus, mem, m, v, cycle, mask)
	}
	switch c.Kind {
	case tta.RF:
		if dst.Reg < 0 || dst.Reg >= len(rfData[dst.Comp]) {
			return fmt.Errorf("sim: move %v writes invalid register", m)
		}
		rfData[dst.Comp][dst.Reg] = v & mask
		return nil
	case tta.ALU, tta.CMP, tta.LDST:
		fu := fus[dst.Comp]
		role := c.Ports[dst.Port].Role
		if role == tta.Operand {
			fu.o = v & mask
			fu.oValid = true
			return nil
		}
		if role != tta.Trigger {
			return fmt.Errorf("sim: move %v writes non-input port of %s", m, c.Name)
		}
		// Trigger: execute the operation.
		op := g.Ops[m.Op]
		switch op.Op.Class() {
		case program.ClassALU, program.ClassCMP:
			if !fu.oValid {
				return fmt.Errorf("sim: op %d triggered on %s with empty operand register", m.Op, c.Name)
			}
			var r uint64
			var handled bool
			if execOverride != nil {
				r, handled = execOverride(m.Dst.Comp, op.Op, fu.o, v&mask)
			}
			if !handled {
				var err error
				r, err = program.EvalBinary(op.Op, fu.o, v&mask, g.Width)
				if err != nil {
					return err
				}
			}
			fu.result = r & mask
			fu.hasResult = true
			fu.resultAt = cycle + 3
			fu.oValid = false
		case program.ClassMem:
			if op.Op == program.Load {
				fu.result = mem[v&mask] & mask
				fu.hasResult = true
				fu.resultAt = cycle + 3
			} else { // Store: O holds the address, T the data.
				if !fu.oValid {
					return fmt.Errorf("sim: store %d triggered with empty address register", m.Op)
				}
				mem[fu.o] = v & mask
				fu.hasResult = false
				fu.oValid = false
			}
		default:
			return fmt.Errorf("sim: op %d of class %d cannot execute on %s", m.Op, op.Op.Class(), c.Kind)
		}
		return nil
	default:
		return fmt.Errorf("sim: move %v targets unsupported component kind %s", m, c.Kind)
	}
}
