package sim

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
)

// Instance is a persistent TTA execution context: register files, function
// units and memory survive across iterations of the same move program.
// This is how a looped application (crypt's 25 DES iterations over one
// instruction block) executes: seed the loop-carried values once, run the
// block repeatedly, and let epilogue copy moves chain each iteration's
// outputs into the next iteration's input registers.
type Instance struct {
	res  *sched.Result
	opts Options
	// once marks the instance Run executes: its trace lines carry no
	// iteration number, and under opts.Verify every transported value
	// is checked against ref, the reference evaluation of the graph.
	once bool
	ref  []uint64

	rfData  map[int][]uint64
	fus     map[int]*fuState
	Mem     program.Memory
	byCycle map[int][]sched.Move
	maxCyc  int
	mask    uint64

	// Iterations counts completed RunIteration calls.
	Iterations int
}

// NewInstance prepares a persistent executor for the schedule. Verify mode
// is not supported (values differ per iteration); pass moves-only options.
func NewInstance(res *sched.Result, opts Options) (*Instance, error) {
	if opts.Verify {
		return nil, fmt.Errorf("sim: Verify is per-run; unsupported on persistent instances")
	}
	return newInstance(res, opts, program.Memory{}), nil
}

// newInstance builds the register files, function units and per-cycle
// move groups of the schedule over the memory mem.
func newInstance(res *sched.Result, opts Options, mem program.Memory) *Instance {
	in := &Instance{
		res:     res,
		opts:    opts,
		rfData:  map[int][]uint64{},
		fus:     map[int]*fuState{},
		Mem:     mem,
		byCycle: map[int][]sched.Move{},
		mask:    uint64(1)<<uint(res.Graph.Width) - 1,
	}
	for ci := range res.Arch.Components {
		switch res.Arch.Components[ci].Kind {
		case tta.RF:
			in.rfData[ci] = make([]uint64, res.Arch.Components[ci].NumRegs)
		case tta.ALU, tta.CMP, tta.LDST:
			in.fus[ci] = &fuState{}
		}
	}
	for _, m := range res.Moves {
		in.byCycle[m.Cycle] = append(in.byCycle[m.Cycle], m)
		if m.Cycle > in.maxCyc {
			in.maxCyc = m.Cycle
		}
	}
	return in
}

// SeedInputs writes the program inputs into their registers (once, before
// the first iteration).
func (in *Instance) SeedInputs(inputs []uint64) error {
	idx := 0
	for i, op := range in.res.Graph.Ops {
		if op.Op != program.Input {
			continue
		}
		if idx >= len(inputs) {
			return fmt.Errorf("sim: %d inputs supplied, program needs more", len(inputs))
		}
		loc, ok := in.res.InputLoc[program.ValueID(i)]
		if !ok {
			return fmt.Errorf("sim: input %d has no register allocation", i)
		}
		in.rfData[loc.RF][loc.Reg] = inputs[idx] & in.mask
		idx++
	}
	if idx != len(inputs) {
		return fmt.Errorf("sim: %d inputs supplied, program declares %d", len(inputs), idx)
	}
	return nil
}

// PokeRegister overrides one register (loop-carried state adjustments).
func (in *Instance) PokeRegister(loc sched.RegLoc, v uint64) error {
	regs, ok := in.rfData[loc.RF]
	if !ok || loc.Reg < 0 || loc.Reg >= len(regs) {
		return fmt.Errorf("sim: invalid register %v", loc)
	}
	regs[loc.Reg] = v & in.mask
	return nil
}

// PeekRegister reads one register.
func (in *Instance) PeekRegister(loc sched.RegLoc) (uint64, error) {
	regs, ok := in.rfData[loc.RF]
	if !ok || loc.Reg < 0 || loc.Reg >= len(regs) {
		return 0, fmt.Errorf("sim: invalid register %v", loc)
	}
	return regs[loc.Reg], nil
}

// RunIteration executes the whole move program once against the persistent
// state.
func (in *Instance) RunIteration() error {
	g := in.res.Graph
	arch := in.res.Arch
	type commit struct {
		move  sched.Move
		value uint64
	}
	var iter string
	if in.opts.Trace != nil && !in.once {
		iter = fmt.Sprintf("iter %3d ", in.Iterations)
	}
	for cycle := 0; cycle <= in.maxCyc; cycle++ {
		moves := in.byCycle[cycle]
		if len(moves) == 0 {
			continue
		}
		if len(moves) > arch.Buses {
			return fmt.Errorf("sim: cycle %d schedules %d moves on %d buses", cycle, len(moves), arch.Buses)
		}
		commits := make([]commit, 0, len(moves))
		for _, m := range moves {
			v, err := sampleSource(arch, in.rfData, in.fus, m, cycle)
			if err != nil {
				return err
			}
			if in.opts.Verify && m.Val != program.NoValue {
				if want := in.ref[m.Val]; v != want {
					return fmt.Errorf("sim: cycle %d move %v transports %#x, reference value %d is %#x",
						cycle, m, v, m.Val, want)
				}
			}
			if in.opts.Trace != nil {
				in.opts.Trace.Lines = append(in.opts.Trace.Lines,
					fmt.Sprintf("%scycle %4d: %v = %#04x", iter, cycle, m, v))
			}
			commits = append(commits, commit{move: m, value: v})
		}
		for _, c := range commits {
			if err := commitDest(g, arch, in.rfData, in.fus, in.Mem, c.move, c.value, cycle, in.mask, in.opts.ExecOverride); err != nil {
				return err
			}
		}
	}
	in.Iterations++
	return nil
}

// ReadOutputs returns the program outputs from the current register state.
func (in *Instance) ReadOutputs() ([]uint64, error) {
	out := make([]uint64, len(in.res.Graph.Outputs))
	for i, o := range in.res.Graph.Outputs {
		loc, ok := in.res.RegAlloc[o]
		if !ok {
			return nil, fmt.Errorf("sim: output value %d was never written back", o)
		}
		out[i] = in.rfData[loc.RF][loc.Reg]
	}
	return out, nil
}

// AppendEpilogueCopies appends register-to-register copy moves to a
// schedule so an iteration's outputs land in the next iteration's input
// registers. Copies are packed after the last scheduled cycle under the
// bus and register-file port limits; all copies of one cycle sample their
// sources before any destination commits, so overlapping source/dest sets
// are handled by same-cycle grouping. A copy whose source would be
// clobbered by an earlier epilogue cycle is rejected.
func AppendEpilogueCopies(res *sched.Result, pairs [][2]sched.RegLoc) error {
	arch := res.Arch
	cycle := res.Cycles // first free cycle after the program body
	clobbered := map[sched.RegLoc]bool{}
	remaining := append([][2]sched.RegLoc(nil), pairs...)
	for len(remaining) > 0 {
		busUsed := 0
		reads := map[int]int{}
		writes := map[int]int{}
		var defer2 [][2]sched.RegLoc
		scheduledAny := false
		writtenThisCycle := map[sched.RegLoc]bool{}
		for _, pr := range remaining {
			src, dst := pr[0], pr[1]
			if clobbered[src] {
				return fmt.Errorf("sim: epilogue copy source %v clobbered by an earlier copy", src)
			}
			srcC := &arch.Components[src.RF]
			dstC := &arch.Components[dst.RF]
			if busUsed >= arch.Buses || reads[src.RF] >= srcC.NumOut || writes[dst.RF] >= dstC.NumIn {
				defer2 = append(defer2, pr)
				continue
			}
			busUsed++
			outs := srcC.OutputPorts()
			ins := dstC.InputPorts()
			res.Moves = append(res.Moves, sched.Move{
				Cycle: cycle,
				Src:   sched.Endpoint{Comp: src.RF, Port: outs[reads[src.RF]%len(outs)], Reg: src.Reg},
				Dst:   sched.Endpoint{Comp: dst.RF, Port: ins[writes[dst.RF]%len(ins)], Reg: dst.Reg},
				Val:   program.NoValue, Op: program.NoValue,
			})
			reads[src.RF]++
			writes[dst.RF]++
			writtenThisCycle[dst] = true
			scheduledAny = true
		}
		if !scheduledAny {
			return fmt.Errorf("sim: epilogue copies do not fit the architecture's ports")
		}
		for loc := range writtenThisCycle {
			clobbered[loc] = true
		}
		remaining = defer2
		cycle++
	}
	res.Cycles = cycle
	return nil
}
