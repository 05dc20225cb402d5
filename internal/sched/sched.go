// Package sched schedules operation dataflow graphs onto TTA architectures
// as data-transport (move) programs — the role the MOVE framework's
// compiler/scheduler plays in the paper. It performs priority-based list
// scheduling under the architecture's resource constraints:
//
//   - at most n_b moves per cycle (one per MOVE bus; the interconnection
//     network is a full crossbar, as in the paper's figure 1);
//   - one operation in flight per function unit (conservative hybrid
//     pipelining: a unit is busy from its first operand move until its
//     result leaves through the output socket);
//   - register-file read/write ports limit operand fetch and writeback
//     bandwidth, and register capacity limits live values;
//   - one immediate per cycle per Immediate unit.
//
// Transport timing follows the paper's relations (2)-(8): a move on the
// bus at cycle t passes the socket decode (F_in) at t and loads the O or T
// register at t+1; the result register R loads one cycle after the
// trigger; the result may leave on a bus no earlier than one cycle after
// that (F_out). The minimum bus-to-bus distance is therefore CD = 3
// cycles, equation (9).
package sched

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/tta"
)

// Endpoint is one side of a move: a component port, optionally a register
// within a register file. A source endpoint on an Immediate unit carries
// the literal in Imm (the value travels in the instruction's immediate
// field).
type Endpoint struct {
	Comp int // component index in the architecture
	Port int // port index within the component
	Reg  int // register index for RF endpoints, -1 otherwise
	Imm  uint64
}

func (e Endpoint) String() string {
	if e.Reg >= 0 {
		return fmt.Sprintf("c%d.p%d[r%d]", e.Comp, e.Port, e.Reg)
	}
	return fmt.Sprintf("c%d.p%d", e.Comp, e.Port)
}

// SpillKind classifies the moves of compiler-inserted register spills.
type SpillKind uint8

// Spill move kinds. Spill code is emitted by the scheduler when register
// pressure exceeds the architecture's register-file capacity: the victim
// value is stored to a reserved memory region through the LD/ST unit and
// reloaded before its next use. Since IR values are immutable (SSA), a
// value that already has a spill slot can be dropped from its register
// without a second store.
const (
	SpillNone       SpillKind = iota
	SpillStoreAddr            // immediate spill address -> LD/ST operand
	SpillStoreData            // register value -> LD/ST trigger (memory write)
	SpillLoadTrig             // immediate spill address -> LD/ST trigger (memory read)
	SpillLoadResult           // LD/ST result -> register
)

// SpillBase is the first word address of the reserved spill region.
// Programs must not address memory at or above this base.
const SpillBase uint64 = 0xE000

// Move is one scheduled data transport.
type Move struct {
	Cycle   int
	Src     Endpoint
	Dst     Endpoint
	Val     program.ValueID // value transported (NoValue for a dummy)
	Op      program.ValueID // graph operation this move belongs to (NoValue for spills)
	Trigger bool            // this move loads the trigger register
	Spill   SpillKind
}

func (m Move) String() string {
	t := ""
	if m.Trigger {
		t = "!"
	}
	return fmt.Sprintf("@%d %s -> %s%s", m.Cycle, m.Src, m.Dst, t)
}

// RegLoc records where a value was allocated.
type RegLoc struct {
	RF  int // component index of the register file
	Reg int
}

// Result is a complete schedule.
type Result struct {
	Arch   *tta.Architecture
	Graph  *program.Graph
	Moves  []Move
	Cycles int
	// Timings maps FU-executed graph ops to their transport timing, for
	// verification against the paper's relations. Stores are omitted (they
	// produce no F_out event).
	Timings map[program.ValueID]tta.OpTiming
	// FUOf maps graph ops to the component index that executed them.
	FUOf map[program.ValueID]int
	// RegAlloc maps values to their final register-file location.
	RegAlloc map[program.ValueID]RegLoc
	// InputLoc maps program inputs to the registers they must be seeded
	// into before execution (their initial placement; RegAlloc may differ
	// after spilling).
	InputLoc map[program.ValueID]RegLoc
	// PeakLive is the maximum simultaneously allocated registers.
	PeakLive int
	// Spills and Reloads count the spill traffic the register pressure
	// forced (0 on amply-registered architectures).
	Spills  int
	Reloads int
}

// MovesPerCycle returns a histogram of bus occupancy.
func (r *Result) MovesPerCycle() []int {
	h := make([]int, r.Cycles+1)
	for _, m := range r.Moves {
		h[m.Cycle]++
	}
	return h
}

// Priority selects the list-scheduling order.
type Priority uint8

// Scheduling priorities.
const (
	// CriticalPath orders ready operations by their longest path to an
	// output (the standard list-scheduling heuristic; default).
	CriticalPath Priority = iota
	// SourceOrder keeps program order — the naive baseline the ablation
	// benchmarks compare against.
	SourceOrder
)

func (p Priority) String() string {
	if p == SourceOrder {
		return "source-order"
	}
	return "critical-path"
}

// Options tunes the scheduler.
type Options struct {
	// MaxCycles aborts a runaway schedule (0 = derive from graph size).
	MaxCycles int
	// Priority selects the list-scheduling order (default CriticalPath).
	Priority Priority
	// Obs, when non-nil, receives scheduler metrics: cycles iterated,
	// moves emitted, spill/reload traffic and stall cycles (counters
	// "sched.*"). A nil registry costs nothing.
	Obs *obs.Registry
}

type valueState struct {
	loc      RegLoc
	readyAt  int // cycle from which the value can be read from its RF
	usesLeft int
	isConst  bool
	constVal uint64
	alloc    bool
	isOutput bool // outputs are pinned in registers (never spilled)

	spillSlot    int  // memory slot index (-1 = none assigned)
	spillValid   bool // the memory copy at spillSlot is written and usable
	spillReadyAt int  // earliest cycle a reload may trigger
	loadPending  bool
	// noEvictUntil shields a freshly reloaded value from immediate
	// re-eviction (otherwise demand spilling can evict the operand of the
	// very op it is trying to unblock, forever).
	noEvictUntil int
}

type opState struct {
	id       program.ValueID
	fu       int // component index executing the op
	started  bool
	tFirstIn int // bus cycle of the first input move
	tTrig    int // bus cycle of the trigger move (-1 until scheduled)
	done     bool
	// resLoc is the register reserved for the result at start time —
	// reserving early guarantees a started operation can always retire, so
	// function units never block on register starvation.
	resLoc RegLoc
}

// Summary is the scalar part of a schedule, the fields of Result the
// explorer prices a structure by.
type Summary struct {
	Cycles   int
	Spills   int
	Reloads  int
	PeakLive int
}

// ScheduleContext maps the graph onto the architecture. It returns an
// error when the architecture cannot execute the graph (missing unit
// kinds, too few registers) or when scheduling exceeds the cycle bound.
// The scheduling loop checks ctx periodically and returns ctx.Err() when
// it is done, so a pathological schedule inside a large exploration
// cannot outlive its caller's deadline.
func ScheduleContext(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) (*Result, error) {
	s := states.Get().(*scheduler)
	defer s.release()
	if err := s.schedule(ctx, g, arch, opts); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// MeasureContext schedules exactly as ScheduleContext does, with the same
// errors and "sched.*" counters, but returns only the schedule's Summary.
// It copies nothing out of the reused scheduler state, so a warm call
// allocates only what validating its inputs does.
func MeasureContext(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) (Summary, error) {
	s := states.Get().(*scheduler)
	defer s.release()
	if err := s.schedule(ctx, g, arch, opts); err != nil {
		return Summary{}, err
	}
	return s.summary(), nil
}

// states pools scheduler states across calls and goroutines. A state
// keeps its buffers between schedules; reset resizes them in place.
var states = sync.Pool{New: func() any { return new(scheduler) }}

// scheduler is the working state of one schedule at a time. Its buffers
// survive from one schedule to the next; every other field is zeroed by
// reset, and release drops the graph, architecture and options.
type scheduler struct {
	g    *program.Graph
	arch *tta.Architecture
	opts Options

	buffers

	regs int // total registers over all RFs

	busFree  int // buses left this cycle
	live     int
	peakLive int

	memReady int // earliest cycle the next memory op may trigger

	// Spill machinery.
	spillSlots  int
	spillCount  int // total spill stores emitted
	reloadCount int
	stallStreak int
	stallTotal  int // cycles in which no move was emitted
	movedNow    bool
	// wantSpill is raised when an op could start but for register
	// capacity — demand-driven spilling keeps function units busy even
	// when other traffic prevents a full stall.
	wantSpill bool
}

// buffers is every slice and map of a scheduler state: storage that
// reset resizes for the next graph and architecture instead of
// reallocating.
type buffers struct {
	height []int // critical-path priority per op

	// Architecture tables, built once per schedule so the cycle loop
	// never allocates: function units by kind, the bus-facing port lists
	// of register files and Immediate units, and the O/T/R port indices
	// of function units (all indexed by component).
	fuByKind [tta.LDST + 1][]int
	rfs      []int // component indices of register files
	imms     []int
	ins      [][]int
	outs     [][]int
	opPort   []int
	trigPort []int
	resPort  []int
	rfPosOf  []int    // per component: position in rfs (-1 if not an RF)
	rfFree   [][]bool // per RF: free register map
	rfFreeN  []int    // per RF: number of free registers

	vals     []valueState
	ops      []opState
	fuBusyBy []int // per component: cycle until which the FU is busy (-1 free)

	// ready is a bitset over the priority ranks of the pending ops: an op
	// enters once its operand A has been produced and leaves when it
	// starts. byRank maps a rank back to its op, rank the other way.
	ready    []uint64
	byRank   []int
	rank     []int
	inflight []int // started ops that are not done, in start order

	// Per-cycle resource counters, indexed by component (reset each
	// cycle).
	rfReads  []int
	rfWrites []int
	immUsed  []int

	// consumers lists each value's consuming op indices (ascending); the
	// lists share the backing array consumed.
	consumers [][]int32
	consumed  []int32
	spills    []spillJob

	// The schedule: ScheduleContext copies these out, MeasureContext
	// reads only their summary.
	moves    []Move
	timings  map[program.ValueID]tta.OpTiming
	fuOf     map[program.ValueID]int
	regAlloc map[program.ValueID]RegLoc
	inputLoc map[program.ValueID]RegLoc
}

// grow returns s with length n, keeping its backing array when it is
// large enough. Elements left from an earlier schedule keep their values,
// and an element that is itself a slice keeps its backing array; callers
// overwrite or clear them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// appendPorts appends the indices of c's input ports (input) or
// bus-driving ports (!input) to dst.
func appendPorts(dst []int, c *tta.Component, input bool) []int {
	for i, p := range c.Ports {
		if p.Role.IsInput() == input {
			dst = append(dst, i)
		}
	}
	return dst
}

// schedule validates the graph and the architecture, then schedules the
// graph in the state.
func (s *scheduler) schedule(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if err := arch.Validate(); err != nil {
		return err
	}
	if err := s.reset(g, arch, opts); err != nil {
		return err
	}
	return s.run(ctx)
}

// release returns the state to the pool, keeping only its buffers. The
// entry points defer it, so it runs on every exit, a panic included.
func (s *scheduler) release() {
	*s = scheduler{buffers: s.buffers}
	states.Put(s)
}

// reset prepares the state for scheduling g onto arch: every field other
// than the buffers starts at zero, and every buffer is resized in place
// and re-initialised. It rejects architectures that lack a unit kind the
// graph needs or the registers for its inputs and outputs.
func (s *scheduler) reset(g *program.Graph, arch *tta.Architecture, opts Options) error {
	*s = scheduler{g: g, arch: arch, opts: opts, buffers: s.buffers}
	// Per-component tables. The O/T/R port indices are set (and read)
	// only for function units; resetCycle zeroes the per-cycle counters
	// before each cycle.
	n := len(arch.Components)
	s.ins = grow(s.ins, n)
	s.outs = grow(s.outs, n)
	s.opPort = grow(s.opPort, n)
	s.trigPort = grow(s.trigPort, n)
	s.resPort = grow(s.resPort, n)
	s.rfPosOf = grow(s.rfPosOf, n)
	s.fuBusyBy = grow(s.fuBusyBy, n)
	s.rfReads = grow(s.rfReads, n)
	s.rfWrites = grow(s.rfWrites, n)
	s.immUsed = grow(s.immUsed, n)
	for k := range s.fuByKind {
		s.fuByKind[k] = s.fuByKind[k][:0]
	}
	s.rfs, s.imms = s.rfs[:0], s.imms[:0]
	for ci := range arch.Components {
		c := &arch.Components[ci]
		s.rfPosOf[ci] = -1
		s.fuBusyBy[ci] = -1
		s.ins[ci], s.outs[ci] = s.ins[ci][:0], s.outs[ci][:0]
		switch c.Kind {
		case tta.RF:
			s.rfPosOf[ci] = len(s.rfs)
			s.rfs = append(s.rfs, ci)
			s.ins[ci] = appendPorts(s.ins[ci], c, true)
			s.outs[ci] = appendPorts(s.outs[ci], c, false)
		case tta.IMM:
			s.imms = append(s.imms, ci)
			s.outs[ci] = appendPorts(s.outs[ci], c, false)
		case tta.ALU, tta.CMP, tta.LDST:
			s.fuByKind[c.Kind] = append(s.fuByKind[c.Kind], ci)
			s.opPort[ci] = portOf(c, tta.Operand)
			s.trigPort[ci] = portOf(c, tta.Trigger)
			s.resPort[ci] = portOf(c, tta.Result)
		}
	}
	st := g.Stats()
	if st.ALU > 0 && len(s.fuByKind[tta.ALU]) == 0 {
		return fmt.Errorf("sched: graph needs an ALU, architecture has none")
	}
	if st.CMP > 0 && len(s.fuByKind[tta.CMP]) == 0 {
		return fmt.Errorf("sched: graph needs a CMP unit, architecture has none")
	}
	if st.Loads+st.Stores > 0 && len(s.fuByKind[tta.LDST]) == 0 {
		return fmt.Errorf("sched: graph needs a LD/ST unit, architecture has none")
	}
	if st.Consts > 0 && len(s.imms) == 0 {
		return fmt.Errorf("sched: graph needs an Immediate unit, architecture has none")
	}
	if len(s.rfs) == 0 {
		return fmt.Errorf("sched: architecture has no register file")
	}
	for _, rf := range s.rfs {
		s.regs += arch.Components[rf].NumRegs
	}
	if s.regs < st.Inputs+st.Outputs {
		return fmt.Errorf("sched: %d registers cannot hold %d inputs + %d outputs",
			s.regs, st.Inputs, st.Outputs)
	}

	s.rfFree = grow(s.rfFree, len(s.rfs))
	s.rfFreeN = grow(s.rfFreeN, len(s.rfs))
	for i, rf := range s.rfs {
		free := grow(s.rfFree[i], arch.Components[rf].NumRegs)
		for j := range free {
			free[j] = true
		}
		s.rfFree[i] = free
		s.rfFreeN[i] = len(free)
	}
	s.computeHeights()
	s.vals = grow(s.vals, len(g.Ops))
	clear(s.vals)
	s.ops = grow(s.ops, len(g.Ops)) // run sets every op's state
	s.inflight = s.inflight[:0]
	s.spills = s.spills[:0]

	// Size the outputs: every ALU/CMP op moves two operands and a result,
	// every load an address and a result, every store an address and its
	// data; only spill traffic appends beyond this. The maps keep their
	// buckets once a first schedule has made them.
	fuOps := st.ALU + st.CMP + st.Loads + st.Stores
	defines := fuOps - st.Stores
	s.moves = slices.Grow(s.moves[:0], 3*(st.ALU+st.CMP)+2*(st.Loads+st.Stores))
	if s.timings == nil {
		s.timings = make(map[program.ValueID]tta.OpTiming, defines)
		s.fuOf = make(map[program.ValueID]int, fuOps)
		s.regAlloc = make(map[program.ValueID]RegLoc, st.Inputs+defines)
		s.inputLoc = make(map[program.ValueID]RegLoc, st.Inputs)
	}
	clear(s.timings)
	clear(s.fuOf)
	clear(s.regAlloc)
	clear(s.inputLoc)
	return nil
}

// computeHeights sets the longest path (in ops) from each op to a graph
// output — the list-scheduling priority. Every user of an op has a
// higher index, so one reverse pass that pushes each op's height onto its
// operands sees final heights only.
func (s *scheduler) computeHeights() {
	g := s.g
	h := grow(s.height, len(g.Ops))
	clear(h)
	for u := len(g.Ops) - 1; u >= 0; u-- {
		op := &g.Ops[u]
		for _, ref := range [...]program.ValueID{op.A, op.B, op.MemPred} {
			if ref != program.NoValue && h[u]+1 > h[ref] {
				h[ref] = h[u] + 1
			}
		}
	}
	s.height = h
}

// summary returns the scalar fields of the schedule in the state.
func (s *scheduler) summary() Summary {
	sum := Summary{Spills: s.spillCount, Reloads: s.reloadCount, PeakLive: s.peakLive}
	// Every move is emitted at the current cycle, so the last one holds
	// the last bus cycle; add the register-load cycle after it.
	if n := len(s.moves); n > 0 {
		sum.Cycles = s.moves[n-1].Cycle + 1
	}
	return sum
}

// result copies the schedule out of the state: the moves at their exact
// length, and the four maps.
func (s *scheduler) result() *Result {
	sum := s.summary()
	moves := make([]Move, len(s.moves))
	copy(moves, s.moves)
	return &Result{
		Arch:     s.arch,
		Graph:    s.g,
		Moves:    moves,
		Cycles:   sum.Cycles,
		Timings:  maps.Clone(s.timings),
		FUOf:     maps.Clone(s.fuOf),
		RegAlloc: maps.Clone(s.regAlloc),
		InputLoc: maps.Clone(s.inputLoc),
		PeakLive: sum.PeakLive,
		Spills:   sum.Spills,
		Reloads:  sum.Reloads,
	}
}

// ctxCheckInterval is how many scheduling cycles pass between context
// polls — frequent enough for prompt cancellation, rare enough to stay
// off the per-cycle fast path.
const ctxCheckInterval = 64

// run schedules the graph, leaving the schedule in the state.
func (s *scheduler) run(ctx context.Context) error {
	g := s.g
	// Count uses so registers can be freed after the last read.
	for i := range s.vals {
		s.vals[i].loc = RegLoc{-1, -1}
	}
	uses := 0
	for _, op := range g.Ops {
		for _, ref := range [...]program.ValueID{op.A, op.B} {
			if ref != program.NoValue {
				s.vals[ref].usesLeft++
				uses++
			}
		}
	}
	// Consumer lists share one backing array: each value's slice has
	// exactly the capacity of its use count, so the appends below never
	// reallocate.
	s.consumed = grow(s.consumed, uses)
	s.consumers = grow(s.consumers, len(g.Ops))
	flat := s.consumed
	for v := range s.consumers {
		n := s.vals[v].usesLeft
		s.consumers[v], flat = flat[:0:n], flat[n:]
	}
	for i, op := range g.Ops {
		for _, ref := range [...]program.ValueID{op.A, op.B} {
			if ref != program.NoValue {
				s.consumers[ref] = append(s.consumers[ref], int32(i))
			}
		}
	}
	for _, o := range g.Outputs {
		s.vals[o].usesLeft++ // outputs stay live forever
		s.vals[o].isOutput = true
	}
	for i := range s.vals {
		s.vals[i].spillSlot = -1
	}

	// Place inputs and constants.
	for i, op := range g.Ops {
		switch op.Op {
		case program.Input:
			loc, ok := s.allocReg(0)
			if !ok {
				return fmt.Errorf("sched: not enough registers for program inputs")
			}
			s.vals[i].loc = loc
			s.vals[i].readyAt = 0
			s.vals[i].alloc = true
			s.regAlloc[program.ValueID(i)] = loc
			s.inputLoc[program.ValueID(i)] = loc
		case program.Const:
			s.vals[i].isConst = true
			s.vals[i].constVal = op.Imm
			s.vals[i].readyAt = 0
		}
		s.ops[i] = opState{id: program.ValueID(i), fu: -1, tTrig: -1, resLoc: RegLoc{-1, -1}}
	}

	// Pending FU operations in priority order; an op's rank is its
	// position in that order.
	pendings := s.byRank[:0]
	for i, op := range g.Ops {
		switch op.Op.Class() {
		case program.ClassALU, program.ClassCMP, program.ClassMem:
			pendings = append(pendings, i)
		default:
			s.ops[i].done = true
		}
	}
	if s.opts.Priority == CriticalPath {
		slices.SortStableFunc(pendings, func(a, b int) int { return cmp.Compare(s.height[b], s.height[a]) })
	}
	s.byRank = pendings
	s.rank = grow(s.rank, len(g.Ops))
	s.ready = grow(s.ready, (len(pendings)+63)/64)
	clear(s.ready)
	for r, oi := range pendings {
		s.rank[oi] = r
		if a := &s.vals[g.Ops[oi].A]; a.isConst || a.alloc {
			s.markReady(oi)
		}
	}
	maxCycles := s.opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 40*len(g.Ops) + 2000
	}

	remaining := len(pendings)
	cycle := 0
	if r := s.opts.Obs; r != nil {
		defer func() {
			r.Counter("sched.runs").Inc()
			r.Counter("sched.cycles").Add(int64(cycle))
			r.Counter("sched.moves").Add(int64(len(s.moves)))
			r.Counter("sched.spills").Add(int64(s.spillCount))
			r.Counter("sched.reloads").Add(int64(s.reloadCount))
			r.Counter("sched.stall_cycles").Add(int64(s.stallTotal))
		}()
	}
	for remaining > 0 {
		if cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if cycle > maxCycles {
			return fmt.Errorf("sched: no convergence after %d cycles (%d ops left; register pressure?)",
				cycle, remaining)
		}
		s.resetCycle()
		s.movedNow = false
		// Phase 0: advance spill stores (they free registers).
		s.stepSpills(cycle, false)
		// Phase 1: drain results of in-flight ops (frees FUs and feeds
		// dependents), and trigger in-flight ops still awaiting their
		// trigger move.
		keep := s.inflight[:0]
		for _, oi := range s.inflight {
			st := &s.ops[oi]
			if st.tTrig >= 0 {
				s.tryFinish(oi, cycle)
			} else {
				s.tryTrigger(oi, cycle)
			}
			if st.done {
				remaining--
			} else {
				keep = append(keep, oi)
			}
		}
		s.inflight = keep
		// Phase 2: start ready ops by priority while buses remain. Only
		// ops whose operand A exists are visited: for any other op
		// tryStart fails on A before touching any state, so skipping it
		// leaves the schedule unchanged. Visiting the rest in rank order
		// keeps every side effect (starts, reload requests, spill
		// demands) in the order of a full priority-list scan.
		for w := 0; w < len(s.ready) && s.busFree > 0; w++ {
			for word := s.ready[w]; word != 0 && s.busFree > 0; word &= word - 1 {
				b := word & -word
				oi := s.byRank[w<<6|bits.TrailingZeros64(b)]
				if s.tryStart(oi, cycle) {
					s.ready[w] &^= b
					// Stores whose trigger landed in the same cycle may
					// finish in a later phase-1 pass.
					s.inflight = append(s.inflight, oi)
				}
			}
		}
		// Phase 3: reloads run last so they never starve op starts.
		s.stepSpills(cycle, true)
		// Demand-driven spilling: a ready op was blocked purely by
		// register capacity this cycle.
		if s.wantSpill {
			s.wantSpill = false
			s.maybeSpill(cycle)
		}
		// Stall handling: when nothing moved, escalate to spilling; when
		// even spilling cannot help, the architecture genuinely cannot run
		// the program.
		if s.movedNow {
			s.stallStreak = 0
		} else {
			s.stallStreak++
			s.stallTotal++
			if s.stallStreak >= 4 {
				if !s.maybeSpill(cycle) && s.spillsIdle() && s.stallStreak > 8 {
					return fmt.Errorf("sched: starved at cycle %d (%d ops left, %d live registers, no spillable victim)",
						cycle, remaining, s.live)
				}
			}
		}
		cycle++
	}
	return nil
}

func (s *scheduler) resetCycle() {
	s.busFree = s.arch.Buses
	clear(s.rfReads)
	clear(s.rfWrites)
	clear(s.immUsed)
}

// markReady enters op oi into the ready set (its operand A exists).
func (s *scheduler) markReady(oi int) {
	r := s.rank[oi]
	s.ready[r>>6] |= 1 << (r & 63)
}
