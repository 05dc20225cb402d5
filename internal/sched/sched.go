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
	// Usage is what the schedule used of the buses and function units.
	Usage Usage
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

// Summary is the scalar part of a schedule: the fields of Result the
// explorer prices a structure by, and the Usage that tells it which other
// structures the same schedule serves.
type Summary struct {
	Cycles   int
	Spills   int
	Reloads  int
	PeakLive int
	Usage    Usage
}

// Usage is what a schedule used of its architecture's buses and function
// units.
type Usage struct {
	// Moves is the most moves the schedule emitted in one cycle.
	Moves int
	// Units holds, per unit kind, one plus the highest position, among
	// the units of the kind in component order, of a unit that a request
	// for the kind was given (fuFor, freeKinds' probes included). Short
	// records that a request found no unit of the kind free.
	Units [tta.LDST + 1]int
	Short [tta.LDST + 1]bool
}

// Counts are the resources in which two architectures may differ and
// still share a schedule (Usage.Admits): the bus count and the numbers
// of ALUs and CMP units.
type Counts struct {
	Buses, ALUs, CMPs int
}

// CountsOf returns the Counts of arch.
func CountsOf(arch *tta.Architecture) Counts {
	c := Counts{Buses: arch.Buses}
	for ci := range arch.Components {
		switch arch.Components[ci].Kind {
		case tta.ALU:
			c.ALUs++
		case tta.CMP:
			c.CMPs++
		}
	}
	return c
}

// Admits reports whether the schedule that used u on an architecture
// with counts from is also the schedule of the same graph, under the same
// options, on an architecture that differs from that one only in having
// counts to: whether both give the same Summary, Usage included. With
// M = u.Moves it does when all three of these hold:
//
//   - to.Buses == from.Buses, or M < from.Buses and M < to.Buses;
//   - to.ALUs == from.ALUs, or no ALU request went unserved and
//     to.ALUs >= u.Units[tta.ALU];
//   - the same for CMPs.
//
// Proof. The scheduler reads of an architecture only its bus count and,
// per component, the kind, the port roles and the register-file shape.
// It uses component indices only as identities, and it orders the units
// of one kind by component order. So on the same graph and options both
// runs start in equal states, and they stay equal, decision by decision,
// as long as each resource check answers the same in both:
//
//   - Every bus check asks whether a bus is left in the cycle
//     (busFree >= 1), that is, whether the m moves emitted so far in the
//     cycle are fewer than the bus count. In the first run m <= M at
//     every check. If the bus counts differ, both exceed M, so both runs
//     answer yes.
//   - fuFor returns the lowest free unit of a kind. In the first run no
//     unit at a position at or above U = u.Units[k] was ever given, so
//     none was ever busy. If the counts of kind k differ, every request
//     found a free unit below U; the second run has at least U units of
//     the kind, with the busy states of the first U equal by induction,
//     so it finds the same unit. ALUs and CMPs are taken only through
//     fuFor. (Spill code takes LD/ST units with a scan of its own, and
//     their count is not in Counts.)
//
// Both runs therefore emit the same moves in the same cycles, up to
// component indices, and so report the same cycles, spill traffic, peak
// register use and Usage.
func (u Usage) Admits(from, to Counts) bool {
	busesOK := to.Buses == from.Buses || (u.Moves < from.Buses && u.Moves < to.Buses)
	return busesOK && u.admitsUnits(tta.ALU, from.ALUs, to.ALUs) && u.admitsUnits(tta.CMP, from.CMPs, to.CMPs)
}

// admitsUnits is Admits' condition for the units of one kind.
func (u Usage) admitsUnits(k tta.Kind, from, to int) bool {
	return to == from || (!u.Short[k] && to >= u.Units[k])
}

// ScheduleContext maps the graph onto the architecture. It returns an
// error when the architecture cannot execute the graph (missing unit
// kinds, too few registers) or when scheduling exceeds the cycle bound.
// The scheduling loop checks ctx periodically and returns ctx.Err() when
// it is done, so a pathological schedule inside a large exploration
// cannot outlive its caller's deadline. It builds the graph's plan for
// opts.Priority in the pooled state for this one call. A caller that
// prices one graph on many architectures builds the plan once (NewPlan)
// and measures from it (Plan.Measure).
func ScheduleContext(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) (*Result, error) {
	s := states.Get().(*scheduler)
	defer s.release()
	if err := s.own.build(g, opts.Priority); err != nil {
		return nil, err
	}
	if err := s.schedule(ctx, &s.own, arch, opts, true); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// states pools scheduler states across calls and goroutines. A state
// keeps its buffers between schedules; reset resizes them in place.
var states = sync.Pool{New: func() any { return new(scheduler) }}

// scheduler is the working state of one schedule at a time: what the
// schedule changes, over the read-only plan of its graph. Its buffers
// survive from one schedule to the next; every other field is zeroed by
// reset, and release drops the plan, graph, architecture and options.
type scheduler struct {
	plan *Plan
	g    *program.Graph // the plan's graph
	arch *tta.Architecture
	opts Options
	// record keeps the moves and fills Result's four maps
	// (ScheduleContext); nothing the scheduler decides reads them.
	record bool

	buffers

	regs int // total registers over all RFs

	busFree  int // buses left this cycle
	live     int
	peakLive int

	memReady int // earliest cycle the next memory op may trigger

	// The schedule's move count and the cycle of its last move, kept
	// whether or not the moves themselves are.
	moveCount int
	lastCycle int

	// Spill machinery.
	spillSlots  int
	spillCount  int // total spill stores emitted
	reloadCount int
	// storesOut and loadsOut count the spill jobs of each direction that
	// are not done.
	storesOut   int
	loadsOut    int
	stallStreak int
	stallTotal  int // cycles in which no move was emitted
	movedNow    bool
	// wantSpill is raised when an op could start but for register
	// capacity — demand-driven spilling keeps function units busy even
	// when other traffic prevents a full stall.
	wantSpill bool

	use Usage // what the schedule has used so far
}

// buffers is every slice and map of a scheduler state: storage that
// reset resizes for the next graph and architecture instead of
// reallocating.
type buffers struct {
	// own is the plan ScheduleContext builds for its one call.
	own Plan

	// Architecture tables, built once per schedule so the cycle loop
	// never allocates: function units by kind, the bus-facing port lists
	// of register files and Immediate units, and the O/T/R port indices
	// of function units (all indexed by component).
	fuByKind [tta.LDST + 1][]int
	unitPos  []int // per component: its position among its kind's units
	rfs      []int // component indices of register files
	imms     []int
	ins      [][]int
	outs     [][]int
	opPort   []int
	trigPort []int
	resPort  []int
	rfPosOf  []int // per component: position in rfs (-1 if not an RF)

	// Resource bitmaps: per function-unit kind, the positions of its
	// free units; per RF, its free registers.
	unitFree [tta.LDST + 1][]uint64
	rfFree   [][]uint64
	rfFreeN  []int // per RF: number of free registers

	vals []valueState
	ops  []opState

	// Bitsets over the priority ranks of the pending ops, which the start
	// walk (startOps) reads. An op enters full when its operands are all
	// present (a constant or in a register) at placement or when a result
	// is written, and reload when a spill store moves one of its operands
	// to memory. It leaves both only when it starts. The plan holds the
	// ranks of each function-unit kind's ops.
	full     []uint64
	reload   []uint64
	inflight []int // started ops that are not done, in start order

	// cycleUse is what each component has given out this cycle (cleared
	// each cycle).
	cycleUse []portUse

	spills []spillJob

	// The schedule, kept only when recording: ScheduleContext copies
	// these out.
	moves    []Move
	timings  map[program.ValueID]tta.OpTiming
	fuOf     map[program.ValueID]int
	regAlloc map[program.ValueID]RegLoc
	inputLoc map[program.ValueID]RegLoc
}

// portUse counts what one component has given out in the current cycle:
// register-file reads and writes, and immediates.
type portUse struct {
	reads, writes, imms int
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

// fillBits returns set resized to hold n bits, all of them set.
func fillBits(set []uint64, n int) []uint64 {
	set = grow(set, (n+63)/64)
	for w := range set {
		set[w] = ^uint64(0)
	}
	if n%64 != 0 {
		set[len(set)-1] = 1<<(n%64) - 1
	}
	return set
}

// firstSet returns the lowest set bit of a bitset, or -1.
func firstSet(set []uint64) int {
	for w, word := range set {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
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

// schedule validates the architecture, then schedules the plan's graph
// in the state, keeping the moves and filling the result maps when
// record is set. The options must ask for the plan's priority.
func (s *scheduler) schedule(ctx context.Context, p *Plan, arch *tta.Architecture, opts Options, record bool) error {
	if opts.Priority != p.priority {
		return fmt.Errorf("sched: options ask for %s priority, the plan orders by %s", opts.Priority, p.priority)
	}
	if err := arch.Validate(); err != nil {
		return err
	}
	if err := s.reset(p, arch, opts, record); err != nil {
		return err
	}
	return s.run(ctx)
}

// release returns the state to the pool, keeping only its buffers (its
// own plan forgets its graph). The entry points defer it, so it runs on
// every exit, a panic included.
func (s *scheduler) release() {
	s.own.g = nil
	*s = scheduler{buffers: s.buffers}
	states.Put(s)
}

// reset prepares the state for scheduling p's graph onto arch: every
// field other than the buffers starts at zero, and every buffer is
// resized in place and re-initialised. It rejects architectures that
// lack a unit kind the graph needs or the registers for its inputs and
// outputs.
func (s *scheduler) reset(p *Plan, arch *tta.Architecture, opts Options, record bool) error {
	*s = scheduler{plan: p, g: p.g, arch: arch, opts: opts, record: record, buffers: s.buffers}
	// Per-component tables. The O/T/R port indices and unit positions
	// are set (and read) only for function units; resetCycle zeroes the
	// per-cycle counters before each cycle.
	n := len(arch.Components)
	s.ins = grow(s.ins, n)
	s.outs = grow(s.outs, n)
	s.opPort = grow(s.opPort, n)
	s.trigPort = grow(s.trigPort, n)
	s.resPort = grow(s.resPort, n)
	s.rfPosOf = grow(s.rfPosOf, n)
	s.unitPos = grow(s.unitPos, n)
	s.cycleUse = grow(s.cycleUse, n)
	for k := range s.fuByKind {
		s.fuByKind[k] = s.fuByKind[k][:0]
	}
	s.rfs, s.imms = s.rfs[:0], s.imms[:0]
	for ci := range arch.Components {
		c := &arch.Components[ci]
		s.rfPosOf[ci] = -1
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
			s.unitPos[ci] = len(s.fuByKind[c.Kind])
			s.fuByKind[c.Kind] = append(s.fuByKind[c.Kind], ci)
			s.opPort[ci] = portOf(c, tta.Operand)
			s.trigPort[ci] = portOf(c, tta.Trigger)
			s.resPort[ci] = portOf(c, tta.Result)
		}
	}
	for _, k := range fuKinds {
		s.unitFree[k] = fillBits(s.unitFree[k], len(s.fuByKind[k]))
	}
	st := &p.mix
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
		regs := arch.Components[rf].NumRegs
		s.rfFree[i] = fillBits(s.rfFree[i], regs)
		s.rfFreeN[i] = regs
	}
	// The value, op and ready states start as the plan's.
	s.vals = grow(s.vals, len(p.vals))
	copy(s.vals, p.vals)
	s.ops = grow(s.ops, len(p.ops))
	copy(s.ops, p.ops)
	s.full = grow(s.full, len(p.ready))
	copy(s.full, p.ready)
	s.reload = grow(s.reload, len(p.ready))
	clear(s.reload)
	s.inflight = s.inflight[:0]
	s.spills = s.spills[:0]

	if !record {
		return nil
	}
	// Size the outputs: every ALU/CMP op moves two operands and a result,
	// every load an address and a result, every store an address and its
	// data; only spill traffic appends beyond this. The maps keep their
	// buckets once a first recording schedule has made them.
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

// summary returns the scalar fields of the schedule in the state.
func (s *scheduler) summary() Summary {
	sum := Summary{Spills: s.spillCount, Reloads: s.reloadCount, PeakLive: s.peakLive, Usage: s.use}
	// Every move is emitted at the current cycle, so the last one holds
	// the last bus cycle; add the register-load cycle after it.
	if s.moveCount > 0 {
		sum.Cycles = s.lastCycle + 1
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
		Usage:    sum.Usage,
	}
}

// ctxCheckInterval is how many scheduling cycles pass between context
// polls — frequent enough for prompt cancellation, rare enough to stay
// off the per-cycle fast path.
const ctxCheckInterval = 64

// run schedules the graph, leaving the schedule in the state.
func (s *scheduler) run(ctx context.Context) error {
	p := s.plan
	// Place the inputs; constants need no register.
	for _, i := range p.inputs {
		loc, ok := s.allocReg()
		if !ok {
			return fmt.Errorf("sched: not enough registers for program inputs")
		}
		s.vals[i].loc = loc
		s.vals[i].alloc = true
		if s.record {
			s.regAlloc[program.ValueID(i)] = loc
			s.inputLoc[program.ValueID(i)] = loc
		}
	}
	maxCycles := s.opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 40*len(s.g.Ops) + 2000
	}

	remaining := len(p.byRank)
	cycle := 0
	if r := s.opts.Obs; r != nil {
		defer func() {
			r.Counter("sched.runs").Inc()
			r.Counter("sched.cycles").Add(int64(cycle))
			r.Counter("sched.moves").Add(int64(s.moveCount))
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
		// Phase 2: start ops by priority while buses remain.
		s.startOps(cycle)
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
		s.use.Moves = max(s.use.Moves, s.arch.Buses-s.busFree)
		cycle++
	}
	return nil
}

func (s *scheduler) resetCycle() {
	s.busFree = s.arch.Buses
	clear(s.cycleUse)
}

// startOps offers a start to pending ops in rank order while buses
// remain. It visits only the ops in full whose kind has a free unit, and
// the ops in reload. A value first leaves its register for its slot
// through a spill store, which puts each of its unstarted consumers in
// reload until they start; a later clean drop or reload of the value
// comes after that store. So an op with an operand that was ever spilled
// is in reload, and an op whose operands never were is in full once they
// are all present. Skipping any other pending op leaves the schedule
// unchanged, because tryStart would fail on it before touching any
// state:
//
//   - an operand is missing and is not in its spill slot: tryStart
//     fails on it, and only an operand waiting in its slot would have
//     queued a reload (such an op is in reload);
//   - every operand is present but no unit of the op's kind is free:
//     tryStart fails at the unit check, before any resource or spill
//     demand. A start inside the walk only takes a unit of its own
//     kind, so the free kinds never grow during it; after each start the
//     walk probes that kind again (a probe of another kind would record
//     in the Usage what its last probe did) and drops the rest of the
//     current word's ops of kinds left without a free unit.
//
// A stale bit, such as a full op whose operand was since spilled, only
// adds a visit that does what a scan of every pending op would do. The
// visited ops keep their rank order, so starts, reload requests (whose
// order is the order of s.spills) and spill demands fire in the order of
// that full scan.
func (s *scheduler) startOps(cycle int) {
	byRank := s.plan.byRank
	free := s.freeKinds()
	for w := 0; w < len(s.full) && s.busFree > 0; w++ {
		word := s.candidates(w, free)
		for word != 0 && s.busFree > 0 {
			b := word & -word
			word ^= b
			oi := byRank[w<<6|bits.TrailingZeros64(b)]
			if s.tryStart(oi, cycle) {
				s.full[w] &^= b
				s.reload[w] &^= b
				// Stores whose trigger landed in the same cycle may
				// finish in a later phase-1 pass.
				s.inflight = append(s.inflight, oi)
				k := kindOf(s.g.Ops[oi].Op.Class())
				free[k] = s.fuFor(k) >= 0
				word &= s.candidates(w, free)
			}
		}
	}
}

// candidates returns word w of the walk's set: reload, and full masked
// to the kinds marked free.
func (s *scheduler) candidates(w int, free [tta.LDST + 1]bool) uint64 {
	word := s.reload[w]
	if f := s.full[w]; f != 0 {
		for _, k := range fuKinds {
			if free[k] {
				word |= f & s.plan.kindRanks[k][w]
			}
		}
	}
	return word
}

// addRank adds rank r to a bitset over ranks.
func addRank(set []uint64, r int) { set[r>>6] |= 1 << (r & 63) }

// fuKinds are the function-unit kinds that execute graph operations.
var fuKinds = [...]tta.Kind{tta.ALU, tta.CMP, tta.LDST}

// kindOf returns the function-unit kind executing an op class.
func kindOf(class program.Class) tta.Kind {
	switch class {
	case program.ClassALU:
		return tta.ALU
	case program.ClassCMP:
		return tta.CMP
	default:
		return tta.LDST
	}
}

// freeKinds reports, per function-unit kind, whether a unit of the kind
// is free this cycle. Each answer is a probe of fuFor, recorded in the
// schedule's Usage.
func (s *scheduler) freeKinds() (free [tta.LDST + 1]bool) {
	for _, k := range fuKinds {
		free[k] = s.fuFor(k) >= 0
	}
	return free
}

// present reports whether value v is a constant or sits in a register.
func (s *scheduler) present(v program.ValueID) bool {
	vs := &s.vals[v]
	return vs.isConst || vs.alloc
}

// operandsPresent reports whether every operand of op oi is present.
func (s *scheduler) operandsPresent(oi int) bool {
	op := &s.g.Ops[oi]
	return s.present(op.A) && (op.B == program.NoValue || s.present(op.B))
}

// gained enters into full the unstarted consumers of value v, whose
// result has just been written, that now have all operands present.
func (s *scheduler) gained(v program.ValueID) {
	for _, c := range s.plan.consumers[v] {
		if st := &s.ops[c]; !st.started && !st.done && s.operandsPresent(int(c)) {
			addRank(s.full, s.plan.rank[c])
		}
	}
}

// spilled enters into reload the unstarted consumers of value v, whose
// spill store has just moved it to memory: from now on a start attempt
// on them may queue its reload.
func (s *scheduler) spilled(v program.ValueID) {
	for _, c := range s.plan.consumers[v] {
		if st := &s.ops[c]; !st.started && !st.done {
			addRank(s.reload, s.plan.rank[c])
		}
	}
}
