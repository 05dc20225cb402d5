package sched

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/program"
	"repro/internal/tta"
)

// Plan is what scheduling one graph under one priority needs of the graph
// alone: the op mix, the priority order and the tables derived from it,
// the use counts and the consumer lists. NewPlan validates the graph and
// builds the plan once; every schedule of the graph on any architecture
// then reads it. A plan is never written after NewPlan returns, so any
// number of goroutines may schedule from one plan at once. The graph must
// not change while its plan is in use.
type Plan struct {
	g        *program.Graph
	priority Priority
	mix      program.Stats

	// byRank lists the graph's function-unit ops in priority order; an
	// op's rank is its position there, and rank maps an op to it.
	byRank []int
	rank   []int
	// kindRanks holds the ranks of each function-unit kind's ops, and
	// ready the ranks of the ops whose operands are all inputs or
	// constants: every one of them is present once the inputs are placed.
	kindRanks [tta.LDST + 1][]uint64
	ready     []uint64

	// inputs lists the graph's input ops in graph order.
	inputs []int
	// vals and ops are every value's and op's state before the inputs
	// are placed. A value counts one use per operand that reads it and
	// one more per output slot that names it.
	vals []valueState
	ops  []opState

	// consumers lists each value's consuming op indices (ascending); the
	// lists share the backing array consumed.
	consumers [][]int32
	consumed  []int32

	height []int // critical-path priority per op (scratch of build)
}

// NewPlan validates g and builds its plan for the given priority. It
// returns the graph's validation error when g is malformed.
func NewPlan(g *program.Graph, priority Priority) (*Plan, error) {
	p := new(Plan)
	if err := p.build(g, priority); err != nil {
		return nil, err
	}
	return p, nil
}

// Measure schedules the plan's graph onto arch exactly as
// ScheduleContext does, with the same errors and "sched.*" counters, but
// returns only the schedule's Summary. It fills none of Result's maps,
// records no move and copies only the Summary out of a pooled state, so
// a warm call does not allocate. opts.Priority must be the plan's
// priority.
func (p *Plan) Measure(ctx context.Context, arch *tta.Architecture, opts Options) (Summary, error) {
	s := states.Get().(*scheduler)
	defer s.release()
	if err := s.schedule(ctx, p, arch, opts, false); err != nil {
		return Summary{}, err
	}
	return s.summary(), nil
}

// build validates g and fills the plan for it, reusing the plan's
// buffers: the pooled state's own plan is rebuilt for every
// ScheduleContext call.
func (p *Plan) build(g *program.Graph, priority Priority) error {
	if err := g.Validate(); err != nil {
		return err
	}
	p.g, p.priority, p.mix = g, priority, opMix(g)
	n := len(g.Ops)
	p.computeHeights()

	// Use counts and the initial value and op states.
	p.vals = grow(p.vals, n)
	clear(p.vals)
	p.ops = grow(p.ops, n)
	p.inputs = p.inputs[:0]
	uses := 0
	for i, op := range g.Ops {
		p.vals[i].loc = RegLoc{-1, -1}
		p.vals[i].spillSlot = -1
		for _, ref := range [...]program.ValueID{op.A, op.B} {
			if ref != program.NoValue {
				p.vals[ref].usesLeft++
				uses++
			}
		}
		switch op.Op {
		case program.Input:
			p.inputs = append(p.inputs, i)
		case program.Const:
			p.vals[i].isConst = true
			p.vals[i].constVal = op.Imm
		}
		p.ops[i] = opState{id: program.ValueID(i), fu: -1, tTrig: -1, resLoc: RegLoc{-1, -1}}
	}
	// Consumer lists share one backing array: each value's slice has
	// exactly the capacity of its use count, so the appends below never
	// reallocate.
	p.consumed = grow(p.consumed, uses)
	p.consumers = grow(p.consumers, n)
	flat := p.consumed
	for v := range p.consumers {
		k := p.vals[v].usesLeft
		p.consumers[v], flat = flat[:0:k], flat[k:]
	}
	for i, op := range g.Ops {
		for _, ref := range [...]program.ValueID{op.A, op.B} {
			if ref != program.NoValue {
				p.consumers[ref] = append(p.consumers[ref], int32(i))
			}
		}
	}
	for _, o := range g.Outputs {
		p.vals[o].usesLeft++ // outputs stay live forever
		p.vals[o].isOutput = true
	}

	// Pending FU operations in priority order.
	pendings := p.byRank[:0]
	for i, op := range g.Ops {
		switch op.Op.Class() {
		case program.ClassALU, program.ClassCMP, program.ClassMem:
			pendings = append(pendings, i)
		default:
			p.ops[i].done = true
		}
	}
	if priority == CriticalPath {
		slices.SortStableFunc(pendings, func(a, b int) int { return cmp.Compare(p.height[b], p.height[a]) })
	}
	p.byRank = pendings
	p.rank = grow(p.rank, n)
	words := (len(pendings) + 63) / 64
	p.ready = grow(p.ready, words)
	clear(p.ready)
	for _, k := range fuKinds {
		p.kindRanks[k] = grow(p.kindRanks[k], words)
		clear(p.kindRanks[k])
	}
	for r, oi := range pendings {
		p.rank[oi] = r
		addRank(p.kindRanks[kindOf(g.Ops[oi].Op.Class())], r)
		if p.placed(g.Ops[oi].A) && (g.Ops[oi].B == program.NoValue || p.placed(g.Ops[oi].B)) {
			addRank(p.ready, r)
		}
	}
	return nil
}

// placed reports whether value v is an input or a constant.
func (p *Plan) placed(v program.ValueID) bool {
	op := p.g.Ops[v].Op
	return op == program.Input || op == program.Const
}

// opMix counts the graph's operations by class, its inputs and its
// outputs: Graph.Stats without the dataflow depth, which the scheduler
// never reads and Stats allocates for.
func opMix(g *program.Graph) program.Stats {
	st := program.Stats{Ops: len(g.Ops), Outputs: len(g.Outputs)}
	for _, op := range g.Ops {
		switch op.Op.Class() {
		case program.ClassALU:
			st.ALU++
		case program.ClassCMP:
			st.CMP++
		case program.ClassMem:
			if op.Op == program.Load {
				st.Loads++
			} else {
				st.Stores++
			}
		case program.ClassConst:
			st.Consts++
		case program.ClassInput:
			st.Inputs++
		}
	}
	return st
}

// computeHeights sets the longest path (in ops) from each op to a graph
// output — the list-scheduling priority. Every user of an op has a
// higher index, so one reverse pass that pushes each op's height onto its
// operands sees final heights only.
func (p *Plan) computeHeights() {
	g := p.g
	h := grow(p.height, len(g.Ops))
	clear(h)
	for u := len(g.Ops) - 1; u >= 0; u-- {
		op := &g.Ops[u]
		for _, ref := range [...]program.ValueID{op.A, op.B, op.MemPred} {
			if ref != program.NoValue && h[u]+1 > h[ref] {
				h[ref] = h[u] + 1
			}
		}
	}
	p.height = h
}
