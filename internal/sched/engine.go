package sched

import (
	"repro/internal/program"
	"repro/internal/tta"
)

// allocReg claims the lowest free register of the first register file
// with the most free capacity (balances pressure across RF1/RF2).
func (s *scheduler) allocReg() (RegLoc, bool) {
	best, bestFree := -1, 0
	for i, free := range s.rfFreeN {
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return RegLoc{-1, -1}, false
	}
	j := firstSet(s.rfFree[best])
	if j < 0 {
		return RegLoc{-1, -1}, false
	}
	s.rfFree[best][j>>6] &^= 1 << (j & 63)
	s.rfFreeN[best]--
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	return RegLoc{RF: s.rfs[best], Reg: j}, true
}

func (s *scheduler) freeReg(loc RegLoc) {
	if loc.RF < 0 {
		return
	}
	pos := s.rfPosOf[loc.RF]
	if pos < 0 {
		return
	}
	w, b := &s.rfFree[pos][loc.Reg>>6], uint64(1)<<(loc.Reg&63)
	if *w&b == 0 {
		*w |= b
		s.rfFreeN[pos]++
		s.live--
	}
}

// sourceReadable reports whether value v can be read at the current cycle
// and, if so, which endpoint supplies it (without committing resources).
func (s *scheduler) sourceReadable(v program.ValueID, cycle int) (Endpoint, bool) {
	vs := &s.vals[v]
	if vs.isConst {
		return s.immSource(vs.constVal)
	}
	if !vs.alloc || vs.readyAt > cycle {
		return Endpoint{}, false
	}
	return s.rfReadPort(vs.loc)
}

// rfReadPort returns the endpoint of the next free read port of loc's
// register file this cycle, or false when all are in use.
func (s *scheduler) rfReadPort(loc RegLoc) (Endpoint, bool) {
	rf := loc.RF
	reads := s.cycleUse[rf].reads
	if reads >= s.arch.Components[rf].NumOut {
		return Endpoint{}, false
	}
	outs := s.outs[rf]
	return Endpoint{Comp: rf, Port: outs[reads%len(outs)], Reg: loc.Reg}, true
}

// rfWritePort claims the next free write port of register file rf this
// cycle, or reports false when all are in use.
func (s *scheduler) rfWritePort(rf, reg int) (Endpoint, bool) {
	u := &s.cycleUse[rf]
	if u.writes >= s.arch.Components[rf].NumIn {
		return Endpoint{}, false
	}
	u.writes++
	ins := s.ins[rf]
	return Endpoint{Comp: rf, Port: ins[(u.writes-1)%len(ins)], Reg: reg}, true
}

// commitRead consumes the per-cycle resources of a scheduled read and
// releases the register after the value's last use.
func (s *scheduler) commitRead(v program.ValueID, src Endpoint) {
	vs := &s.vals[v]
	if vs.isConst {
		s.cycleUse[src.Comp].imms++
		return
	}
	s.cycleUse[src.Comp].reads++
	vs.usesLeft--
	if vs.usesLeft == 0 {
		s.freeReg(vs.loc)
		vs.alloc = false
	}
}

// fuFor returns the lowest free function unit of the kind, or -1, and
// records the answer in the schedule's Usage.
func (s *scheduler) fuFor(kind tta.Kind) int {
	i := firstSet(s.unitFree[kind])
	if i < 0 {
		s.use.Short[kind] = true
		return -1
	}
	s.use.Units[kind] = max(s.use.Units[kind], i+1)
	return s.fuByKind[kind][i]
}

// freeUnit returns the lowest free function unit of the kind, or -1,
// without recording it: spill code takes LD/ST units through it.
func (s *scheduler) freeUnit(kind tta.Kind) int {
	if i := firstSet(s.unitFree[kind]); i >= 0 {
		return s.fuByKind[kind][i]
	}
	return -1
}

// takeUnit marks function unit fu busy until releaseUnit frees it.
func (s *scheduler) takeUnit(fu int) {
	i := s.unitPos[fu]
	s.unitFree[s.arch.Components[fu].Kind][i>>6] &^= 1 << (i & 63)
}

// releaseUnit marks function unit fu free.
func (s *scheduler) releaseUnit(fu int) {
	i := s.unitPos[fu]
	s.unitFree[s.arch.Components[fu].Kind][i>>6] |= 1 << (i & 63)
}

func portOf(c *tta.Component, role tta.PortRole) int {
	for i, p := range c.Ports {
		if p.Role == role {
			return i
		}
	}
	return -1
}

// operandReady reports whether value v can be read at this cycle. A value
// that waits only in its spill slot gets a reload requested.
func (s *scheduler) operandReady(v program.ValueID, cycle int) bool {
	vs := &s.vals[v]
	if vs.isConst || (vs.alloc && vs.readyAt <= cycle) {
		return true
	}
	if !vs.alloc && vs.spillSlot >= 0 {
		s.requestReload(v)
	}
	return false
}

// tryStart begins an op: the operand move (and, resources permitting, the
// trigger in the same cycle). Loads have no separate operand move; their
// address move is the trigger itself.
func (s *scheduler) tryStart(oi int, cycle int) bool {
	op := &s.g.Ops[oi]
	st := &s.ops[oi]

	// Dataflow readiness (cheap pre-checks before resource commitment).
	if !s.operandReady(op.A, cycle) || (op.B != program.NoValue && !s.operandReady(op.B, cycle)) {
		return false
	}
	if op.MemPred != program.NoValue {
		pst := &s.ops[op.MemPred]
		if pst.tTrig < 0 {
			return false
		}
	}

	fu := s.fuFor(kindOf(op.Op.Class()))
	if fu == -1 {
		return false
	}

	if op.Op == program.Load {
		// Single move: address -> T (triggers the memory read).
		if s.busFree < 1 || cycle < s.memReady {
			return false
		}
		src, ok := s.sourceReadable(op.A, cycle)
		if !ok {
			return false
		}
		// The result register must be allocatable; the address read itself
		// may be the event that frees one.
		if !s.hasFreeReg() && !s.readWillFree(op.A) {
			s.wantSpill = true
			return false
		}
		dst := Endpoint{Comp: fu, Port: s.trigPort[fu], Reg: -1}
		s.busFree--
		s.commitRead(op.A, src)
		resLoc, ok := s.allocReg()
		if !ok {
			// Unreachable by the guard above; fail loudly in development.
			panic("sched: result allocation failed after free-on-read guard")
		}
		st.resLoc = resLoc
		s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
			Val: op.A, Op: program.ValueID(oi), Trigger: true})
		st.started = true
		st.tFirstIn = cycle
		st.tTrig = cycle
		st.fu = fu
		if s.record {
			s.fuOf[program.ValueID(oi)] = fu
		}
		s.takeUnit(fu) // released by tryFinish
		s.memReady = cycle + 1
		return true
	}

	// Two-operand op: move A -> O.
	if s.busFree < 1 {
		return false
	}
	src, ok := s.sourceReadable(op.A, cycle)
	if !ok {
		return false
	}
	if op.Defines() && !s.hasFreeReg() && !s.readWillFree(op.A) {
		// No room for the result: reading A won't free its register
		// either. Starting now would wedge the function unit.
		s.wantSpill = true
		return false
	}
	dst := Endpoint{Comp: fu, Port: s.opPort[fu], Reg: -1}
	s.busFree--
	s.commitRead(op.A, src)
	if op.Defines() {
		resLoc, ok := s.allocReg()
		if !ok {
			panic("sched: result allocation failed after free-on-read guard")
		}
		st.resLoc = resLoc
	}
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: op.A, Op: program.ValueID(oi)})
	st.started = true
	st.tFirstIn = cycle
	st.fu = fu
	if s.record {
		s.fuOf[program.ValueID(oi)] = fu
	}
	s.takeUnit(fu)

	// Opportunistic same-cycle trigger (relation (2) allows C(T) == C(O)).
	s.tryTrigger(oi, cycle)
	return true
}

// tryTrigger schedules the trigger move of a started op.
func (s *scheduler) tryTrigger(oi int, cycle int) bool {
	op := &s.g.Ops[oi]
	st := &s.ops[oi]
	if st.tTrig >= 0 || !st.started || cycle < st.tFirstIn {
		return false
	}
	if s.busFree < 1 {
		return false
	}
	if op.Op == program.Store && cycle < s.memReady {
		return false
	}
	src, ok := s.sourceReadable(op.B, cycle)
	if !ok {
		vs := &s.vals[op.B]
		if !vs.isConst && !vs.alloc && vs.spillSlot >= 0 {
			s.requestReload(op.B)
		}
		return false
	}
	dst := Endpoint{Comp: st.fu, Port: s.trigPort[st.fu], Reg: -1}
	s.busFree--
	s.commitRead(op.B, src)
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: op.B, Op: program.ValueID(oi), Trigger: true})
	st.tTrig = cycle
	if op.Op == program.Store {
		s.memReady = cycle + 1
	}
	return true
}

// tryFinish completes an op: stores finish when the memory write commits,
// value-producing ops when their result moves into a register file.
func (s *scheduler) tryFinish(oi int, cycle int) bool {
	op := &s.g.Ops[oi]
	st := &s.ops[oi]
	if op.Op == program.Store {
		// Memory write commits at the R stage, two cycles after the
		// trigger move.
		if cycle < st.tTrig+2 {
			return false
		}
		s.releaseUnit(st.fu)
		st.done = true
		return true
	}
	// Result leaves through F_out at the earliest one cycle after R
	// (relation (8)): bus cycle >= trigger + 3.
	if cycle < st.tTrig+3 {
		return false
	}
	if s.busFree < 1 {
		return false
	}
	// The destination register was reserved at start; only the write port
	// and a bus are needed now.
	dst, ok := s.rfWritePort(st.resLoc.RF, st.resLoc.Reg)
	if !ok {
		return false
	}
	s.busFree--
	src := Endpoint{Comp: st.fu, Port: s.resPort[st.fu], Reg: -1}
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: program.ValueID(oi), Op: program.ValueID(oi)})

	vs := &s.vals[oi]
	vs.loc = st.resLoc
	vs.readyAt = cycle + 1
	vs.alloc = true
	if vs.usesLeft == 0 {
		// Dead value: release immediately after materialization.
		s.freeReg(vs.loc)
		vs.alloc = false
	}
	if s.record {
		s.regAlloc[program.ValueID(oi)] = vs.loc
		oT := st.tFirstIn + 1
		if op.Op == program.Load {
			oT = -1
		}
		s.timings[program.ValueID(oi)] = tta.OpTiming{
			Fin:  st.tFirstIn,
			O:    oT,
			T:    st.tTrig + 1,
			R:    st.tTrig + 2,
			Fout: cycle,
		}
	}
	s.releaseUnit(st.fu)
	st.done = true
	s.gained(program.ValueID(oi))
	return true
}
