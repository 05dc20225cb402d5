package sched

import (
	"repro/internal/program"
	"repro/internal/tta"
)

// Register spilling. When the live values exceed register-file capacity,
// the scheduler stores a victim value into the reserved spill region of
// data memory through the LD/ST unit and reloads it before its next use —
// the same escape hatch a compiling scheduler such as MOVE's relies on.
// Spill traffic consumes buses, RF ports and LD/ST bandwidth, so small
// register files translate into longer schedules rather than infeasible
// ones: the area/execution-time trade-off of the paper's figure 2.

type spillJob struct {
	val    program.ValueID
	isLoad bool
	fu     int
	tAddr  int // addr move cycle (-1 = not yet; stores only)
	tTrig  int // data/trigger move cycle (-1 = not yet)
	resLoc RegLoc
	done   bool
}

// emit counts a move, keeps it when recording, and records cycle
// progress.
func (s *scheduler) emit(m Move) {
	if s.record {
		s.moves = append(s.moves, m)
	}
	s.moveCount++
	s.lastCycle = m.Cycle
	s.movedNow = true
}

// spillsIdle reports whether no spill job is outstanding.
func (s *scheduler) spillsIdle() bool { return s.storesOut+s.loadsOut == 0 }

// spillAddr returns the memory address of a spill slot.
func spillAddr(slot int) uint64 { return SpillBase + uint64(slot) }

// immSource returns a free Immediate unit endpoint for a literal, or false.
func (s *scheduler) immSource(v uint64) (Endpoint, bool) {
	for _, imm := range s.imms {
		if s.cycleUse[imm].imms == 0 {
			return Endpoint{Comp: imm, Port: s.outs[imm][0], Reg: -1, Imm: v}, true
		}
	}
	return Endpoint{}, false
}

// requestReload queues a spill-load job for a value whose register copy was
// dropped.
func (s *scheduler) requestReload(v program.ValueID) {
	vs := &s.vals[v]
	if vs.loadPending || vs.alloc || vs.spillSlot < 0 {
		return
	}
	vs.loadPending = true
	s.spills = append(s.spills, spillJob{val: v, isLoad: true, fu: -1, tAddr: -1, tTrig: -1, resLoc: RegLoc{-1, -1}})
	s.loadsOut++
	s.reloadCount++
}

// stepSpills advances outstanding spill jobs by at most one stage. Stores
// run before the op phases (they free registers); loads run after (so
// pending operations claim result registers first and reloads cannot
// starve them). The walk stops at the last outstanding job of the
// direction.
func (s *scheduler) stepSpills(cycle int, loads bool) {
	left := s.storesOut
	if loads {
		left = s.loadsOut
	}
	for i := 0; left > 0; i++ {
		j := &s.spills[i]
		if j.done || j.isLoad != loads {
			continue
		}
		left--
		if j.isLoad {
			s.stepSpillLoad(j, cycle)
		} else {
			s.stepSpillStore(j, cycle)
		}
	}
	// Drop completed jobs: all of them at once when none is outstanding,
	// otherwise occasionally to bound the walk.
	if s.spillsIdle() {
		s.spills = s.spills[:0]
	} else if len(s.spills) > 32 {
		kept := s.spills[:0]
		for _, j := range s.spills {
			if !j.done {
				kept = append(kept, j)
			}
		}
		s.spills = kept
	}
}

// hasFreeReg reports whether any register file has a free register.
func (s *scheduler) hasFreeReg() bool { return s.live < s.regs }

// readWillFree reports whether reading value v (once) releases its
// register.
func (s *scheduler) readWillFree(v program.ValueID) bool {
	if v == program.NoValue {
		return false
	}
	vs := &s.vals[v]
	return !vs.isConst && vs.alloc && vs.usesLeft == 1
}

func (s *scheduler) stepSpillStore(j *spillJob, cycle int) {
	vs := &s.vals[j.val]
	// The victim may have died (last use read, register freed) between the
	// spill decision and now: abandon the job so it cannot wedge the LD/ST
	// unit waiting for a value that no longer exists.
	if j.tTrig < 0 && !vs.alloc {
		if j.fu >= 0 {
			s.releaseUnit(j.fu)
		}
		vs.spillSlot = -1 // nothing was written; the slot is dead
		s.finishSpill(j)
		return
	}
	// Stage 1: claim an LD/ST unit and move the spill address into O.
	if j.tAddr < 0 {
		if s.busFree < 1 {
			return
		}
		fu := s.freeUnit(tta.LDST)
		if fu < 0 {
			return
		}
		src, ok := s.immSource(spillAddr(vs.spillSlot))
		if !ok {
			return
		}
		s.busFree--
		s.cycleUse[src.Comp].imms++
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: fu, Port: s.opPort[fu], Reg: -1},
			Val: program.NoValue, Op: program.NoValue, Spill: SpillStoreAddr})
		j.fu = fu
		j.tAddr = cycle
		s.takeUnit(fu)
		// Fall through: the data move may go out the same cycle.
	}
	// Stage 2: move the register value into T (memory write trigger).
	if j.tTrig < 0 {
		if s.busFree < 1 || !vs.alloc {
			return
		}
		src, ok := s.rfReadPort(vs.loc)
		if !ok {
			return
		}
		s.cycleUse[src.Comp].reads++
		s.busFree--
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: j.fu, Port: s.trigPort[j.fu], Reg: -1},
			Val: j.val, Op: program.NoValue, Trigger: true, Spill: SpillStoreData})
		j.tTrig = cycle
		// The register copy is gone after this cycle's read; the memory
		// copy becomes usable once the write commits.
		s.freeReg(vs.loc)
		vs.alloc = false
		vs.spillValid = true
		vs.spillReadyAt = cycle + 1
		s.spilled(j.val)
		return
	}
	// Stage 3: memory committed two cycles after the trigger.
	if cycle >= j.tTrig+2 {
		s.releaseUnit(j.fu)
		s.finishSpill(j)
	}
}

// finishSpill marks spill job j done.
func (s *scheduler) finishSpill(j *spillJob) {
	j.done = true
	if j.isLoad {
		s.loadsOut--
	} else {
		s.storesOut--
	}
}

func (s *scheduler) stepSpillLoad(j *spillJob, cycle int) {
	vs := &s.vals[j.val]
	// Stage 1: claim LD/ST, reserve the destination register, and trigger
	// the memory read with the spill address.
	if j.tTrig < 0 {
		if s.busFree < 1 || cycle < vs.spillReadyAt {
			return
		}
		fu := s.freeUnit(tta.LDST)
		if fu < 0 {
			return
		}
		src, ok := s.immSource(spillAddr(vs.spillSlot))
		if !ok {
			return
		}
		loc, ok := s.allocReg()
		if !ok {
			return // a future maybeSpill will free capacity
		}
		s.busFree--
		s.cycleUse[src.Comp].imms++
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: fu, Port: s.trigPort[fu], Reg: -1},
			Val: program.NoValue, Op: program.NoValue, Trigger: true, Spill: SpillLoadTrig})
		j.fu = fu
		j.tTrig = cycle
		j.resLoc = loc
		s.takeUnit(fu)
		return
	}
	// Stage 2: move the result into the reserved register (relation (8)).
	if cycle < j.tTrig+3 || s.busFree < 1 {
		return
	}
	dst, ok := s.rfWritePort(j.resLoc.RF, j.resLoc.Reg)
	if !ok {
		return
	}
	s.busFree--
	s.emit(Move{Cycle: cycle,
		Src: Endpoint{Comp: j.fu, Port: s.resPort[j.fu], Reg: -1},
		Dst: dst,
		Val: j.val, Op: program.NoValue, Spill: SpillLoadResult})
	vs.loc = j.resLoc
	vs.readyAt = cycle + 1
	vs.alloc = true
	vs.loadPending = false
	vs.noEvictUntil = cycle + 16
	if s.record {
		s.regAlloc[j.val] = vs.loc
	}
	s.releaseUnit(j.fu)
	s.finishSpill(j)
}

// maybeSpill frees register capacity when the schedule is starved: it
// evicts the live value whose next use is farthest away (Belady's rule on
// static op order). Values that already own a spill slot are dropped
// without a store. Returns true if it made progress.
func (s *scheduler) maybeSpill(cycle int) bool {
	// At most one spill store in flight keeps the LD/ST unit available for
	// program memory traffic.
	if s.storesOut > 0 {
		return false
	}
	victim := program.NoValue
	victimNext := -1
	for v := range s.vals {
		vs := &s.vals[v]
		if !vs.alloc || vs.isOutput || vs.loadPending || vs.usesLeft == 0 || vs.noEvictUntil > cycle {
			continue
		}
		next := s.nextUnstartedUse(program.ValueID(v))
		if next > victimNext {
			victimNext = next
			victim = program.ValueID(v)
		}
	}
	if victim == program.NoValue {
		return false
	}
	vs := &s.vals[victim]
	if vs.spillSlot >= 0 && vs.spillValid {
		// Clean value: the memory copy is still valid (SSA values never
		// change); just drop the register.
		s.freeReg(vs.loc)
		vs.alloc = false
		return true
	}
	vs.spillSlot = s.spillSlots
	s.spillSlots++
	s.spillCount++
	s.spills = append(s.spills, spillJob{val: victim, fu: -1, tAddr: -1, tTrig: -1, resLoc: RegLoc{-1, -1}})
	s.storesOut++
	return true
}

// nextUnstartedUse returns the smallest consumer op index that has not
// started yet (a large sentinel when every consumer is done — should not
// happen for values with usesLeft > 0 unless the value is an output).
func (s *scheduler) nextUnstartedUse(v program.ValueID) int {
	for _, c := range s.plan.consumers[v] {
		st := &s.ops[c]
		if st.done {
			continue
		}
		// A started op may still need the value for its pending trigger.
		if !st.started || st.tTrig < 0 {
			return int(c)
		}
	}
	return 1 << 30
}
