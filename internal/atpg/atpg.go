package atpg

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/faultinject"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Config controls the ATPG driver. The zero value selects sensible
// defaults; Seed 0 is a valid deterministic seed.
type Config struct {
	// Seed drives the random-pattern phase and don't-care fill.
	Seed int64
	// MaxRandomPatterns bounds the random phase (default 1024, rounded up
	// to whole 64-pattern blocks). Zero selects the default; negative
	// disables the random phase (PODEM-only, the ablation variant).
	MaxRandomPatterns int
	// RandomDryBlocks stops the random phase after this many consecutive
	// blocks without a new detection (default 2).
	RandomDryBlocks int
	// BacktrackLimit aborts a PODEM run after this many backtracks
	// (default 4000).
	BacktrackLimit int
	// SkipPODEM runs only the random phase (coverage will be partial).
	SkipPODEM bool
	// SkipCompaction keeps the raw pattern list.
	SkipCompaction bool
	// SCOAPGuidance steers PODEM's input choices by controllability cost
	// (the testability-measure ablation of DESIGN.md).
	SCOAPGuidance bool
	// Workers is ignored: a run executes on the calling goroutine, and
	// callers that want parallelism run several netlists at once (the
	// DSE evaluation workers do). The field remains so that code setting
	// it still compiles.
	Workers int
	// Deadline bounds the run's wall-clock time (0 = none). Unlike a
	// context deadline — which aborts the run with an error and no
	// result — an exhausted Deadline degrades gracefully: pattern
	// generation stops, every fault still undetected is counted aborted,
	// and the partial result is returned with DeadlineExceeded set so
	// callers (testcost.Annotator) can fall back to an analytical bound.
	// A run that finishes within the budget is byte-identical to an
	// unbudgeted run.
	Deadline time.Duration
	// Inject, when non-nil, enables the faultinject.ATPGPattern injection
	// point in the deterministic-phase merge loop (one hit per fault, in
	// canonical order). Production runs pass nothing and pay one pointer
	// test per fault.
	Inject *faultinject.Injector
	// Obs, when non-nil, receives ATPG metrics: PODEM decisions and
	// backtracks, fault-simulation blocks and lane utilization, pattern
	// and fault counts (counters "atpg.*", gauge
	// "atpg.faultsim.lane_util"). A nil registry costs nothing.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxRandomPatterns == 0 {
		c.MaxRandomPatterns = 1024
	}
	if c.RandomDryBlocks == 0 {
		c.RandomDryBlocks = 2
	}
	if c.BacktrackLimit == 0 {
		c.BacktrackLimit = 4000
	}
	return c
}

// Result reports the outcome of an ATPG run. NumPatterns is the paper's
// n_p for the circuit.
type Result struct {
	Netlist *netlist.Netlist
	// Patterns is the final (compacted) test set.
	Patterns []Pattern
	// TotalFaults is the size of the collapsed fault universe.
	TotalFaults int
	// Detected counts collapsed faults covered by Patterns.
	Detected int
	// Redundant counts faults proved untestable (PODEM search exhausted).
	Redundant int
	// Aborted counts faults abandoned at the backtrack limit.
	Aborted int
	// RandomDetected counts faults caught during the random phase.
	RandomDetected int
	// PodemPatterns counts deterministic patterns before compaction.
	PodemPatterns int
	// DeadlineExceeded reports that Config.Deadline expired before every
	// fault was resolved: the pattern set is valid but partial (the
	// unresolved faults are counted in Aborted), and the pattern count is
	// not the converged n_p — consumers should substitute an analytical
	// bound (see EstimateBound).
	DeadlineExceeded bool
}

// NumPatterns returns n_p, the size of the final test set.
func (r *Result) NumPatterns() int { return len(r.Patterns) }

// Coverage returns detected / (total - redundant): fault coverage with
// provably untestable faults excluded, the figure usually quoted by ATPG
// tools (Table 1's FC column).
func (r *Result) Coverage() float64 {
	den := r.TotalFaults - r.Redundant
	if den <= 0 {
		return 1
	}
	return float64(r.Detected) / float64(den)
}

// RawCoverage returns detected / total over the collapsed universe.
func (r *Result) RawCoverage() float64 {
	if r.TotalFaults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

func (r *Result) String() string {
	return fmt.Sprintf("%s: np=%d faults=%d detected=%d redundant=%d aborted=%d FC=%.2f%%",
		r.Netlist.Name, r.NumPatterns(), r.TotalFaults, r.Detected, r.Redundant, r.Aborted, 100*r.Coverage())
}

// runMetrics accumulates observability tallies as plain fields so the hot
// loops never touch the registry (Registry.Counter takes a mutex and a map
// lookup per call) and flushed to the registry once per run.
type runMetrics struct {
	laneWidth int64 // active lane width (64/256/512)
	blocks    int64 // fault-simulation blocks evaluated (laneWidth lanes each)
	lanes     int64 // lanes across those blocks that carried real patterns

	decisions  int64 // PODEM decisions
	backtracks int64 // PODEM backtracks
}

// flush publishes the tallies. Lane utilization is lanes divided by the
// block capacity laneWidth*blocks: 1.0 means every simulated block was
// fully saturated at the active lane width.
func (m *runMetrics) flush(r *obs.Registry, res *Result) {
	if r == nil {
		return
	}
	r.Counter("atpg.runs").Inc()
	r.Counter("atpg.faults.total").Add(int64(res.TotalFaults))
	r.Counter("atpg.faults.detected").Add(int64(res.Detected))
	r.Counter("atpg.faults.redundant").Add(int64(res.Redundant))
	r.Counter("atpg.faults.aborted").Add(int64(res.Aborted))
	r.Counter("atpg.patterns.random").Add(int64(res.RandomDetected))
	r.Counter("atpg.patterns.podem").Add(int64(res.PodemPatterns))
	r.Counter("atpg.patterns.final").Add(int64(len(res.Patterns)))
	r.Counter("atpg.podem.decisions").Add(m.decisions)
	r.Counter("atpg.podem.backtracks").Add(m.backtracks)
	r.Counter("atpg.faultsim.blocks").Add(m.blocks)
	r.Counter("atpg.faultsim.lanes").Add(m.lanes)
	if res.DeadlineExceeded {
		r.Counter("atpg.deadline.exceeded").Inc()
	}
	if m.laneWidth > 0 {
		r.Gauge("atpg.faultsim.lane_width").Set(float64(m.laneWidth))
	}
	if m.blocks > 0 {
		r.Gauge("atpg.faultsim.lane_util").SetRatio(m.lanes, m.laneWidth*m.blocks)
	}
}

// budget is the run's wall-clock deadline (zero = unbounded). time.Now
// is monotonic, so once expired reports true it stays true.
type budget struct{ at time.Time }

func newBudget(d time.Duration) budget {
	if d <= 0 {
		return budget{}
	}
	return budget{at: time.Now().Add(d)}
}

func (b budget) expired() bool { return !b.at.IsZero() && time.Now().After(b.at) }

// RunContext executes the full ATPG flow on the netlist (full-scan view):
// a seeded random-pattern phase with fault dropping, deterministic PODEM
// top-up for the remaining faults, and reverse-order static compaction.
// The random-pattern and PODEM phases poll ctx (per block / per fault)
// and return (nil, ctx.Err()) when it is done. With a background context
// and no Deadline the error is always nil; an exhausted Deadline is not
// an error — see Config.Deadline. The run executes on the calling
// goroutine.
//
// The fault simulator's lane width (64, 256 or 512 parallel patterns per
// block) is chosen per netlist by resolveLaneWidth. The detected-fault
// sets, patterns and every report field are byte-identical at every
// width; only throughput and the block-granular atpg.faultsim.{blocks,
// lanes} tallies change.
func RunContext(ctx context.Context, n *netlist.Netlist, cfg Config) (*Result, error) {
	return runAtWidth(ctx, n, cfg, 0)
}

// runAtWidth is RunContext at a forced lane width: 64, 256 or 512, or 0
// for resolveLaneWidth's choice. Tests and benchmarks force a width to
// check and time the width invariance; everything else passes 0.
func runAtWidth(ctx context.Context, n *netlist.Netlist, cfg Config, lanes int) (*Result, error) {
	cfg = cfg.withDefaults()
	u := NewUniverse(n)
	if lanes == 0 {
		lanes = resolveLaneWidth(n, u)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bs := newBlockSim(newSimTopo(n), lanes)
	res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	m := &runMetrics{laneWidth: int64(lanes)}
	defer m.flush(cfg.Obs, res)
	bud := newBudget(cfg.Deadline)

	detected := make([]bool, len(u.Faults))
	var patterns []Pattern

	if cfg.MaxRandomPatterns > 0 {
		patterns = randomPhase(ctx, bs, u, cfg, detected, res, m, bud)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if !cfg.SkipPODEM && !bud.expired() {
		var err error
		patterns, err = podemTopUp(ctx, bs.sim, u, cfg, rng, detected, res, patterns, m, bud)
		if err != nil {
			return nil, err
		}
	}

	if bud.expired() {
		res.DeadlineExceeded = true
		markRemainingAborted(detected, res)
	}

	if cfg.SkipCompaction {
		res.Patterns = patterns
		return res, nil
	}
	res.Patterns = compactReverse(bs, u, patterns, detected, m)
	return res, nil
}

// resolveLaneWidth picks the fault simulator's lane width for a netlist.
// Wide blocks only pay when fault simulation dominates the run: the fixed
// per-Detects and per-gate costs amortize over more lanes. On PODEM-bound
// classes (deep, sparse netlists like cmp16: many levels, few faults per
// level) the run spends its time in the single-pattern engine and wide
// blocks just add per-block overhead — in the lanes × class grid of
// EXPERIMENTS.md ("Lane-width sweep") cmp16 runs slower at 256 and 512
// lanes than at 64. So the choice is class-aware: it needs BOTH a
// large netlist and a high fault density per topological level (the
// measurable proxy for the fault-to-pattern ratio; dense shallow fabrics
// like register files converge in few patterns per fault-heavy level and
// are exactly the wide-sim winners). Every width produces identical
// output, so the rule only steers throughput.
func resolveLaneWidth(n *netlist.Netlist, u *Universe) int {
	levels := 0
	for _, l := range n.Flat().GateLevel {
		if int(l)+1 > levels {
			levels = int(l) + 1
		}
	}
	if levels < 1 {
		return 64
	}
	density := float64(len(u.Faults)) / float64(levels)
	switch {
	case len(n.Gates) >= 2048 && density >= 400:
		return 512
	case len(n.Gates) >= 256 && density >= 400:
		return 256
	default:
		return 64
	}
}

// markRemainingAborted counts every still-undetected fault as aborted —
// the deadline-exhaustion bookkeeping that keeps Detected+Redundant+
// Aborted equal to what a converged run would partition.
func markRemainingAborted(detected []bool, res *Result) {
	aborted := 0
	for _, d := range detected {
		if !d {
			aborted++
		}
	}
	// Redundant and previously-aborted faults were already counted by the
	// merge loop and are marked detected=false; subtract them so the sum
	// stays consistent.
	aborted -= res.Redundant + res.Aborted
	if aborted > 0 {
		res.Aborted += aborted
	}
}

// podemTopUp runs the deterministic phase: one PODEM engine walks the
// fault universe in index order and generates a test for every fault
// still undetected. The don't-care fill consumes the rng at accept time,
// in fault order, so the patterns are a pure function of (netlist, seed,
// config). Accepted patterns are fault-dropped in lane-width batches by
// a batchDropper instead of one LoadBlock per pattern.
func podemTopUp(ctx context.Context, ws faultSim, u *Universe, cfg Config, rng *rand.Rand, detected []bool, res *Result, patterns []Pattern, m *runMetrics, bud budget) ([]Pattern, error) {
	eng := newPodem(ws.topo(), cfg.BacktrackLimit)
	if cfg.SCOAPGuidance {
		eng.scoap = ComputeScoap(u.N)
	}
	defer func() {
		m.decisions += eng.totalDecisions
		m.backtracks += eng.totalBacktracks
	}()

	drop := newBatchDropper(ws, u, detected, res, m)
	for fi := range u.Faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Chaos hook: one hit per fault in index order. A firing error or
		// panic surfaces exactly like a context failure would.
		if err := cfg.Inject.Hit(faultinject.ATPGPattern); err != nil {
			return nil, err
		}
		if bud.expired() {
			// Out of wall-clock budget: settle the pending block so the
			// patterns found so far keep their drop credit, and leave the
			// rest of the universe to markRemainingAborted.
			drop.flush(fi)
			return patterns, nil
		}
		if detected[fi] {
			// Already covered by the random phase or a flushed block.
			continue
		}
		if drop.covers(fi) {
			// Covered by a pending (not yet flushed) pattern.
			detected[fi] = true
			res.Detected++
			continue
		}
		asg, outcome := eng.generate(u.Faults[fi])
		switch outcome {
		case podemRedundant:
			res.Redundant++
		case podemAborted:
			res.Aborted++
		case podemFound:
			pat := fillPattern(asg, rng)
			patterns = append(patterns, pat)
			res.PodemPatterns++
			drop.add(pat, fi)
			if drop.full() {
				drop.flush(fi + 1)
			}
		}
	}
	drop.flush(len(u.Faults))
	return patterns, nil
}

// batchDropper accumulates accepted PODEM patterns into up-to-lane-width
// blocks and fault-drops whole blocks at once, replacing the serial
// algorithm's one-pattern LoadBlock per accepted pattern.
//
// The serial algorithm drops each new pattern against every fault at or
// beyond its target, immediately. The batched replay preserves those
// decisions exactly, at any batch width:
//
//   - a fault reaching its merge slot is checked against all pending
//     lanes (covers) — the same "was it dropped by an earlier pattern"
//     test the serial loop answers with detected[fi];
//   - at flush, each lane's target is checked on its own lane only: by
//     construction no earlier pending lane detects it (covers ruled that
//     out when the target was accepted) and serial drops are
//     forward-only, so later patterns never reach an earlier target;
//   - the flush tail then drops every fault beyond the merge position
//     against all lanes — faults between a lane's target and the merge
//     position were already screened by covers at their own slots.
//
// Detection outcomes, counters and patterns are therefore independent of
// where the flush boundaries fall — which is exactly why widening the
// batch from 64 to 256/512 lanes cannot move a single output byte.
type batchDropper struct {
	sim      faultSim
	u        *Universe
	detected []bool
	res      *Result
	m        *runMetrics

	pending []Pattern
	targets []int32 // pending[k] was generated for fault targets[k]
	loaded  bool    // sim currently holds the pending block
}

func newBatchDropper(sim faultSim, u *Universe, detected []bool, res *Result, m *runMetrics) *batchDropper {
	return &batchDropper{
		sim:      sim,
		u:        u,
		detected: detected,
		res:      res,
		m:        m,
		pending:  make([]Pattern, 0, sim.lanes()),
		targets:  make([]int32, 0, sim.lanes()),
	}
}

func (d *batchDropper) full() bool { return len(d.pending) == d.sim.lanes() }

// add accepts a pattern generated for fault fi into the next free lane.
func (d *batchDropper) add(pat Pattern, fi int) {
	d.pending = append(d.pending, pat)
	d.targets = append(d.targets, int32(fi))
	d.loaded = false
}

// covers reports whether any pending pattern detects the fault.
func (d *batchDropper) covers(fi int) bool {
	if len(d.pending) == 0 {
		return false
	}
	d.load()
	m := d.sim.detectsMask(d.u.Faults[fi])
	return m.any()
}

func (d *batchDropper) load() {
	if d.loaded {
		return
	}
	d.sim.loadBlock(d.pending)
	d.loaded = true
}

// flush settles the pending block: credits each lane's own target (a
// pattern that misses its target is counted aborted, exactly like the
// serial self-check), drops every fault at or beyond the merge position
// pos, and clears the block.
func (d *batchDropper) flush(pos int) {
	if len(d.pending) == 0 {
		return
	}
	d.load()
	d.m.blocks++
	d.m.lanes += int64(len(d.pending))
	for k, t := range d.targets {
		m := d.sim.detectsMask(d.u.Faults[t])
		if m.bit(k) {
			d.detected[t] = true
			d.res.Detected++
		} else {
			// The generated pattern must detect its target; if it does
			// not, the engine is inconsistent for this fault — count it
			// as aborted rather than overstating coverage.
			d.res.Aborted++
		}
	}
	for fj := pos; fj < len(d.u.Faults); fj++ {
		if d.detected[fj] {
			continue
		}
		m := d.sim.detectsMask(d.u.Faults[fj])
		if m.any() {
			d.detected[fj] = true
			d.res.Detected++
		}
	}
	d.pending = d.pending[:0]
	d.targets = d.targets[:0]
	d.loaded = false
}

// blockSim is the fault simulator the ATPG phases share: one engine at
// the run's lane width plus, above 64 lanes, a 64-lane tier that
// firstLanes uses to screen a block sub-block by sub-block. Both engines
// bind the run's read-only simTopo.
type blockSim struct {
	sim    faultSim
	narrow *wideSim[[1]uint64] // nil at width 64
}

func newBlockSim(t *simTopo, lanes int) *blockSim {
	b := &blockSim{sim: newFaultSimFromTopo(t, lanes)}
	if lanes > 64 {
		b.narrow = newWideSim[[1]uint64](t)
	}
	return b
}

// firstLanes fills laneOf[fi] with the first block lane detecting fault fi
// (-1 if none), considering only faults with skip(fi) == false. With screen
// set, blocks wider than 64 lanes run sub-block by sub-block on the 64-lane
// tier, dropping each fault at its first detecting sub-block — in a
// detection-dense block that retires most faults at a fraction of the word
// cost. With screen clear, the full-width engine simulates every live fault
// in one pass, amortizing per-call overhead across the whole block — the
// cheaper plan when most faults stay alive to the end anyway. The wide
// mask's sub-block words are identical to the narrow masks (the
// width-invariance property), so both tiers report the same first lane.
// Screening is purely an execution strategy: laneOf is identical either
// way, so callers may toggle it by any heuristic without affecting results.
func (b *blockSim) firstLanes(faults []Fault, block []Pattern, screen bool, skip func(int) bool, laneOf []int16) {
	nSub := (len(block) + 63) / 64
	b.firstLanesBy(faults, nSub, screen, skip, laneOf,
		func(s int) {
			sub := block[s*64:]
			if len(sub) > 64 {
				sub = sub[:64]
			}
			b.narrow.loadBlock(sub)
		},
		func() { b.sim.loadBlock(block) })
}

// firstLanesWords is firstLanes for a block already in transposed word form:
// words[s] holds sub-block s's per-controllable lane words.
func (b *blockSim) firstLanesWords(faults []Fault, words [][]uint64, screen bool, skip func(int) bool, laneOf []int16) {
	b.firstLanesBy(faults, len(words), screen, skip, laneOf,
		func(s int) { b.narrow.loadWords(words[s : s+1]) },
		func() { b.sim.loadWords(words) })
}

// firstLanesBy is the shared body of firstLanes and firstLanesWords:
// loadSub(s) loads sub-block s into the 64-lane tier, loadFull loads the
// whole block into the full-width engine.
func (b *blockSim) firstLanesBy(faults []Fault, nSub int, screen bool, skip func(int) bool, laneOf []int16,
	loadSub func(s int), loadFull func()) {
	for i := range laneOf {
		laneOf[i] = -1
	}
	if screen && b.narrow != nil && nSub > 1 {
		b.screenSubs(faults, nSub, skip, laneOf, loadSub)
		return
	}
	loadFull()
	for fi, f := range faults {
		if skip(fi) {
			continue
		}
		mk := b.sim.detectsMask(f)
		if first := mk.first(); first >= 0 {
			laneOf[fi] = int16(first)
		}
	}
}

// screenSubs runs the 64-lane tier over each sub-block in serial order,
// dropping every fault at its first detecting sub-block. The tier is the
// concrete 64-lane instantiation, so the per-fault inner loop pays no
// interface dispatch or laneMask widening — at tens of thousands of
// detects calls per run those fixed costs rival the simulation work
// itself.
func (b *blockSim) screenSubs(faults []Fault, nSub int, skip func(int) bool, laneOf []int16, loadSub func(s int)) {
	live := 0
	for fi := range faults {
		if !skip(fi) {
			live++
		}
	}
	for s := 0; s < nSub && live > 0; s++ {
		loadSub(s)
		base := int16(s * 64)
		for fi := range faults {
			if skip(fi) || laneOf[fi] >= 0 {
				continue
			}
			if mk := b.narrow.detects(faults[fi])[0]; mk != 0 {
				laneOf[fi] = base + int16(bits.TrailingZeros64(mk))
				live--
			}
		}
	}
}

// fillSubWords generates the pattern content of global 64-pattern sub-block
// `sub`: one lane word per controllable (bit k = pattern sub*64+k's value),
// from a splitmix64 stream seeded by subSeed. Each sub-block's content is a
// pure function of (seed, sub), so any lane width generates exactly the
// same pattern sequence, speculative sub-blocks past a mid-block stop cost
// nothing but their own generation, and the driver rng stream is left
// untouched for the PODEM phase's don't-care fill. Generating words rather
// than pattern bytes feeds the simulator's transposed layout directly —
// one RNG step per 64 lanes of a controllable instead of one per lane.
func fillSubWords(seed, sub int64, w []uint64) {
	st := uint64(subSeed(seed, sub))
	for ci := range w {
		st += 0x9e3779b97f4a7c15
		z := st
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		w[ci] = z
	}
}

// subSeed derives the pattern-generator state of a global 64-pattern
// sub-block from the configured seed (splitmix64 finalizer).
func subSeed(seed, sub int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(sub+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// randomPhase applies seeded random blocks with fault dropping and returns
// the patterns that were first detectors of at least one fault. Blocks are
// simulated bs.sim.lanes() patterns at a time, but pattern content is keyed
// to the global 64-pattern sub-block index (subSeed) and detection credit
// and the dry/total stopping rule replay the sub-blocks in serial order, so
// the detected set, counters and kept patterns are identical at every lane
// width. The 64-lane screening tier of firstLanes is enabled while it pays
// — while at least 1/16th of the live faults drop per block — and skipped
// once the survivors dominate, where a single full-width pass is cheaper.
func randomPhase(ctx context.Context, bs *blockSim, u *Universe, cfg Config, detected []bool, res *Result, m *runMetrics, bud budget) []Pattern {
	nSub := bs.sim.lanes() / 64
	nCtrl := bs.sim.NumControls()
	var kept []Pattern
	dry := 0
	total := 0
	sub := 0 // global sub-block counter: seeds pattern generation
	screen := true
	laneOf := make([]int16, len(u.Faults))
	words := make([][]uint64, nSub)
	for s := range words {
		words[s] = make([]uint64, nCtrl)
	}
	subHits := make([][]int32, nSub) // newly detected fault indices per sub-block
	for total < cfg.MaxRandomPatterns && dry < cfg.RandomDryBlocks {
		if ctx.Err() != nil || bud.expired() {
			return kept
		}
		// Fill up to nSub sub-blocks. The total bound is known in advance;
		// the dry bound is only resolved during replay below, so later
		// sub-blocks are generated speculatively.
		gen := 0
		for s := 0; s < nSub && total+64*s < cfg.MaxRandomPatterns; s++ {
			fillSubWords(cfg.Seed, int64(sub+s), words[s])
			gen++
		}
		sub += gen
		m.blocks++
		m.lanes += int64(gen * 64)
		bs.firstLanesWords(u.Faults, words[:gen], screen, func(fi int) bool { return detected[fi] }, laneOf)
		cands, hits := 0, 0
		for s := range subHits {
			subHits[s] = subHits[s][:0]
		}
		for fi := range u.Faults {
			if detected[fi] {
				continue
			}
			cands++
			if lane := laneOf[fi]; lane >= 0 {
				hits++
				subHits[lane>>6] = append(subHits[lane>>6], int32(fi))
			}
		}
		screen = hits*16 >= cands
		// Replay the sub-blocks in serial order: a fault's first detecting
		// lane falls in the same sub-block the 64-lane schedule would have
		// detected it in, and the stopping rule is applied exactly where
		// that schedule would have stopped. A mid-block stop leaves later
		// sub-blocks' detections unapplied, exactly as if never simulated.
		for s := 0; s < gen; s++ {
			total += 64
			lo := int16(s * 64)
			laneUseful := uint64(0)
			for _, fi := range subHits[s] {
				detected[fi] = true
				laneUseful |= 1 << uint(laneOf[fi]-lo)
			}
			newly := len(subHits[s])
			res.Detected += newly
			res.RandomDetected += newly
			if newly == 0 {
				dry++
			} else {
				dry = 0
				for k := 0; k < 64; k++ {
					if laneUseful>>uint(k)&1 == 1 {
						p := make(Pattern, nCtrl)
						for ci, w := range words[s] {
							p[ci] = uint8(w >> uint(k) & 1)
						}
						kept = append(kept, p)
					}
				}
			}
			if total >= cfg.MaxRandomPatterns || dry >= cfg.RandomDryBlocks {
				return kept
			}
		}
	}
	return kept
}

// fillPattern resolves the don't-care positions of a PODEM assignment with
// random values (improving collateral detection).
func fillPattern(asg []v3, rng *rand.Rand) Pattern {
	p := make(Pattern, len(asg))
	for i, v := range asg {
		switch v {
		case v0:
			p[i] = 0
		case v1:
			p[i] = 1
		default:
			p[i] = uint8(rng.Intn(2))
		}
	}
	return p
}

// compactReverse performs reverse-order static compaction: patterns are
// re-fault-simulated from last to first, bs.sim.lanes() per block, and kept
// only if they are the first (in that order) to detect some fault. The
// first-detecting-lane credit is in lane order, so widening the block
// keeps the decision — and the kept set — identical to the 64-lane
// schedule.
func compactReverse(bs *blockSim, u *Universe, patterns []Pattern, detected []bool, m *runMetrics) []Pattern {
	if len(patterns) == 0 {
		return patterns
	}
	width := bs.sim.lanes()
	reversed := make([]Pattern, len(patterns))
	for i, p := range patterns {
		reversed[len(patterns)-1-i] = p
	}
	covered := make([]bool, len(u.Faults))
	useful := make([]bool, len(reversed))
	laneOf := make([]int16, len(u.Faults))
	screen := true
	for start := 0; start < len(reversed); start += width {
		end := start + width
		if end > len(reversed) {
			end = len(reversed)
		}
		block := reversed[start:end]
		m.blocks++
		m.lanes += int64(len(block))
		bs.firstLanes(u.Faults, block, screen, func(fi int) bool { return !detected[fi] || covered[fi] }, laneOf)
		cands, hits := 0, 0
		for fi := range u.Faults {
			if !detected[fi] || covered[fi] {
				continue
			}
			cands++
			if laneOf[fi] >= 0 {
				hits++
			}
		}
		screen = hits*16 >= cands
		for fi, lane := range laneOf {
			if lane < 0 {
				continue
			}
			covered[fi] = true
			useful[start+int(lane)] = true
		}
	}
	var out []Pattern
	// Restore original ordering among the kept patterns.
	for i := len(reversed) - 1; i >= 0; i-- {
		if useful[i] {
			out = append(out, reversed[i])
		}
	}
	return out
}
