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

// The run's fixed limits.
const (
	// randomDryBlocks stops the random phase after this many consecutive
	// 64-pattern blocks without a new detection.
	randomDryBlocks = 2
	// backtrackLimit aborts a PODEM run after this many backtracks.
	backtrackLimit = 4000
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
	blocks int64 // fault-simulation blocks evaluated (64 lanes each)
	lanes  int64 // lanes across those blocks that carried real patterns

	decisions  int64 // PODEM decisions
	backtracks int64 // PODEM backtracks
}

// flush publishes the tallies. Lane utilization is lanes divided by the
// block capacity 64*blocks: 1.0 means every simulated block was fully
// saturated. The lane-width gauge always reads 64, the simulator's only
// width; readers that divide by it keep working.
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
	r.Gauge("atpg.faultsim.lane_width").Set(64)
	if m.blocks > 0 {
		r.Gauge("atpg.faultsim.lane_util").SetRatio(m.lanes, 64*m.blocks)
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
// goroutine, on one 64-lane Simulator.
func RunContext(ctx context.Context, n *netlist.Netlist, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	u := NewUniverse(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sim := NewSimulator(n)
	res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	m := &runMetrics{}
	defer m.flush(cfg.Obs, res)
	bud := newBudget(cfg.Deadline)

	detected := make([]bool, len(u.Faults))
	var patterns []Pattern

	if cfg.MaxRandomPatterns > 0 {
		patterns = randomPhase(ctx, sim, u, cfg, detected, res, m, bud)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if !bud.expired() {
		var err error
		patterns, err = podemTopUp(ctx, sim, u, cfg, rng, detected, res, patterns, m, bud)
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
	res.Patterns = compactReverse(sim, u, patterns, detected, m)
	return res, nil
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
// config). Accepted patterns are fault-dropped in 64-pattern batches by
// a batchDropper instead of one LoadBlock per pattern.
func podemTopUp(ctx context.Context, sim *Simulator, u *Universe, cfg Config, rng *rand.Rand, detected []bool, res *Result, patterns []Pattern, m *runMetrics, bud budget) ([]Pattern, error) {
	eng := newPodem(sim.t, backtrackLimit)
	if cfg.SCOAPGuidance {
		eng.scoap = ComputeScoap(u.N)
	}
	defer func() {
		m.decisions += eng.totalDecisions
		m.backtracks += eng.totalBacktracks
	}()

	drop := newBatchDropper(sim, u, detected, res, m)
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

// batchDropper accumulates accepted PODEM patterns into blocks of up to
// 64 and fault-drops whole blocks at once, replacing the serial
// algorithm's one-pattern LoadBlock per accepted pattern.
//
// The serial algorithm drops each new pattern against every fault at or
// beyond its target, immediately. The batched replay preserves those
// decisions exactly:
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
// where the flush boundaries fall (TestBatchDropperMatchesPerPatternDrop
// checks them against the serial algorithm).
type batchDropper struct {
	sim      *Simulator
	u        *Universe
	detected []bool
	res      *Result
	m        *runMetrics

	pending []Pattern
	targets []int32 // pending[k] was generated for fault targets[k]
	loaded  bool    // sim currently holds the pending block
}

func newBatchDropper(sim *Simulator, u *Universe, detected []bool, res *Result, m *runMetrics) *batchDropper {
	return &batchDropper{
		sim:      sim,
		u:        u,
		detected: detected,
		res:      res,
		m:        m,
		pending:  make([]Pattern, 0, 64),
		targets:  make([]int32, 0, 64),
	}
}

func (d *batchDropper) full() bool { return len(d.pending) == 64 }

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
	return d.sim.Detects(d.u.Faults[fi]) != 0
}

func (d *batchDropper) load() {
	if d.loaded {
		return
	}
	d.sim.LoadBlock(d.pending)
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
		if d.sim.Detects(d.u.Faults[t])>>uint(k)&1 == 1 {
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
		if d.sim.Detects(d.u.Faults[fj]) != 0 {
			d.detected[fj] = true
			d.res.Detected++
		}
	}
	d.pending = d.pending[:0]
	d.targets = d.targets[:0]
	d.loaded = false
}

// fillSubWords generates the pattern content of random block `sub`: one
// lane word per controllable (bit k = pattern sub*64+k's value), from a
// splitmix64 stream seeded by subSeed. Each block's content is a pure
// function of (seed, sub), and the driver rng stream is left untouched for
// the PODEM phase's don't-care fill. Generating words rather than pattern
// bytes feeds the simulator's transposed layout directly — one RNG step
// per 64 lanes of a controllable instead of one per lane.
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

// subSeed derives the pattern-generator state of random block `sub` from
// the configured seed (splitmix64 finalizer).
func subSeed(seed, sub int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(sub+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// randomPhase applies seeded random 64-pattern blocks with fault dropping
// and returns the patterns that were first detectors of at least one
// fault, in block and lane order. It stops after MaxRandomPatterns
// patterns or randomDryBlocks consecutive blocks without a new detection.
func randomPhase(ctx context.Context, sim *Simulator, u *Universe, cfg Config, detected []bool, res *Result, m *runMetrics, bud budget) []Pattern {
	nCtrl := sim.NumControls()
	var kept []Pattern
	dry := 0
	words := make([]uint64, nCtrl)
	for sub := int64(0); 64*sub < int64(cfg.MaxRandomPatterns) && dry < randomDryBlocks; sub++ {
		if ctx.Err() != nil || bud.expired() {
			return kept
		}
		fillSubWords(cfg.Seed, sub, words)
		sim.loadWords(words)
		m.blocks++
		m.lanes += 64
		newly := 0
		laneUseful := uint64(0)
		for fi, f := range u.Faults {
			if detected[fi] {
				continue
			}
			if d := sim.Detects(f); d != 0 {
				detected[fi] = true
				newly++
				laneUseful |= d & -d // the first detecting lane
			}
		}
		res.Detected += newly
		res.RandomDetected += newly
		if newly == 0 {
			dry++
			continue
		}
		dry = 0
		for ; laneUseful != 0; laneUseful &= laneUseful - 1 {
			k := uint(bits.TrailingZeros64(laneUseful))
			p := make(Pattern, nCtrl)
			for ci, w := range words {
				p[ci] = uint8(w >> k & 1)
			}
			kept = append(kept, p)
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
// re-fault-simulated from last to first, 64 per block, and kept only if
// they are the first (in that order) to detect some fault.
func compactReverse(sim *Simulator, u *Universe, patterns []Pattern, detected []bool, m *runMetrics) []Pattern {
	if len(patterns) == 0 {
		return patterns
	}
	reversed := make([]Pattern, len(patterns))
	for i, p := range patterns {
		reversed[len(patterns)-1-i] = p
	}
	covered := make([]bool, len(u.Faults))
	useful := make([]bool, len(reversed))
	for start := 0; start < len(reversed); start += 64 {
		block := reversed[start:min(start+64, len(reversed))]
		m.blocks++
		m.lanes += int64(len(block))
		sim.LoadBlock(block)
		for fi, f := range u.Faults {
			if !detected[fi] || covered[fi] {
				continue
			}
			if d := sim.Detects(f); d != 0 {
				covered[fi] = true
				useful[start+bits.TrailingZeros64(d)] = true
			}
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
