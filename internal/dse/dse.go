// Package dse implements the design and test space exploration of the
// paper: it enumerates TTA templates (bus counts, function-unit mixes,
// register-file shapes), evaluates each candidate's circuit area,
// execution time (schedule cycles of the Crypt kernel times the
// architecture's clock period) and analytical test cost, extracts the 2-D
// area/time Pareto front (figure 2), lifts it to the 3-D
// area/time/test-cost front (figure 8), and selects the final architecture
// with a weighted norm (figure 9).
package dse

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypt"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// RFSpec describes one register file of a candidate.
type RFSpec struct {
	Regs, In, Out int
}

func (r RFSpec) String() string { return fmt.Sprintf("%dx(%dw%dr)", r.Regs, r.In, r.Out) }

// Config spans the explored space. Zero-value fields take the defaults of
// DefaultConfig, except Seed: 0 is a valid ATPG seed and is used as given
// (DefaultConfig sets 7).
type Config struct {
	Width int
	Seed  int64

	Buses     []int
	ALUCounts []int
	CMPCounts []int
	RFSets    [][]RFSpec

	// Assigns lists the port-to-bus assignment strategies to explore.
	// Different assignments of the same structure share area and cycle
	// count but differ in CD and hence test cost — the paper's figure 6
	// effect, and the reason 2-D-close points spread out on the test axis.
	Assigns []tta.AssignStrategy

	// Workload is the scheduled kernel; WorkloadReps scales the kernel's
	// cycle count to the full application (crypt: 400 DES rounds).
	Workload     *program.Graph
	WorkloadReps int

	// Annotator supplies the gate-level back-annotation. Sharing one
	// across explorations reuses its ATPG cache.
	Annotator *testcost.Annotator

	// Schedules, when non-nil, shares schedules across explorations: a
	// structure that an exploration on the same cache already scheduled
	// for this workload kernel is priced from the cached outcome instead
	// of being scheduled again (see ScheduleCache). Results are identical
	// with or without it. Nil (the default) schedules every structure.
	Schedules *ScheduleCache

	// Parallelism bounds the number of evaluation workers. They first run
	// the warm-up jobs (one schedule per distinct structure, one
	// gate-level annotation per component key of a feasible structure),
	// then the candidates. 0 selects GOMAXPROCS; negative values are a
	// configuration error (reported by ExploreContext). Results
	// are identical at any setting: candidates are independent and the
	// schedule memo and the annotator cache are synchronized.
	Parallelism int

	// EventSink, when non-nil, receives the exploration's typed progress
	// events (candidate/restored completions, isolated panics, degraded
	// annotations, warnings, and a final "done") synchronously from the
	// emitting goroutine. Calls are serialized in Seq order, so a slow
	// sink slows every worker that emits, and no event is ever dropped.
	// It is the run's only event path. See Event for the schema and
	// FrontTracker for a ready-made live-front consumer. A nil sink costs
	// nothing.
	EventSink func(Event)

	// Obs, when non-nil, collects the exploration's metrics: per-stage
	// spans (dse > enumerate/evaluate/pareto/sim with sched and atpg
	// under evaluate), candidate counters, annotator cache hit rate and
	// worker utilization. It is forwarded to the scheduler, the
	// annotator's ATPG runs and the functional simulator. Callers opt in
	// per exploration — no global state. A nil registry costs nothing.
	// Events do not pass through it; they go to EventSink.
	Obs *obs.Registry

	// VerifySelected, when set, functionally verifies the selected
	// candidate after the exploration: its schedule is re-derived and
	// executed on the cycle-accurate simulator (internal/sim) with every
	// transported value checked against the dataflow reference. The run
	// is recorded under the "sim" span of Obs.
	VerifySelected bool

	// Checkpoint, when non-nil, restores completed evaluations recorded
	// by a previous run of the same exploration and persists new ones as
	// workers finish (see OpenCheckpoint). A resumed run produces
	// byte-identical results to an uninterrupted one.
	Checkpoint *Checkpoint

	// Inject, when non-nil, arms deterministic fault injection across
	// the exploration: candidate evaluations (faultinject.DSEEval), the
	// annotator's ATPG runs and cache IO, and checkpoint writes. It is
	// forwarded to the annotator unless the annotator carries its own.
	// Nil (the default) costs nothing.
	Inject *faultinject.Injector

	// Search, when non-nil, replaces the exhaustive cross-product
	// enumeration (Buses × ALUCounts × CMPCounts × RFSets × Assigns)
	// with the guided GA + successive-halving exploration over the
	// widened parameter space (see SearchSpec and SearchSpaceSize). Only
	// the promoted survivors reach the full evaluation pipeline; events,
	// checkpoints, fronts and selection behave exactly as in sweep mode,
	// over the survivor list. The enumeration fields above are ignored.
	Search *SearchSpec

	// SpecHash, when non-empty, is the jobspec.Spec.Hash() result
	// identity stamped into checkpoint files, binding a checkpoint to
	// its job across resumes. Empty skips the check (direct Config users
	// have no spec).
	SpecHash string
}

// DefaultConfig returns the exploration used for the paper's figures: the
// crypt round kernel over 1-4 buses, 1-3 ALUs, 1-2 comparators and six
// register-file arrangements, with ATPG seed 7.
func DefaultConfig() (Config, error) {
	cfg := Config{Seed: 7}
	if err := cfg.fillSpace(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// fillSpace gives each zero field of the explored space the paper's value:
// width 16, 1-4 buses, 1-3 ALUs, 1-2 comparators, six register-file
// arrangements, both assignment strategies, and the crypt round kernel
// scaled to the full hash. It builds the kernel only when Workload is nil.
func (c *Config) fillSpace() error {
	if c.Width == 0 {
		c.Width = 16
	}
	if len(c.Buses) == 0 {
		c.Buses = []int{1, 2, 3, 4}
	}
	if len(c.ALUCounts) == 0 {
		c.ALUCounts = []int{1, 2, 3}
	}
	if len(c.CMPCounts) == 0 {
		c.CMPCounts = []int{1, 2}
	}
	if len(c.RFSets) == 0 {
		c.RFSets = [][]RFSpec{
			{{8, 1, 1}, {8, 1, 1}},
			{{8, 1, 1}, {12, 1, 1}},
			{{8, 1, 2}, {12, 1, 1}},
			{{12, 1, 2}, {12, 1, 2}},
			{{16, 1, 2}},
			{{16, 2, 2}, {16, 1, 2}},
		}
	}
	if len(c.Assigns) == 0 {
		c.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.Packed}
	}
	if c.Workload == nil {
		k, err := crypt.BuildCryptKernel(1)
		if err != nil {
			return err
		}
		c.Workload = k
		c.WorkloadReps = crypt.RoundsPerHash
	}
	if c.WorkloadReps == 0 {
		c.WorkloadReps = 1
	}
	return nil
}

// fillDefaults fills the zero space fields (fillSpace) and builds the
// annotator when the config carries none.
func (c *Config) fillDefaults() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("dse: Parallelism %d is negative (use 0 for GOMAXPROCS)", c.Parallelism)
	}
	if err := c.fillSpace(); err != nil {
		return err
	}
	if c.Annotator == nil {
		c.Annotator = testcost.NewAnnotator(c.Width, c.Seed)
	}
	// An annotator shared across concurrent explorations (the ttadsed
	// pool) must be fully configured before sharing; the nil checks
	// below then never write, so the shared fields are read-only here.
	if c.Annotator.Obs == nil && c.Obs != nil {
		c.Annotator.Obs = c.Obs
	}
	if c.Annotator.Inject == nil && c.Inject != nil {
		c.Annotator.Inject = c.Inject
	}
	return nil
}

// Candidate is one evaluated design point.
type Candidate struct {
	Arch *tta.Architecture

	Area     float64 // NAND2-equivalent units (components + sockets + buses)
	Cycles   int     // kernel schedule length
	Clock    float64 // normalized clock period (critical path + bus delay)
	ExecTime float64 // Cycles * reps * Clock
	TestCost int     // equation (14)
	FullScan int     // full-scan baseline for the same components

	Feasible bool
	Reason   string // why infeasible

	Spills int

	// Degraded marks a candidate whose test cost rests on the analytical
	// SCOAP bound instead of measured ATPG patterns — the annotator's
	// budget ran out (see testcost.Annotator.ATPGDeadline). Degraded
	// test costs are pessimistic upper bounds; SelectionSpec's
	// DegradedPolicy controls whether such points may win the selection.
	Degraded bool
}

// Record is the candidate's record in the JSON report and on the event
// stream, at enumeration index index. Arch is empty for a slot that was
// never evaluated.
func (c *Candidate) Record(index int) report.JSONCandidate {
	r := report.JSONCandidate{
		Index: index, Feasible: c.Feasible, Reason: c.Reason,
		Area: c.Area, Cycles: c.Cycles, Clock: c.Clock, ExecTime: c.ExecTime,
		TestCost: c.TestCost, FullScan: c.FullScan, Spills: c.Spills,
		Degraded: c.Degraded,
	}
	if c.Arch != nil {
		r.Arch = c.Arch.Name
	}
	return r
}

// Coords returns the (area, time, test) vector.
func (c *Candidate) Coords() []float64 {
	return []float64{c.Area, c.ExecTime, float64(c.TestCost)}
}

// Result is a completed exploration.
type Result struct {
	Config     Config
	Candidates []Candidate

	// Feasible indexes candidates that scheduled successfully.
	Feasible []int
	// Front2D/Front3D index into Candidates: the area/time front
	// (figure 2) and the area/time/test front (figure 8).
	Front2D []int
	Front3D []int
	// Selected indexes Candidates: the minimal-equal-weight-Euclid-norm
	// member of the 3-D front (figure 9).
	Selected int
	// Verified reports that the selected candidate's schedule executed
	// correctly on the cycle-accurate simulator (Config.VerifySelected).
	Verified bool
}

// ExploreContext runs the full exploration under ctx. Cancelling the
// context (or exceeding its deadline) stops the candidate evaluations —
// including in-flight scheduling and gate-level ATPG runs — promptly and
// with no leaked goroutine; a panicking or failing candidate is isolated
// to its own slot while the rest of the sweep continues. Whenever some
// candidates finished and others did not (cancellation, per-candidate
// errors, recovered panics), the result is still returned: fronts and
// selection are computed over the evaluated candidates, and the error is
// a *PartialError describing the holes, unwrapping to ctx.Err() for a
// timeout so callers can tell "ran out of time" from "hit a bug". Only a
// configuration error or an exploration with nothing usable returns a
// nil result; a workload graph that fails validation is a configuration
// error, reported before anything is enumerated. When cfg.Obs is set,
// the run is fully instrumented (see Config.Obs).
func ExploreContext(ctx context.Context, cfg Config) (*Result, error) {
	em := newEmitter(cfg.EventSink)
	nEvents := &atomic.Int64{}
	total := 0
	// Every exploration ends its typed stream with exactly one "done"
	// event, whatever the exit path — consumers (the daemon's stream
	// endpoint) key their termination on it.
	defer func() {
		em.emit(Event{Kind: EventDone, N: int(nEvents.Load()), Total: total})
	}()
	// Every exit path leaves the worker gauges set: 0 until the workers
	// run and overwrite them (the screen's only in a search).
	cfg.Obs.Gauge("dse.worker.utilization").Set(0)
	if cfg.Search != nil {
		cfg.Obs.Gauge("dse.search.worker.utilization").Set(0)
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	// Every schedule of the exploration reads one plan of the workload
	// graph, which NewPlan validates.
	plan, err := sched.NewPlan(cfg.Workload, sched.CriticalPath)
	if err != nil {
		return nil, fmt.Errorf("dse: malformed workload kernel: %w", err)
	}
	reg := cfg.Obs
	// What loading the annotator and the checkpoint recovered or
	// ignored: this run uses both, so it reports that first.
	warnings := cfg.Annotator.LoadWarnings()
	if cfg.Checkpoint != nil {
		warnings = append(warnings, cfg.Checkpoint.warnings...)
	}
	for _, msg := range warnings {
		em.emit(Event{Kind: EventWarning, Msg: msg})
	}
	cfg.Checkpoint.bind(reg, cfg.Inject)
	root := reg.StartSpan("dse")
	defer root.End()
	res := &Result{Config: cfg, Selected: -1}

	memo := newSchedMemo(plan)
	if cfg.Schedules != nil {
		memo.shared, memo.kernel = cfg.Schedules, kernelDigest(cfg.Workload)
	}
	archs, err := produceArchs(ctx, &cfg, root, memo)
	if err != nil {
		return nil, err
	}
	total = len(archs)
	reg.Counter("dse.candidates.total").Add(int64(len(archs)))

	errs := runEvaluations(ctx, &cfg, root, archs, memo, res, em, nEvents)
	partial := partialErrorFor(ctx, res, errs)
	if hit, miss := reg.Counter("testcost.cache.hit").Value(), reg.Counter("testcost.cache.miss").Value(); hit+miss > 0 {
		reg.Gauge("testcost.cache.hit_rate").Set(float64(hit) / float64(hit+miss))
	}

	paretoSp := root.Child("pareto")
	defer paretoSp.End()
	var pts2, pts3 []pareto.Point
	for i := range res.Candidates {
		c := &res.Candidates[i]
		// Fronts are built over candidates that evaluated cleanly:
		// error'd slots may carry a half-filled evaluation, and
		// never-started slots (claimed by no worker before the context
		// ended) are zero values.
		if !c.Feasible || errs[i] != nil || c.Arch == nil {
			continue
		}
		res.Feasible = append(res.Feasible, i)
		pts2 = append(pts2, pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime}})
		pts3 = append(pts3, pareto.Point{ID: i, Coords: c.Coords()})
	}
	if len(pts2) == 0 {
		if partial != nil {
			return res, partial
		}
		return res, fmt.Errorf("dse: no feasible candidate in the explored space")
	}
	for _, pi := range pareto.Front(pts2) {
		res.Front2D = append(res.Front2D, pts2[pi].ID)
	}
	for _, pi := range pareto.Front(pts3) {
		res.Front3D = append(res.Front3D, pts3[pi].ID)
	}
	sort.Ints(res.Front2D)
	sort.Ints(res.Front3D)

	// Selection (figure 9): equal-weight Euclidean norm over the 3-D
	// front members.
	if err := res.Reselect(SelectionSpec{}); err != nil {
		return res, err
	}
	paretoSp.End()

	if cfg.VerifySelected && res.Selected >= 0 && ctx.Err() == nil {
		simSp := root.Child("sim")
		err := verifySelected(ctx, &cfg, res)
		simSp.End()
		if err != nil {
			return res, fmt.Errorf("dse: selected-candidate verification: %w", err)
		}
		res.Verified = true
	}
	if partial != nil {
		return res, partial
	}
	return res, nil
}

// produceArchs builds the candidate list — exhaustive enumeration by
// default, the guided GA screen when Search is set. It is a pure
// function of the config (the GA draws from a control-thread-only rng
// and screens with the pure bound tier), which is what lets a resumed
// run restore its checkpoint against the identical list. The screen
// fills memo, the structural memo the candidates then read, with every
// survivor's structure; a sweep leaves it empty.
func produceArchs(ctx context.Context, cfg *Config, root *obs.Span, memo *schedMemo) ([]*tta.Architecture, error) {
	if cfg.Search != nil {
		spec := *cfg.Search
		if err := spec.fillDefaults(cfg.Seed); err != nil {
			return nil, err
		}
		searchSp := root.Child("search")
		archs, err := searchCandidates(ctx, cfg, searchSp, spec, memo)
		searchSp.End()
		return archs, err
	}
	enumSp := root.Child("enumerate")
	defer enumSp.End()
	var archs []*tta.Architecture
	id := 0
	for _, buses := range cfg.Buses {
		for _, nALU := range cfg.ALUCounts {
			for _, nCMP := range cfg.CMPCounts {
				for rfi, rfs := range cfg.RFSets {
					for _, strat := range cfg.Assigns {
						archs = append(archs, buildArch(cfg.Width, buses, nALU, nCMP, rfs, strat, id, rfi))
						id++
					}
				}
			}
		}
	}
	return archs, nil
}

// partialErrorFor tallies the holes an evaluation sweep left behind and
// builds the *PartialError describing them — nil when every candidate
// evaluated cleanly.
func partialErrorFor(ctx context.Context, res *Result, errs []error) *PartialError {
	evaluated, panics := 0, 0
	var errMap map[int]error
	for i, err := range errs {
		switch {
		case err != nil:
			if errMap == nil {
				errMap = make(map[int]error)
			}
			errMap[i] = err
			var pe *EvalPanicError
			if errors.As(err, &pe) {
				panics++
			}
		case res.Candidates[i].Arch != nil:
			evaluated++
		}
	}
	if errMap == nil && evaluated == len(errs) && ctx.Err() == nil {
		return nil
	}
	cause := ctx.Err()
	if cause == nil {
		cause = firstErr(errMap)
	}
	if cause == nil {
		// No context error and no per-candidate error, yet holes remain —
		// defensive; workers stop claiming candidates only on ctx.Done().
		cause = fmt.Errorf("dse: %d candidates never evaluated", len(errs)-evaluated)
	}
	return &PartialError{
		Total:     len(errs),
		Evaluated: evaluated,
		Panics:    panics,
		Errs:      errMap,
		Cause:     cause,
	}
}

// runEvaluations evaluates the candidate list over a bounded worker
// pool, filling the matching res.Candidates slots (indexed, so ordering
// is deterministic at any parallelism) and returning the per-candidate
// errors. Structures come from memo, shared with the guided search's
// screen when it produced the list, so a structure the screen scheduled
// is not scheduled again. Evaluations recorded in cfg.Checkpoint are
// restored instead of recomputed, and new completions are recorded
// back. The workers first run the warm-up stage (warmUp: every schedule
// and every annotation the candidates will read), then claim the
// candidates by index (forEachIndex), skipping restored ones. A run
// cancelled during the stage evaluates no candidate, and a worker that
// sees the context end claims no further candidate. A panicking
// evaluation is recovered into its own error slot (*EvalPanicError),
// and a failed warm-up job into the slot of the lowest-index candidate
// depending on it; the sweep continues. The "dse.worker.utilization"
// gauge is set on every exit path — including a cancelled context or a
// candidate error surfacing to the caller.
func runEvaluations(ctx context.Context, cfg *Config, root *obs.Span, archs []*tta.Architecture, memo *schedMemo, res *Result, em *emitter, nEvents *atomic.Int64) []error {
	reg := cfg.Obs
	res.Candidates = make([]Candidate, len(archs))
	errs := make([]error, len(archs))

	// Restore the finished prefix of an interrupted run before spinning
	// up workers: the workers skip restored slots. Each restore is
	// announced on the typed stream (kind "restored"), so live-front
	// consumers of a resumed run see the full picture.
	restored := make([]bool, len(archs))
	nRestored := 0
	for i, arch := range archs {
		if e, ok := cfg.Checkpoint.lookup(checkpointKey(arch)); ok {
			res.Candidates[i] = e.candidate(arch)
			restored[i] = true
			nRestored++
			em.emit(Event{
				Kind:      EventRestored,
				Msg:       candidateEventMsg(arch, &res.Candidates[i], nil),
				N:         nRestored,
				Total:     len(archs),
				Candidate: candidateUpdate(i, &res.Candidates[i], nil),
			})
			nEvents.Add(1)
		}
	}
	if nRestored > 0 {
		reg.Counter("dse.checkpoint.restored").Add(int64(nRestored))
	}
	// The last flush is the durable one, on every exit path from here,
	// so a cut-short run keeps its tail for the resume; it precedes
	// "done", so its failure still reaches the stream.
	defer func() {
		if err := cfg.Checkpoint.FlushErr(); err != nil {
			flushWarning(em, err)
		}
	}()

	workers := workerCount(cfg, len(archs)-nRestored)
	reg.Gauge("dse.workers").Set(float64(workers))
	evalStart := time.Now()
	var busyNS, completed atomic.Int64
	completed.Store(int64(nRestored))
	defer func() {
		util := 0.0
		if wall := time.Since(evalStart); wall > 0 && workers > 0 {
			util = float64(busyNS.Load()) / (float64(wall.Nanoseconds()) * float64(workers))
		}
		reg.Gauge("dse.worker.utilization").Set(util)
	}()
	handoff := warmUp(ctx, cfg, root, archs, restored, workers, memo, em, &busyNS)
	if ctx.Err() != nil {
		return errs
	}
	forEachIndex(ctx, len(archs), workers, func(i int) {
		if restored[i] {
			return
		}
		t0 := time.Now()
		sp := root.Child("evaluate")
		if f := handoff[i]; f != nil {
			res.Candidates[i], errs[i] = Candidate{Arch: archs[i]}, f.report(cfg, em, archs[i])
		} else {
			res.Candidates[i], errs[i] = safeEvaluate(ctx, cfg, archs[i], sp, memo, em)
		}
		sp.End()
		busyNS.Add(int64(time.Since(t0)))
		if errs[i] == nil {
			if res.Candidates[i].Feasible {
				reg.Counter("dse.candidates.feasible").Inc()
			} else {
				reg.Counter("dse.candidates.infeasible").Inc()
			}
			if err := cfg.Checkpoint.record(checkpointKey(archs[i]), &res.Candidates[i]); err != nil {
				flushWarning(em, err)
			}
		}
		em.emit(Event{
			Kind:      EventCandidate,
			Msg:       candidateEventMsg(archs[i], &res.Candidates[i], errs[i]),
			N:         int(completed.Add(1)),
			Total:     len(archs),
			Candidate: candidateUpdate(i, &res.Candidates[i], errs[i]),
		})
		nEvents.Add(1)
	})
	return errs
}

// safeEvaluate isolates one candidate evaluation: a panic anywhere under
// it (scheduler, annotator, ATPG, injected chaos) is recovered into a
// *EvalPanicError on that candidate's slot, counted on "dse.eval.panics"
// and emitted as a "panic" event carrying the stack — the rest of the
// sweep keeps running. The faultinject.DSEEval hit point fires here, so
// every injection mode (error, panic, cancel, sleep) exercises the same
// path real failures take.
func safeEvaluate(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, memo *schedMemo, em *emitter) (cand Candidate, err error) {
	defer func() {
		if r := recover(); r != nil {
			cand, err = Candidate{Arch: arch}, recordPanic(cfg, em, arch, r, debug.Stack())
		}
	}()
	if err := cfg.Inject.Hit(faultinject.DSEEval); err != nil {
		return Candidate{Arch: arch}, err
	}
	return evaluate(ctx, cfg, arch, sp, memo)
}

// recordPanic turns a recovered panic into arch's *EvalPanicError,
// counted on "dse.eval.panics" and emitted as a "panic" event.
func recordPanic(cfg *Config, em *emitter, arch *tta.Architecture, value any, stack []byte) error {
	pe := &EvalPanicError{Arch: arch.Name, Value: value, Stack: stack}
	cfg.Obs.Counter("dse.eval.panics").Inc()
	em.emit(Event{Kind: EventPanic, Msg: fmt.Sprintf("%v\n%s", pe, pe.Stack)})
	return pe
}

// flushWarning reports a failed checkpoint write on the run's stream.
func flushWarning(em *emitter, err error) {
	em.emit(Event{Kind: EventWarning, Msg: fmt.Sprintf("checkpoint flush failed: %v", err)})
}

// candidateEventMsg renders one progress-event line for a completed
// candidate evaluation.
func candidateEventMsg(arch *tta.Architecture, c *Candidate, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: error: %v", arch.Name, err)
	case !c.Feasible:
		return fmt.Sprintf("%s: infeasible (%s)", arch.Name, c.Reason)
	default:
		return fmt.Sprintf("%s: area %.0f, %d cycles, test %d", arch.Name, c.Area, c.Cycles, c.TestCost)
	}
}

// verifySelected cross-checks the selected candidate end to end: the
// workload is re-scheduled onto the winning architecture and the move
// program executed on the cycle-accurate simulator with reference
// verification of every transported value (inputs seeded to zero — the
// check is schedule correctness, not application output).
func verifySelected(ctx context.Context, cfg *Config, res *Result) error {
	arch := res.Candidates[res.Selected].Arch
	schedRes, err := sched.ScheduleContext(ctx, cfg.Workload, arch, sched.Options{Obs: cfg.Obs})
	if err != nil {
		return err
	}
	inputs := make([]uint64, cfg.Workload.NumInputs())
	_, err = sim.Run(schedRes, inputs, crypt.MemoryImage(), sim.Options{Verify: true, Obs: cfg.Obs})
	return err
}

// buildArch assembles one candidate architecture of the sweep.
func buildArch(width, buses, nALU, nCMP int, rfs []RFSpec, strat tta.AssignStrategy, id, rfi int) *tta.Architecture {
	name := fmt.Sprintf("c%03d_b%d_a%d_c%d_rf%d_%s", id, buses, nALU, nCMP, rfi, strat)
	return assembleArch(name, width, buses, nALU, nCMP, gatelib.AdderRipple, rfs, strat)
}

// assembleArch builds an architecture of the paper's template: nALU ALUs
// of the given adder (ALU1, ALU2, ...), nCMP CMPs, the register files (RF1,
// ...), then LD/ST, PC and Immediate, with ports assigned by strat.
func assembleArch(name string, width, buses, nALU, nCMP int, adder gatelib.AdderKind, rfs []RFSpec, strat tta.AssignStrategy) *tta.Architecture {
	a := &tta.Architecture{
		Name:       name,
		Width:      width,
		Buses:      buses,
		Components: make([]tta.Component, 0, nALU+nCMP+len(rfs)+3),
	}
	for i := 1; i <= nALU; i++ {
		fu := tta.NewFU(tta.ALU, "ALU"+strconv.Itoa(i))
		fu.Adder = adder
		a.Components = append(a.Components, fu)
	}
	for i := 1; i <= nCMP; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.CMP, "CMP"+strconv.Itoa(i)))
	}
	for i, rf := range rfs {
		a.Components = append(a.Components, tta.NewRF("RF"+strconv.Itoa(i+1), rf.Regs, rf.In, rf.Out))
	}
	a.Components = append(a.Components,
		tta.NewFU(tta.LDST, "LD/ST"),
		tta.NewPC("PC"),
		tta.NewIMM("Immediate"),
	)
	tta.AssignPorts(a, strat)
	return a
}

// structEval is the structural (port-assignment-independent) part of a
// candidate evaluation: the scheduler never reads the port-to-bus
// assignment (only the bus count), and area and clock depend only on the
// component mix — so the Assigns variants of one structure share
// all of it and recompute only CD and hence test cost. usage is what the
// schedule used of the buses and units (zero when infeasible).
type structEval struct {
	feasible bool
	reason   string
	cycles   int
	spills   int
	usage    sched.Usage
	area     float64
	clock    float64
}

// structKey is the structural signature a schedule memo entry is keyed
// by: width, bus count and the ordered component mix (kinds, ALU adder
// microarchitecture, register-file shapes) — everything that feeds the
// structural evaluation, and nothing of the port assignment.
func structKey(a *tta.Architecture) string { return structureKey(a, false) }

// scheduleClass is structKey without the bus count, the ALUs and the CMP
// units: the width and the ordered register files, LD/ST, PC and
// Immediate. Two structures of one class differ only in what
// sched.Counts counts and in the adder, which the scheduler never reads,
// so a schedule of one serves another wherever its Usage admits the
// other's counts.
func scheduleClass(a *tta.Architecture) string { return structureKey(a, true) }

// structureKey builds structKey, or scheduleClass when class is set.
func structureKey(a *tta.Architecture, class bool) string {
	// Built with strconv rather than fmt: the warm-up stage and every
	// candidate look structures up by this key.
	b := make([]byte, 0, 96)
	b = append(b, 'w')
	b = strconv.AppendInt(b, int64(a.Width), 10)
	if !class {
		b = append(b, "/b"...)
		b = strconv.AppendInt(b, int64(a.Buses), 10)
	}
	for ci := range a.Components {
		c := &a.Components[ci]
		switch {
		case class && (c.Kind == tta.ALU || c.Kind == tta.CMP):
			// Counted by sched.Counts, not part of the class.
		case c.Kind == tta.ALU:
			b = append(b, "/alu:"...)
			b = append(b, c.Adder.String()...)
		case c.Kind == tta.RF:
			b = append(b, "/rf:"...)
			b = strconv.AppendInt(b, int64(c.NumRegs), 10)
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(c.NumIn), 10)
			b = append(b, 'w')
			b = strconv.AppendInt(b, int64(c.NumOut), 10)
			b = append(b, 'r')
		default:
			b = append(b, '/')
			b = append(b, c.Kind.String()...)
		}
	}
	return string(b)
}

// schedMemo shares structural evaluations across the assign-strategy
// variants of one structure, single-flight per key: the first requester
// schedules, duplicates block only on their own structure's latch.
//
// It also keeps every feasible schedule it computed, by schedule class,
// for reuse (see sched.Usage.Admits): a structure missing from the memo
// takes the cycles and spills of a sealed schedule of its class whose
// usage admits its counts, and computes only its own area and clock. A
// schedule is sealed by seal, which the guided search calls at each
// generation barrier; lookups read sealed schedules only, so which
// structures are scheduled, reused or hit depends on the genomes alone,
// never on the order in which workers finish. A sweep never seals.
// Callers validate a structure before they look it up: reuse skips the
// scheduler, which would reject an invalid one.
//
// There is one memo per exploration, and it holds the exploration's
// schedule plan: the workload graph validated, ordered and indexed once
// (sched.NewPlan), which every schedule of the exploration reads. When
// the exploration shares a ScheduleCache, a structure the memo misses is
// looked up there before it is scheduled.
type schedMemo struct {
	mu sync.Mutex
	m  map[string]*schedMemoEntry
	// fresh holds, by schedule class, the feasible schedules computed
	// since the last seal; sealed holds those computed before it.
	fresh, sealed map[string][]classSched
	plan          *sched.Plan
	// shared is Config.Schedules, and kernel the digest of the plan's
	// graph that keys it.
	shared *ScheduleCache
	kernel [sha256.Size]byte
	// eval computes a missing entry: evalStructural, or a stand-in in
	// tests of the latch.
	eval func(context.Context, *Config, *tta.Architecture, *obs.Span) (structEval, error)
}

type schedMemoEntry struct {
	done chan struct{} // closed once val/err are set
	val  structEval
	err  error
}

// classSched is a feasible schedule of a class: the counts of the
// structure it was made on, and that structure's settled entry.
type classSched struct {
	counts sched.Counts
	e      *schedMemoEntry
}

// newSchedMemo returns an empty memo scheduling from plan, which must
// order by the critical-path priority.
func newSchedMemo(plan *sched.Plan) *schedMemo {
	m := &schedMemo{
		m:      make(map[string]*schedMemoEntry),
		fresh:  make(map[string][]classSched),
		sealed: make(map[string][]classSched),
		plan:   plan,
	}
	m.eval = m.evalStructural
	return m
}

// get returns the structural evaluation for arch, computing it at most
// once per structural signature ("dse.sched.memo.hit"/".miss" count the
// reuse). A miss that a sealed schedule serves also counts on
// "dse.sched.memo.reuse". sp is the requesting job's "evaluate" span;
// only a request that schedules records a "sched" child under it.
func (m *schedMemo) get(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (structEval, error) {
	key := structKey(arch)
	m.mu.Lock()
	e, ok := m.m[key]
	if ok {
		m.mu.Unlock()
		cfg.Obs.Counter("dse.sched.memo.hit").Inc()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return structEval{}, ctx.Err()
		}
	}
	e = &schedMemoEntry{done: make(chan struct{})}
	m.m[key] = e
	class := scheduleClass(arch)
	counts := sched.CountsOf(arch)
	src := m.admitting(class, counts)
	m.mu.Unlock()
	cfg.Obs.Counter("dse.sched.memo.miss").Inc()
	// The latch must settle even if the structural evaluation panics:
	// variants of the same structure are blocked on e.done, and a leader
	// that dies without closing it would strand them forever. The panic
	// itself still propagates (to the warm-up job or the candidate that
	// led, which isolates it); the waiters get an ordinary error.
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("dse: structural evaluation of %s panicked: %v", arch.Name, r)
			close(e.done)
			panic(r)
		}
	}()
	if src != nil {
		cfg.Obs.Counter("dse.sched.memo.reuse").Inc()
		e.val, e.err = reuse(ctx, cfg, arch, src)
	} else {
		e.val, e.err = m.eval(ctx, cfg, arch, sp)
	}
	close(e.done)
	if src == nil && e.err == nil && e.val.feasible {
		m.mu.Lock()
		m.fresh[class] = append(m.fresh[class], classSched{counts, e})
		m.mu.Unlock()
	}
	return e.val, e.err
}

// admitting returns the evaluation of a sealed schedule of the class
// whose usage admits counts, or nil. Every such schedule is the one the
// scheduler would make for counts, so any of them serves. m.mu is held.
func (m *schedMemo) admitting(class string, counts sched.Counts) *structEval {
	for _, c := range m.sealed[class] {
		if c.e.val.usage.Admits(c.counts, counts) {
			return &c.e.val
		}
	}
	return nil
}

// reuse prices arch with src's schedule: src's cycles, spills and usage,
// and arch's own area and clock.
func reuse(ctx context.Context, cfg *Config, arch *tta.Architecture, src *structEval) (structEval, error) {
	area, clock, err := areaClock(ctx, cfg, arch)
	if err != nil {
		return structEval{}, err
	}
	return structEval{feasible: true, cycles: src.cycles, spills: src.spills, usage: src.usage, area: area, clock: clock}, nil
}

// seal makes the schedules computed so far available for reuse.
func (m *schedMemo) seal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for class, cs := range m.fresh {
		m.sealed[class] = append(m.sealed[class], cs...)
	}
	clear(m.fresh)
}

// evalStructural schedules the kernel from the memo's plan and derives
// area and clock for one structure — the memoized part of evaluate, and
// the structural part of the guided search's screen.
func (m *schedMemo) evalStructural(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (structEval, error) {
	// Throughput axis: schedule the kernel; its summary is enough.
	o, err := m.measure(ctx, cfg, arch, sp)
	if err != nil {
		return structEval{}, err
	}
	if !o.feasible {
		return structEval{feasible: false, reason: o.reason}, nil
	}
	se := structEval{
		feasible: true,
		cycles:   o.sum.Cycles,
		spills:   o.sum.Spills,
		usage:    o.sum.Usage,
	}
	if se.area, se.clock, err = areaClock(ctx, cfg, arch); err != nil {
		return structEval{}, err
	}
	return se, nil
}

// measure schedules the kernel on arch from the memo's plan, or takes
// the outcome from the shared cache ("dse.sched.shared.hit"/".miss"). A
// hit records no "sched" span and no "sched.*" counter. A schedule cut
// short by ctx returns ctx's error, and nothing is stored once ctx has
// ended.
func (m *schedMemo) measure(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (scheduleOutcome, error) {
	var key scheduleKey
	if m.shared != nil {
		key = scheduleKey{m.kernel, structKey(arch)}
		if o, ok := m.shared.lookup(key); ok {
			cfg.Obs.Counter("dse.sched.shared.hit").Inc()
			return o, nil
		}
		cfg.Obs.Counter("dse.sched.shared.miss").Inc()
	}
	schedSp := sp.Child("sched")
	sum, err := m.plan.Measure(ctx, arch, sched.Options{Obs: cfg.Obs})
	schedSp.End()
	if err != nil && ctx.Err() != nil {
		return scheduleOutcome{}, ctx.Err()
	}
	o := scheduleOutcome{sum: sum, feasible: err == nil}
	if err != nil {
		o.reason = err.Error()
	}
	if m.shared != nil && ctx.Err() == nil {
		m.shared.store(key, o)
	}
	return o, nil
}

// The interconnect model: busAreaPerBit is the wiring/driver area of
// one bus bit line, busDelay the interconnect's contribution to the
// clock period.
const (
	busAreaPerBit = 3.0
	busDelay      = 1.5
)

// areaClock returns the area and the clock period of a structure, read
// off the component netlists (Annotator.AreaDelayContext), so they never
// wait on a gate-level ATPG run.
func areaClock(ctx context.Context, cfg *Config, arch *tta.Architecture) (area, clock float64, err error) {
	clock = busDelay
	for ci := range arch.Components {
		ar, dl, err := cfg.Annotator.AreaDelayContext(ctx, &arch.Components[ci])
		if err != nil {
			return 0, 0, err
		}
		area += ar
		if dl+busDelay > clock {
			clock = dl + busDelay
		}
	}
	inA, outA, err := cfg.Annotator.SocketArea()
	if err != nil {
		return 0, 0, err
	}
	for ci := range arch.Components {
		in, out := arch.Components[ci].PortCounts()
		area += float64(in)*inA + float64(out)*outA
	}
	area += float64(arch.Buses) * float64(arch.Width) * busAreaPerBit
	return area, clock, nil
}

// evaluate computes all three axes for one candidate. sp (nil allowed)
// is the candidate's "evaluate" span. The structural part (cycles, area,
// clock) comes from the shared memo and the test cost from the
// annotator's cache — the warm-up stage of runEvaluations has normally
// computed both — so only the assignment-dependent eq. (14) assembly is
// computed per variant.
func evaluate(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, memo *schedMemo) (Candidate, error) {
	cand := Candidate{Arch: arch}
	se, err := memo.get(ctx, cfg, arch, sp)
	if err != nil {
		return cand, err
	}
	cand.Feasible = se.feasible
	cand.Reason = se.reason
	if !se.feasible {
		return cand, nil
	}
	cand.Cycles = se.cycles
	cand.Spills = se.spills
	cand.Area = se.area
	cand.Clock = se.clock
	cand.ExecTime = float64(se.cycles) * float64(cfg.WorkloadReps) * se.clock

	// Test axis: equation (14) — CD depends on the port assignment, so
	// this is never memoized across variants (the annotator's own
	// per-component cache still applies).
	cost, err := cfg.Annotator.EvaluateContext(ctx, arch)
	if err != nil {
		return cand, err
	}
	cand.TestCost = cost.Total
	cand.FullScan = cost.FullScanTotal
	cand.Degraded = cost.Degraded
	return cand, nil
}

// ProjectionPreserved checks the paper's figure-8 claim: projecting the
// 3-D front back onto the area/time plane loses no point of the 2-D front
// ("the first projection of the 3D curve in the area-execution-time plane
// is still the curve from figure 2"). The comparison is by coordinates:
// when several candidates tie in area and time (e.g. port-assignment
// variants), the 3-D front keeps the test-cheapest one, which still covers
// the 2-D point.
func (r *Result) ProjectionPreserved() bool {
	const eps = 1e-9
	for _, i := range r.Front2D {
		a := &r.Candidates[i]
		covered := false
		for _, j := range r.Front3D {
			b := &r.Candidates[j]
			if relDiff(a.Area, b.Area) < eps && relDiff(a.ExecTime, b.ExecTime) < eps {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// TestCostSpread reports the widest (min, max) test-cost pair among
// feasible candidates whose area and execution-time coordinates lie within
// relative eps of each other — the paper's observation that architectures
// close to each other on the 2-D Pareto curve may still differ strongly in
// test cost (figure 8), which is what makes the third axis worth adding.
func (r *Result) TestCostSpread(eps float64) (lo, hi int, found bool) {
	bestSpread := -1
	for ai, i := range r.Feasible {
		for _, j := range r.Feasible[ai+1:] {
			a, b := &r.Candidates[i], &r.Candidates[j]
			if relDiff(a.Area, b.Area) >= eps || relDiff(a.ExecTime, b.ExecTime) >= eps {
				continue
			}
			l, h := a.TestCost, b.TestCost
			if l > h {
				l, h = h, l
			}
			if h-l > bestSpread {
				bestSpread = h - l
				lo, hi, found = l, h, true
			}
		}
	}
	return lo, hi, found
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
