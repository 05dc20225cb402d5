package dse

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tta"
)

// The warm-up stage runs ahead of the candidates of runEvaluations, on
// the same workers. A cold exploration is about one ATPG run long (the
// ripple ALU's PODEM), and every candidate of the default sweep needs
// that annotation; a candidate asks for it only after its structure is
// scheduled, so evaluating candidates in order leaves most of them
// waiting on one run. The stage instead queues, over the unrestored
// candidates in candidate order, one structural job per distinct
// structure (memo.get: the schedule plus area and clock, which never
// need ATPG). When a structural job finds its structure feasible it
// queues one annotation job per component key not queued yet.
//
// While structural jobs remain, one worker at most runs the queued
// annotation jobs, one at a time, and every other worker runs structural
// jobs. buildArch lists ALUs first, so the long pole starts right after
// the first schedule and overlaps every other job. Structural jobs can
// run on every worker because they barely touch the heap: they read only
// sched.MeasureContext's summary, which schedules in a pooled state and
// builds no move program. The one-annotation rule bounds the stage's
// memory: ATPG working sets side by side raise the cold sweep's resident
// memory (about 3% on a 2-vCPU Xeon) with no speed gain. Once the
// structural jobs are handed out, every worker takes annotation jobs.
//
// Only feasible structures queue annotations, so exactly the keys the
// candidates' EvaluateContext calls read are annotated, and the
// annotator's misses and saved cache are those of an exploration without
// the stage. Candidates start once the stage has drained and then only
// read the memo and the cache.

// warmFailure is a failed warm-up job: its error, or the value and
// original stack of its recovered panic (stack != nil).
type warmFailure struct {
	err   error
	value any
	stack []byte
}

// report returns the failure as arch's own evaluation error. A panic
// becomes an *EvalPanicError, counted and emitted exactly like a panic
// inside the candidate's own evaluation.
func (f *warmFailure) report(cfg *Config, em *emitter, arch *tta.Architecture) error {
	if f.stack == nil {
		return f.err
	}
	return recordPanic(cfg, em, arch, f.value, f.stack)
}

// guard runs one warm-up job and captures its error or recovered panic.
func guard(job func() error) (f *warmFailure) {
	defer func() {
		if r := recover(); r != nil {
			f = &warmFailure{value: r, stack: debug.Stack()}
		}
	}()
	if err := job(); err != nil {
		return &warmFailure{err: err}
	}
	return nil
}

// warmStruct is one distinct structure of the stage.
type warmStruct struct {
	arch *tta.Architecture // its lowest-index candidate
	keys []string          // annotation key per component; nil unless feasible
	fail *warmFailure
}

// annJob annotates the library component of one key.
type annJob struct {
	key  string
	comp *tta.Component
}

// warmStage is the stage's job queue, shared by its workers.
type warmStage struct {
	mu      sync.Mutex
	cond    sync.Cond
	structs []warmStruct
	next    int // next structural job to hand out
	running int // structural jobs in flight: they may still queue annotations
	atpg    int // annotation jobs in flight
	anns    []annJob
	queued  map[string]bool
	annFail map[string]*warmFailure
	failed  bool
}

// newWarmStage returns an empty job queue.
func newWarmStage() *warmStage {
	st := &warmStage{queued: make(map[string]bool), annFail: make(map[string]*warmFailure)}
	st.cond.L = &st.mu
	return st
}

// warmUp runs the stage over the unrestored candidates of [lo, hi) on
// the given number of workers and returns the failures it handed to
// candidates, by candidate index. A cancelled context stops the stage;
// its caller then evaluates no candidate.
func warmUp(ctx context.Context, cfg *Config, root *obs.Span, archs []*tta.Architecture, restored []bool, lo, hi, workers int, memo *schedMemo, busyNS *atomic.Int64) map[int]*warmFailure {
	st := newWarmStage()
	structOf := make([]int, hi-lo)
	byKey := make(map[string]int)
	for i := lo; i < hi; i++ {
		if restored[i] {
			continue
		}
		k := structKey(archs[i])
		si, ok := byKey[k]
		if !ok {
			si = len(st.structs)
			byKey[k] = si
			st.structs = append(st.structs, warmStruct{arch: archs[i]})
		}
		structOf[i-lo] = si
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.work(ctx, cfg, root, memo, busyNS)
		}()
	}
	wg.Wait()
	if ctx.Err() != nil || !st.failed {
		return nil
	}
	return st.handoffs(restored, lo, hi, structOf)
}

// work is one worker's loop: take a job, run it, record its outcome.
func (st *warmStage) work(ctx context.Context, cfg *Config, root *obs.Span, memo *schedMemo, busyNS *atomic.Int64) {
	for {
		si, ann, ok := st.take(ctx)
		if !ok {
			return
		}
		t0 := time.Now()
		sp := root.Child("evaluate")
		if ann != nil {
			atpgSp := sp.Child("atpg")
			f := guard(func() error { return cfg.Annotator.AnnotateContext(ctx, ann.comp) })
			atpgSp.End()
			st.annotated(ann.key, f)
		} else {
			arch := st.structs[si].arch
			var se structEval
			f := guard(func() (err error) {
				se, err = memo.get(ctx, cfg, arch, sp)
				return err
			})
			var keys []string
			if f == nil && se.feasible {
				keys = componentKeys(cfg, arch)
			}
			st.scheduled(si, f, keys)
		}
		sp.End()
		busyNS.Add(int64(time.Since(t0)))
	}
}

// take hands out the next job: a queued annotation first while no other
// annotation job runs or no structural job is left, else the next
// structural job. It waits while jobs in flight may still queue or
// unblock work, and reports false once the stage has drained or the
// context is done.
func (st *warmStage) take(ctx context.Context) (si int, ann *annJob, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return 0, nil, false
		}
		if len(st.anns) > 0 && (st.atpg == 0 || st.next == len(st.structs)) {
			job := st.anns[0]
			st.anns = st.anns[1:]
			st.atpg++
			return 0, &job, true
		}
		if st.next < len(st.structs) {
			si = st.next
			st.next++
			st.running++
			return si, nil, true
		}
		if st.running == 0 {
			return 0, nil, false
		}
		st.cond.Wait()
	}
}

// componentKeys resolves the annotation key of each of arch's
// components, once per structure. An unresolvable component gets "" and
// no job: the candidate's own EvaluateContext reports its error.
func componentKeys(cfg *Config, arch *tta.Architecture) []string {
	keys := make([]string, len(arch.Components))
	for ci := range arch.Components {
		keys[ci], _ = cfg.Annotator.ComponentKey(&arch.Components[ci])
	}
	return keys
}

// scheduled records a structural job's outcome and, for a feasible
// structure, queues its components' annotations in component order.
func (st *warmStage) scheduled(si int, f *warmFailure, keys []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &st.structs[si]
	s.fail = f
	if f != nil {
		st.failed = true
	}
	if keys != nil {
		s.keys = keys
		for ci, k := range keys {
			if k != "" && !st.queued[k] {
				st.queued[k] = true
				st.anns = append(st.anns, annJob{key: k, comp: &s.arch.Components[ci]})
			}
		}
	}
	st.running--
	st.cond.Broadcast()
}

// annotated records an annotation job's outcome.
func (st *warmStage) annotated(key string, f *warmFailure) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.atpg--
	if f != nil {
		st.annFail[key] = f
		st.failed = true
	}
	st.cond.Broadcast()
}

// handoffs gives each failure to the lowest-index candidate that depends
// on the failed job and carries no other failure. Every candidate of a
// structure depends on its structural job; every candidate of a feasible
// structure depends on the annotation jobs of its components. The other
// dependents evaluate normally: a failed annotation is not cached, so
// they retry it through the annotator, while a failed structural
// evaluation stays memoized and they report the memo's error.
func (st *warmStage) handoffs(restored []bool, lo, hi int, structOf []int) map[int]*warmFailure {
	out := make(map[int]*warmFailure)
	handed := make(map[*warmFailure]bool)
	give := func(i int, f *warmFailure) bool {
		if f == nil || handed[f] {
			return false
		}
		handed[f] = true
		out[i] = f
		return true
	}
	for i := lo; i < hi; i++ {
		if restored[i] {
			continue
		}
		s := &st.structs[structOf[i-lo]]
		if give(i, s.fail) {
			continue
		}
		for _, k := range s.keys {
			if give(i, st.annFail[k]) {
				break
			}
		}
	}
	return out
}
