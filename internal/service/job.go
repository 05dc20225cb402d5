package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

// The job states. Queued and running jobs are "active" for admission;
// every other state is terminal.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	// StateFailed: the exploration errored (or its per-job timeout
	// expired) before completing.
	StateFailed State = "failed"
	// StateCancelled: DELETE /v1/jobs/{id} stopped the job.
	StateCancelled State = "cancelled"
	// StateInterrupted: Drain stopped the job; its checkpoint holds the
	// finished prefix and the same spec resumes on a restarted daemon.
	StateInterrupted State = "interrupted"
)

// Job is one submitted exploration. All methods are safe for concurrent
// use; the HTTP layer and the exploration goroutine share it.
type Job struct {
	ID   string
	Spec jobspec.Spec

	ctx      context.Context
	cancelFn context.CancelCauseFunc
	hub      *hub
	tracker  *dse.FrontTracker
	reg      *obs.Registry
	done     chan struct{}

	mu     sync.Mutex
	state  State
	errMsg string
	report []byte
}

func newJob(id string, spec jobspec.Spec) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	reg := obs.NewRegistry()
	return &Job{
		ID:       id,
		Spec:     spec,
		ctx:      ctx,
		cancelFn: cancel,
		hub:      new(hub),
		tracker:  dse.NewFrontTrackerObs(reg),
		reg:      reg,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
}

// cancel stops the job with the given cause (ErrCancelled, ErrDraining).
func (j *Job) cancel(cause error) { j.cancelFn(cause) }

// Cancel stops the job on behalf of a client.
func (j *Job) Cancel() { j.cancel(ErrCancelled) }

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the encoded final report, or nil while none exists. An
// interrupted or failed job may still carry a partial report.
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Front snapshots the Pareto fronts over the evaluations so far.
func (j *Job) Front() *dse.FrontSnapshot { return j.tracker.Snapshot() }

// JobStatus is the serialized job state the HTTP layer returns.
type JobStatus struct {
	ID        string       `json:"id"`
	State     State        `json:"state"`
	Error     string       `json:"error,omitempty"`
	Evaluated int          `json:"evaluated"`
	Total     int          `json:"total"`
	Events    int          `json:"events"`
	Spec      jobspec.Spec `json:"spec"`
}

// Status snapshots the job for listings and polls. Progress comes from
// the front tracker, which deduplicates by candidate index — a restored
// evaluation that is re-announced around a resume counts once, so
// Evaluated can never exceed Total.
func (j *Job) Status() JobStatus {
	evaluated, total := j.tracker.Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.ID,
		State:     j.state,
		Error:     j.errMsg,
		Evaluated: evaluated,
		Total:     total,
		Events:    j.hub.len(),
		Spec:      j.Spec,
	}
}

// sink is the job's dse.Config.EventSink: it feeds the event hub (live
// streams + history replay) and the front tracker, which also owns the
// progress accounting. Called concurrently by the exploration's workers.
func (j *Job) sink(ev dse.Event) {
	j.tracker.Observe(ev)
	j.hub.publish(ev)
}

func (j *Job) setState(st State) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// finish records the terminal state and releases event streams.
func (j *Job) finish(st State, errMsg string, report []byte) {
	j.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	if report != nil {
		j.report = report
	}
	j.mu.Unlock()
	j.hub.close()
	close(j.done)
}

// run is the job goroutine: admission, exploration, report.
func (s *Server) run(job *Job) {
	defer s.wg.Done()

	// Admission: wait for a running slot; cancellation while queued is
	// terminal (the queue does not outlive a DELETE or a drain).
	select {
	case s.sem <- struct{}{}:
	case <-job.ctx.Done():
		job.finish(terminalState(context.Cause(job.ctx)), causeMsg(job.ctx), nil)
		return
	}
	defer func() { <-s.sem }()
	job.setState(StateRunning)
	s.reg.Counter("service.jobs.started").Inc()

	cfg, sel, err := dse.FromSpec(job.Spec)
	if err != nil {
		job.finish(StateFailed, err.Error(), nil)
		return
	}
	cfg.Obs = job.reg
	cfg.Inject = s.opts.Inject
	cfg.Annotator = s.annotator(&job.Spec)
	cfg.Schedules = s.schedules
	cfg.EventSink = job.sink
	if path := s.checkpointPath(job.Spec); path != "" {
		ck, ckErr := dse.OpenCheckpoint(path, cfg)
		if ckErr != nil {
			// Mismatched or corrupt files yield a fresh checkpoint; the
			// job proceeds cold and overwrites the file. The checkpoint
			// keeps the warning, and the exploration streams it.
			s.reg.Counter("service.checkpoint.open_errors").Inc()
			job.reg.Counter("durability.cold_restarts").Inc()
		}
		cfg.Checkpoint = ck
	}

	runCtx := job.ctx
	if job.Spec.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(job.ctx, job.Spec.Timeout.Std())
		defer cancel()
	}

	// Once it evaluates, the exploration ends with a durable checkpoint
	// flush, cut short or not, so a drained job's finished prefix is on
	// disk, dir-fsynced, before its "done" event.
	study := core.NewStudyWithConfig(cfg)
	runErr := study.ExploreContext(runCtx)
	s.reg.Gauge("service.sched_cache.entries").Set(float64(s.schedules.Len()))

	report := buildReport(study, sel)
	if runErr == nil {
		if sel != (dse.SelectionSpec{}) {
			if err := study.Reselect(sel); err != nil {
				job.finish(StateFailed, err.Error(), report)
				return
			}
			report = buildReport(study, sel)
		}
		s.reg.Counter("service.jobs.done").Inc()
		job.finish(StateDone, "", report)
		return
	}
	st := terminalState(context.Cause(job.ctx))
	if st == StateFailed && errors.Is(runErr, context.DeadlineExceeded) {
		runErr = fmt.Errorf("job timeout %v exceeded: %w", time.Duration(job.Spec.Timeout), runErr)
	}
	s.reg.Counter("service.jobs." + string(st)).Inc()
	job.finish(st, runErr.Error(), report)
}

// terminalState maps a cancellation cause to the job's final state.
func terminalState(cause error) State {
	switch {
	case errors.Is(cause, ErrCancelled):
		return StateCancelled
	case errors.Is(cause, ErrDraining):
		return StateInterrupted
	default:
		return StateFailed
	}
}

func causeMsg(ctx context.Context) string {
	if cause := context.Cause(ctx); cause != nil {
		return cause.Error()
	}
	return ""
}

// buildReport encodes the study's (possibly partial) result; nil when
// the study holds no usable result at all.
func buildReport(study *core.Study, sel dse.SelectionSpec) []byte {
	jr, err := study.JSONResult(sel)
	if err != nil {
		return nil
	}
	b, err := jr.Encode()
	if err != nil {
		return nil
	}
	return b
}

// hub keeps one job's event history and lets any number of HTTP streams
// follow it. Delivery is lossless: publish appends to the history and
// wakes the waiting streams, and each stream reads the history through
// its own cursor (since), so a stream that falls behind catches up
// instead of losing events, and no worker ever waits on a stream. A
// stream ends once it has read the last event of a closed hub.
type hub struct {
	mu      sync.Mutex
	history []dse.Event
	closed  bool
	// wake is closed, and cleared, by the next publish or close; since
	// makes it when a stream must wait.
	wake chan struct{}
}

func (h *hub) publish(ev dse.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, ev)
	h.signal()
}

// signal wakes every stream waiting on the hub. h.mu is held.
func (h *hub) signal() {
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

func (h *hub) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.history)
}

// since returns the events past cursor and whether they end the stream
// (the hub is closed). Otherwise wake closes when there is more to read.
// The returned slice is never written again: publish only appends.
func (h *hub) since(cursor int) (evs []dse.Event, end bool, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	evs = h.history[cursor:len(h.history):len(h.history)]
	if h.closed {
		return evs, true, nil
	}
	if h.wake == nil {
		h.wake = make(chan struct{})
	}
	return evs, false, h.wake
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.signal()
}
