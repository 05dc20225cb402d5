// Package service implements the ttadsed exploration daemon: a design
// and test space exploration submitted as a job over HTTP/JSON,
// observed live through a typed event stream, and harvested through
// partial-front and final-report endpoints.
//
// The API (all under /v1):
//
//	POST   /v1/jobs              submit a jobspec.Spec; 202 + job status
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         one job's status
//	DELETE /v1/jobs/{id}         cancel the job
//	GET    /v1/jobs/{id}/events  stream typed progress events (NDJSON by
//	                             default, SSE with Accept: text/event-stream);
//	                             the full history replays first, then live,
//	                             and no event is ever dropped
//	GET    /v1/jobs/{id}/front   the partial Pareto fronts so far
//	GET    /v1/jobs/{id}/result  the final report (202 while running)
//	GET    /v1/jobs/{id}/metrics the job's own metrics snapshot
//	GET    /v1/healthz           liveness + drain state
//	GET    /v1/metrics           the server metrics snapshot
//
// One process-wide testcost.Annotator pool is shared across jobs (keyed
// by width/seed/ATPG budget), so concurrent explorations of overlapping
// component spaces hit each other's warm annotations instead of
// re-running gate-level ATPG. One dse.ScheduleCache is shared the same
// way, so a structure an earlier job scheduled for the same kernel is
// not scheduled again. Admission is a bounded queue: at most
// MaxConcurrent jobs explore at once, QueueDepth more may wait, and
// overflow is rejected with 429. Drain stops intake (503), interrupts
// running jobs — their checkpoints persist the finished prefix — and
// flushes the warm annotation cache, so a restarted daemon resumes
// byte-identically.
package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/testcost"
)

// Sentinel cancellation causes: they tell an interrupted exploration
// apart from a user-cancelled one when the job records its final state.
var (
	// ErrCancelled is the cancellation cause of DELETE /v1/jobs/{id}.
	ErrCancelled = errors.New("service: job cancelled")
	// ErrDraining is the cancellation cause of Server.Drain; a job cut
	// short by it ends "interrupted" rather than "cancelled".
	ErrDraining = errors.New("service: server draining")
)

// Options configures a Server. The zero value is usable: two concurrent
// jobs, a queue of eight, no warm cache, no checkpoints.
type Options struct {
	// MaxConcurrent bounds the explorations running at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting for a slot beyond the running
	// ones (default 8). A submit past running+queued is rejected 429.
	QueueDepth int
	// CachePath, when set, warm-starts every compatible annotator from
	// this file at creation and rewrites it on Drain, so annotation work
	// survives daemon restarts.
	CachePath string
	// CheckpointDir, when set, gives each job a checkpoint file named by
	// the hash of its normalized spec. A resubmitted spec restores the
	// finished prefix — the drain/restart/resume path.
	CheckpointDir string
	// Obs receives server-wide metrics; per-job registries are separate.
	// Defaults to a fresh registry. The annotator pool reports its cache
	// counters (testcost.cache.*) here. Events go to each job's own
	// stream, never through a registry.
	Obs *obs.Registry
	// Inject, when non-nil, arms chaos/test injection inside every job's
	// exploration (dse.Config.Inject) and the annotator pool.
	Inject *faultinject.Injector
}

// Server is the exploration daemon. Construct with NewServer, expose
// Handler over HTTP, stop with Drain.
type Server struct {
	opts Options
	reg  *obs.Registry
	mux  *http.ServeMux
	sem  chan struct{} // running-slot tokens
	inj  *faultinject.Injector

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	nextID   int
	draining bool
	anns     map[string]*testcost.Annotator
	cacheAnn *testcost.Annotator // the annotator Drain persists to CachePath
	// schedules is every job's dse.Config.Schedules.
	schedules *dse.ScheduleCache
	wg        sync.WaitGroup
}

// NewServer builds a daemon over opts.
func NewServer(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	inj := opts.Inject
	if inj == nil {
		// A disarmed injector, so the shared annotators carry a non-nil
		// Inject from birth — per-job fillDefaults then never writes the
		// field, which would race with another job's reads.
		inj = faultinject.New(0)
	}
	s := &Server{
		opts:      opts,
		reg:       opts.Obs,
		sem:       make(chan struct{}, opts.MaxConcurrent),
		inj:       inj,
		jobs:      make(map[string]*Job),
		anns:      make(map[string]*testcost.Annotator),
		schedules: new(dse.ScheduleCache),
	}
	s.routes()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// annotator returns the process-wide annotator for the spec's
// width/seed/budget key, creating (and warm-starting) it on first use.
// Everything per-job code would default onto the annotator (Obs,
// Inject) is fixed here at creation, so concurrent explorations only
// ever read the shared fields. What the warm start recovered or ignored
// stays on the annotator (LoadWarnings), and every job that uses it
// reports that on its own stream.
func (s *Server) annotator(spec *jobspec.Spec) *testcost.Annotator {
	key := spec.AnnotatorKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.anns[key]; ok {
		return a
	}
	w := spec.Width
	if w == 0 {
		w = 16
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 7
	}
	a := testcost.NewAnnotator(w, seed)
	a.Obs = s.reg
	a.Inject = s.inj
	a.ATPGDeadline = spec.ATPGDeadline.Std()
	if s.opts.CachePath != "" {
		if err := a.LoadFile(s.opts.CachePath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.reg.Counter("service.cache.load_errors").Inc()
		}
	}
	s.anns[key] = a
	// Drain persists one annotator back to CachePath; prefer the first
	// unbudgeted one (its annotations are all exact), else the first.
	if s.cacheAnn == nil || (s.cacheAnn.ATPGDeadline != 0 && a.ATPGDeadline == 0) {
		s.cacheAnn = a
	}
	return a
}

// checkpointPath names a job's checkpoint file by its result identity
// (jobspec.Spec.Hash), so a resubmitted spec finds the interrupted
// run's finished prefix at any parallelism.
func (s *Server) checkpointPath(spec jobspec.Spec) string {
	if s.opts.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.opts.CheckpointDir, "job-"+spec.Hash()+".ckpt")
}

// Submit validates and admits a job. It returns ErrDraining once Drain
// has started and ErrBusy when running+queued is at capacity.
func (s *Server) Submit(spec jobspec.Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Normalize sorts in place; give the job its own lists, or a caller
	// that submits one spec twice rewrites them under the running job.
	spec.Buses = append([]int(nil), spec.Buses...)
	spec.ALUs = append([]int(nil), spec.ALUs...)
	spec.CMPs = append([]int(nil), spec.CMPs...)
	spec.Normalize()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	active := 0
	for _, j := range s.jobs {
		switch j.State() {
		case StateQueued, StateRunning:
			active++
		}
	}
	if active >= s.opts.MaxConcurrent+s.opts.QueueDepth {
		s.mu.Unlock()
		s.reg.Counter("service.jobs.rejected").Inc()
		return nil, ErrBusy
	}
	s.nextID++
	job := newJob(fmt.Sprintf("job-%d", s.nextID), spec)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.wg.Add(1)
	s.mu.Unlock()
	s.reg.Counter("service.jobs.submitted").Inc()
	go s.run(job)
	return job, nil
}

// ErrBusy rejects a submit when the running set and the queue are full.
var ErrBusy = errors.New("service: job queue full")

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Drain stops intake (submits fail with ErrDraining), interrupts every
// queued and running job, waits for them to settle (bounded by ctx) and
// persists the warm annotation cache to Options.CachePath. Interrupted
// jobs end in state "interrupted"; their checkpoint files keep the
// finished prefix, so resubmitting the same spec to a new daemon
// resumes instead of recomputing. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	cacheAnn := s.cacheAnn
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel(ErrDraining)
	}
	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	var err error
	select {
	case <-settled:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain cut short: %w", context.Cause(ctx))
	}
	if s.opts.CachePath != "" && cacheAnn != nil {
		if serr := cacheAnn.SaveFile(s.opts.CachePath); serr != nil {
			s.reg.Counter("service.cache.save_errors").Inc()
			if err == nil {
				err = fmt.Errorf("service: saving warm cache: %w", serr)
			}
		}
	}
	return err
}
