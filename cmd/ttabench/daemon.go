package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/jobspec"
	"repro/internal/service"
	"repro/internal/testcost"
)

// daemonClients is the closed loop's client count: no more than the
// benchmark machine's nproc (2).
const daemonClients = 2

// repeatShare is the share of jobs that resubmit one of their client's
// earlier specs, so the daemon restores them from their checkpoint.
const repeatShare = 0.3

// rederiveEvery: every so many jobs of a client, the check re-derives the
// report through the direct (in-process) path.
const rederiveEvery = 10

// pinnedJobs is how many leading jobs per client the seeded digest pin
// covers; a shorter run skips that pin.
const pinnedJobs = 32

// The daemon's job space: kernel × non-empty subsets of buses {1..4},
// ALUs {1..3} and comparators {1..2} × selection norm × weights in {1,2}.
var (
	busSets    = subsets(4)
	aluSets    = subsets(3)
	cmpSets    = subsets(2)
	specSpace  = len(jobspec.Workloads) * len(busSets) * len(aluSets) * len(cmpSets) * len(jobspec.Norms) * 8
	weightVals = [2]float64{1, 2}
)

// subsets lists the non-empty subsets of {1..n}.
func subsets(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for v := 1; v <= n; v++ {
			if mask&(1<<(v-1)) != 0 {
				s = append(s, v)
			}
		}
		out = append(out, s)
	}
	return out
}

// specAt decodes index i of the job space. The spec owns its slices
// (jobspec.Spec.Normalize sorts in place).
func specAt(i int) jobspec.Spec {
	pick := func(n int) int {
		v := i % n
		i /= n
		return v
	}
	s := jobspec.Spec{
		Workload: jobspec.Workloads[pick(len(jobspec.Workloads))],
		Buses:    slices.Clone(busSets[pick(len(busSets))]),
		ALUs:     slices.Clone(aluSets[pick(len(aluSets))]),
		CMPs:     slices.Clone(cmpSets[pick(len(cmpSets))]),
		Norm:     jobspec.Norms[pick(len(jobspec.Norms))],
	}
	w := pick(8)
	s.WA, s.WT, s.WC = weightVals[w&1], weightVals[w>>1&1], weightVals[w>>2&1]
	return s
}

// daemonJob is one submitted job, kept for the checks after the loop.
type daemonJob struct {
	spec     jobspec.Spec
	hash     string
	id       string
	restored bool
}

// daemonClient draws one client's job sequence. It is touched only by
// its client's goroutine, so the sequence is a function of the seed
// alone, whatever the timing.
type daemonClient struct {
	rng     *rand.Rand
	fresh   []int // this client's share of the shuffled job space
	nFresh  int
	history []jobspec.Spec // fresh specs submitted so far
	jobs    []daemonJob
}

// next draws the client's next spec: with probability repeatShare an
// earlier spec of this client (redrawn fresh if it equals either of the
// two previous jobs), otherwise a spec no client has submitted.
func (cl *daemonClient) next() jobspec.Spec {
	if len(cl.history) > 0 && cl.rng.Float64() < repeatShare {
		s := cl.history[cl.rng.Intn(len(cl.history))]
		h := s.Hash()
		n := len(cl.jobs)
		if (n < 1 || cl.jobs[n-1].hash != h) && (n < 2 || cl.jobs[n-2].hash != h) {
			return s
		}
	}
	s := specAt(cl.fresh[cl.nFresh%len(cl.fresh)])
	cl.nFresh++
	cl.history = append(cl.history, s)
	return s
}

// daemonRoundJobs is how many jobs one round submits before the
// benchmark restarts the daemon. The server keeps every job's events and
// report in memory, so bounded rounds keep its footprint — and
// rss_mb — independent of throughput.
const daemonRoundJobs = 100

// daemon is the daemon_mix workload: rounds of jobs against an
// in-process ttadsed server (default admission limits) behind a loopback
// listener. Each round starts a fresh server on a fresh checkpoint
// directory with the warm annotation cache file, as a restarted
// `ttadsed -cache` would, so timed jobs never run ATPG; a direct-path
// annotator warmed the same way re-derives sampled jobs for the check.
type daemon struct {
	o         *options
	dir       string
	cachePath string
	direct    *testcost.Annotator
	directSum string // report of the paper's default job

	round   int
	srv     *service.Server
	hs      *httptest.Server
	api     *daemonAPI
	ckDir   string
	clients []*daemonClient

	jobs, restored, rejected atomic.Int64
}

func setupDaemon(ctx context.Context, o *options, dir string) (*instance, error) {
	d := &daemon{o: o, dir: dir, cachePath: filepath.Join(dir, "warm.cache"), direct: newAnnotator(jobspec.Spec{})}
	var err error
	if d.directSum, err = reference(ctx, jobspec.Spec{}, d.direct); err != nil {
		return nil, err
	}
	if err := d.direct.SaveFile(d.cachePath); err != nil {
		return nil, err
	}
	blob, err := saveAnnotator(d.direct)
	if err != nil {
		return nil, err
	}
	var cases []replayCase
	for _, i := range d.roundClients(0)[0].fresh[:4] {
		cases = append(cases, replayCase{spec: specAt(i), blob: blob})
	}
	return &instance{
		clients:    daemonClients,
		nextSeq:    make([]int, daemonClients),
		roundOps:   daemonRoundJobs,
		beginRound: d.begin,
		endRound:   d.end,
		op:         d.op,
		verify: func(ctx context.Context, _ map[string]string) error {
			return checkPin(o.pins, "sweep/seed7", d.directSum)
		},
		cases: cases,
		extra: d.extra,
		close: d.stop,
	}, nil
}

// roundClients draws round r's job sequences from the workload seed.
func (d *daemon) roundClients(r int) []*daemonClient {
	seed := splitmix(uint64(d.o.seed)<<16 | uint64(r))
	perm := rand.New(rand.NewSource(int64(seed))).Perm(specSpace)
	clients := make([]*daemonClient, daemonClients)
	for c := range clients {
		cl := &daemonClient{rng: rand.New(rand.NewSource(int64(splitmix(seed<<8 | uint64(c)))))}
		for i := c; i < len(perm); i += daemonClients {
			cl.fresh = append(cl.fresh, perm[i])
		}
		clients[c] = cl
	}
	return clients
}

// begin starts the round's server and submits the paper's default job,
// untimed; its report must equal the direct path's.
func (d *daemon) begin(ctx context.Context) error {
	d.ckDir = filepath.Join(d.dir, fmt.Sprintf("ckpt-%d", d.round))
	d.srv = service.NewServer(service.Options{CachePath: d.cachePath, CheckpointDir: d.ckDir})
	d.hs = httptest.NewServer(d.srv.Handler())
	d.api = &daemonAPI{hc: d.hs.Client(), base: d.hs.URL}
	d.clients = d.roundClients(d.round)
	out, _, err := d.api.job(ctx, jobspec.Spec{}, spanRef{})
	if err == nil && digest(out) != d.directSum {
		err = fmt.Errorf("report sha256 %s, direct path %s", digest(out), d.directSum)
	}
	if err != nil {
		d.stop()
		return fmt.Errorf("round %d default job: %w", d.round, err)
	}
	return nil
}

func (d *daemon) op(ctx context.Context, c, _ int, sp spanRef) (string, []byte, error) {
	cl := d.clients[c]
	spec := cl.next()
	out, job, err := d.api.job(ctx, spec, sp)
	d.jobs.Add(1)
	if errors.Is(err, errRejected) {
		d.rejected.Add(1)
	}
	if job.restored {
		d.restored.Add(1)
	}
	job.spec, job.hash = spec, spec.Hash()
	cl.jobs = append(cl.jobs, job)
	return job.hash, out, err
}

// end checks the round and stops its server: every job ended done,
// every rederiveEvery-th job of a client reproduces through the direct
// path, and round 0 at a pinned seed matches its digest.
func (d *daemon) end(ctx context.Context, chk *checker) error {
	defer d.stop()
	round := d.round
	d.round++
	if err := d.api.allDone(ctx); err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	pin := sha256.New()
	pinnable := true
	for c, cl := range d.clients {
		pinnable = pinnable && len(cl.jobs) >= pinnedJobs
		for j, job := range cl.jobs {
			want, ok := chk.sum(job.hash)
			if j < pinnedJobs {
				fmt.Fprintf(pin, "%d %d %s\n", c, j, want)
			}
			// A job that never reported was counted failed already.
			if j%rederiveEvery != 0 || !ok {
				continue
			}
			got, err := reference(ctx, job.spec, d.direct)
			if err != nil {
				return fmt.Errorf("round %d client %d job %d: direct path: %w", round, c, j, err)
			}
			if got != want {
				return fmt.Errorf("round %d client %d job %d (%s): /result sha256 %s, direct path %s", round, c, j, job.id, want, got)
			}
		}
	}
	if round != 0 || !pinnable {
		return nil
	}
	return checkPin(d.o.pins, fmt.Sprintf("daemon_mix/seed%d", d.o.seed), hex.EncodeToString(pin.Sum(nil)))
}

// stop drains and closes the round's server and deletes its checkpoints.
func (d *daemon) stop() {
	if d.srv == nil {
		return
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(dctx); err != nil {
		log.Printf("daemon_mix: drain: %v", err)
	}
	d.hs.Close()
	os.RemoveAll(d.ckDir)
	d.srv = nil
}

// extra reports the service-layer spans and ratios, which exist only on
// this workload.
func (d *daemon) extra(tr *tracer) map[string]metric {
	jobs := float64(d.jobs.Load())
	return map[string]metric{
		"service.submit_ms_p50":  {percentile(tr.durationsMS("service.submit"), 50), "ms"},
		"service.wait_ms_p50":    {percentile(tr.durationsMS("service.wait"), 50), "ms"},
		"service.result_ms_p50":  {percentile(tr.durationsMS("service.result"), 50), "ms"},
		"service.restored_ratio": {float64(d.restored.Load()) / jobs, "ratio"},
		"service.reject_ratio":   {float64(d.rejected.Load()) / jobs, "ratio"},
	}
}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("job rejected: queue full")

// daemonAPI is the benchmark's HTTP client of the daemon.
type daemonAPI struct {
	hc   *http.Client
	base string
}

// job submits spec, reads the job's event stream until the server closes
// it (the job has finished), then fetches the report.
func (a *daemonAPI) job(ctx context.Context, spec jobspec.Spec, sp spanRef) ([]byte, daemonJob, error) {
	var job daemonJob
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, job, err
	}
	var st service.JobStatus
	if _, err := sp.do("service.submit", func() error {
		resp, err := a.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
		if err != nil {
			return err
		}
		return json.Unmarshal(resp, &st)
	}); err != nil {
		return nil, job, err
	}
	job.id = st.ID
	if _, err := sp.do("service.wait", func() error {
		job.restored, err = a.waitEvents(ctx, st.ID)
		return err
	}); err != nil {
		return nil, job, err
	}
	var out []byte
	_, err = sp.do("service.result", func() error {
		out, err = a.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
		return err
	})
	return out, job, err
}

// call makes one request and returns the body of a want-status answer.
func (a *daemonAPI) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errRejected
	case resp.StatusCode != want:
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// waitEvents reads the job's NDJSON event stream to its end and reports
// whether it opened with a checkpoint restore.
func (a *daemonAPI) waitEvents(ctx context.Context, id string) (restored bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	if err != nil {
		return false, fmt.Errorf("events of %s: %w", id, err)
	}
	var ev struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(first, &ev); err != nil {
		return false, fmt.Errorf("events of %s: %w", id, err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		return false, fmt.Errorf("events of %s: %w", id, err)
	}
	return ev.Kind == "restored", nil
}

// allDone checks that every job the daemon knows ended in state done.
func (a *daemonAPI) allDone(ctx context.Context) error {
	data, err := a.call(ctx, http.MethodGet, "/v1/jobs", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var jobs []service.JobStatus
	if err := json.Unmarshal(data, &jobs); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
	}
	return nil
}
