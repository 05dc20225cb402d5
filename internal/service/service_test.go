package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/report"
)

// smallSpec explores 1 bus x 1 ALU x 1 CMP x 6 RF sets x 2 assigns = 12
// candidates — enough structure for fronts, fast enough for tests.
func smallSpec() jobspec.Spec {
	return jobspec.Spec{Buses: []int{1}, ALUs: []int{1}, CMPs: []int{1}}
}

func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
	return j.State()
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Bad submissions are rejected up front: an invalid value, and a
	// field Spec does not have (process-sharded jobs sent "shard").
	for _, bad := range []string{`{"workload":"doom"}`, `{"shard":{"shards":2}}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.State == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q", loc)
	}

	// The event stream replays history and follows the run to "done".
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type %q", ct)
	}
	var events []dse.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev dse.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Kind != dse.EventDone {
		t.Fatalf("final event %q, want done", last.Kind)
	}
	nCand := 0
	for _, ev := range events {
		if ev.Kind == dse.EventCandidate {
			nCand++
		}
	}
	if nCand != 12 {
		t.Fatalf("streamed %d candidate events, want 12", nCand)
	}

	// Fronts are live (and final here, the stream just ended).
	var front dse.FrontSnapshot
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/front", http.StatusOK, &front)
	if front.Evaluated != 12 || len(front.Front2D) == 0 || len(front.Front3D) == 0 {
		t.Fatalf("front %+v", front)
	}

	// The result endpoint serves the deterministic report.
	job, _ := srv.Job(st.ID)
	if got := waitTerminal(t, job); got != StateDone {
		t.Fatalf("state %s, want done", got)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if !bytes.Equal(rep, job.Report()) {
		t.Fatal("result endpoint bytes differ from the job's report")
	}
	var jr struct {
		Candidates []json.RawMessage `json:"candidates"`
		Selected   int               `json:"selected"`
	}
	if err := json.Unmarshal(rep, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Candidates) != 12 || jr.Selected < 0 {
		t.Fatalf("report: %d candidates, selected %d", len(jr.Candidates), jr.Selected)
	}

	// Listing, status, health, metrics, 404.
	var list []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != st.ID || list[0].State != StateDone {
		t.Fatalf("list %+v", list)
	}
	var h healthBody
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Draining || h.Jobs != 1 {
		t.Fatalf("health %+v", h)
	}
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &snap)
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.Bytes(), err
}

func TestEventStreamSSE(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	job, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type %q", ct)
	}
	if !strings.Contains(string(body), "event: candidate\ndata: {") ||
		!strings.Contains(string(body), "event: done\n") {
		t.Fatalf("not SSE-framed:\n%.300s", body)
	}
}

// TestConcurrentJobsShareWarmAnnotations is the shared-annotator race
// test: two explorations over the same space run concurrently against
// one process-wide annotator, and the second wave is served entirely
// from the first wave's annotations (hit counters rise, miss counter
// stays put). Run under -race this also proves the sharing is sound.
// TestSearchJobThroughDaemon: a guided-search spec submitted to the
// daemon runs the GA screen, evaluates only the survivors, and serves
// consistent progress and front snapshots for them.
func TestSearchJobThroughDaemon(t *testing.T) {
	srv := NewServer(Options{})
	spec := jobspec.Spec{
		Parallelism: 2,
		Search:      &jobspec.SearchSpec{Population: 8, Generations: 2, Eta: 4, Seed: 5},
	}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("search job ended %s: %s", st, job.Status().Error)
	}
	st := job.Status()
	if st.Total == 0 || st.Total > 8*2 {
		t.Fatalf("total %d, want survivors in (0, %d]", st.Total, 8*2)
	}
	if st.Evaluated != st.Total {
		t.Fatalf("evaluated %d != total %d on a done job", st.Evaluated, st.Total)
	}
	snap := job.Front()
	if snap.Evaluated != st.Evaluated || len(snap.Front3D) == 0 {
		t.Fatalf("front snapshot %d evaluated / %d members", snap.Evaluated, len(snap.Front3D))
	}
	if job.Report() == nil {
		t.Fatal("search job produced no report")
	}
}

// TestCustomSelectionJobsMatchDirectPath submits jobs with non-default
// norms and weights over HTTP. Each /result must equal the report of
// the direct path, an exploration reselected under the spec's selection
// (dse.FromSpec, ExploreContext, Reselect, JSONResult), and each event
// stream must end with "done". One spec must select another candidate
// than the default selection does, or a daemon that skipped the
// reselection would pass.
func TestCustomSelectionJobsMatchDirectPath(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1, 2}, CMPs: []int{1}}
	direct := func(spec jobspec.Spec) *report.JSONResult {
		t.Helper()
		cfg, sel, err := dse.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		study := core.NewStudyWithConfig(cfg)
		if err := study.ExploreContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := study.Reselect(sel); err != nil {
			t.Fatal(err)
		}
		jr, err := study.JSONResult(sel)
		if err != nil {
			t.Fatal(err)
		}
		return jr
	}
	defaultPick := direct(base).Selected
	moved := false
	for _, sel := range []jobspec.Spec{
		{Norm: "manhattan", WA: 2},
		{Norm: "chebyshev"},
		{Norm: "chebyshev", WA: 1, WT: 3, WC: 0.5},
	} {
		spec := base
		spec.Norm, spec.WA, spec.WT, spec.WC = sel.Norm, sel.WA, sel.WT, sel.WC
		id, got, err := httpJob(ts.URL, spec)
		if err != nil {
			t.Fatal(err)
		}
		jr := direct(spec)
		want, err := jr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s (%s wa %g wt %g wc %g): /result differs from the direct path:\n%s\nvs\n%s",
				id, spec.Norm, spec.WA, spec.WT, spec.WC, got, want)
		}
		moved = moved || jr.Selected != defaultPick
	}
	if !moved {
		t.Errorf("every custom selection picks candidate %d, the default's", defaultPick)
	}
}

// TestFailedJobReportsItsSelection fails a custom-selection job with one
// injected candidate error. Its report must still pick what it says it
// picks: the selected candidate is the argmin of the report's own
// selection norm and weights over the report's own 3-D front. (The
// failed exploration used to keep its default equal-weight Euclid pick
// under the job's manhattan label.)
func TestFailedJobReportsItsSelection(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeError, Every: 5, Limit: 1})
	srv := NewServer(Options{Inject: inj})
	job, err := srv.Submit(jobspec.Spec{
		Buses: []int{1, 2}, ALUs: []int{1, 2}, CMPs: []int{1}, Parallelism: 1,
		Norm: "manhattan", WA: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateFailed {
		t.Fatalf("job ended %s, want failed", st)
	}
	var jr report.JSONResult
	if err := json.Unmarshal(job.Report(), &jr); err != nil {
		t.Fatalf("report: %v", err)
	}
	sel := jr.Selection
	if sel == nil || sel.Norm != "manhattan" || sel.WA != 2 || sel.WT != 0 || sel.WC != 0 {
		t.Fatalf("selection block %+v, want the job's manhattan with wa 2", sel)
	}
	var pts []pareto.Point
	for _, i := range jr.Front3D {
		c := &jr.Candidates[i]
		pts = append(pts, pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime, float64(c.TestCost)}})
	}
	best, err := pareto.Select(pts, []float64{sel.WA, sel.WT, sel.WC}, pareto.Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if want := pts[best].ID; jr.Selected != want || sel.Index != want {
		t.Fatalf("report selects %d (selection block %d); its manhattan wa 2 argmin over front3d %v is %d",
			jr.Selected, sel.Index, jr.Front3D, want)
	}
}

func TestConcurrentJobsShareWarmAnnotations(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(Options{MaxConcurrent: 2, Obs: reg})

	warm, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, warm); st != StateDone {
		t.Fatalf("warm-up job ended %s", st)
	}
	misses0 := reg.Counter("testcost.cache.miss").Value()
	hits0 := reg.Counter("testcost.cache.hit").Value()
	if misses0 == 0 {
		t.Fatal("warm-up job annotated nothing")
	}

	a, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := waitTerminal(t, a), waitTerminal(t, b); sa != StateDone || sb != StateDone {
		t.Fatalf("concurrent jobs ended %s/%s", sa, sb)
	}
	if got, want := a.Report(), warm.Report(); !bytes.Equal(got, want) {
		t.Fatal("concurrent job's report differs from the warm-up run")
	}
	if hits := reg.Counter("testcost.cache.hit").Value(); hits <= hits0 {
		t.Fatalf("cache hits did not rise: %d -> %d", hits0, hits)
	}
	if misses := reg.Counter("testcost.cache.miss").Value(); misses != misses0 {
		t.Fatalf("concurrent jobs re-annotated: misses %d -> %d", misses0, misses)
	}
	if n := len(srv.anns); n != 1 {
		t.Fatalf("%d annotators in the pool, want 1 shared", n)
	}
}

func TestAdmissionQueueAndOverflow(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 20 * time.Millisecond})
	srv := NewServer(Options{MaxConcurrent: 1, QueueDepth: 1, Inject: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := smallSpec()
	spec.Parallelism = 1
	running, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}

	// Cancelling the queued job frees its slot without running it.
	queued.Cancel()
	if st := waitTerminal(t, queued); st != StateCancelled {
		t.Fatalf("queued job ended %s, want cancelled", st)
	}
	if st := waitTerminal(t, running); st != StateDone {
		t.Fatalf("running job ended %s", st)
	}

	// A result poll mid-run answers 202; after completion 200 (checked
	// in the lifecycle test). And 409 for a cancelled job with no report.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled job result: status %d, want 409", resp.StatusCode)
	}
}

// TestMetricsAggregateJobRegistries checks /v1/metrics folds the per-job
// pareto.stream.* metrics into the server snapshot (they live on each
// job's own registry).
// TestSubmitLeavesCallerSpecAlone: Submit normalizes the job's own copy
// of the space lists. Sorting the caller's arrays in place raced with a
// job already running on a spec submitted earlier from the same lists.
func TestSubmitLeavesCallerSpecAlone(t *testing.T) {
	srv := NewServer(Options{MaxConcurrent: 1})
	srv.sem <- struct{}{} // hold the only slot, so the job stays queued
	spec := jobspec.Spec{Buses: []int{2, 1}, ALUs: []int{1}, CMPs: []int{1}}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Buses, []int{2, 1}) {
		t.Errorf("Submit reordered the caller's buses: %v", spec.Buses)
	}
	if !reflect.DeepEqual(job.Spec.Buses, []int{1, 2}) {
		t.Errorf("job buses %v, want normalized [1 2]", job.Spec.Buses)
	}
	job.Cancel()
	if st := waitTerminal(t, job); st != StateCancelled {
		t.Fatalf("cancelled queued job ended %s", st)
	}
	<-srv.sem
}

func TestMetricsAggregateJobRegistries(t *testing.T) {
	srv := NewServer(Options{})
	job, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("job ended %s: %s", st, job.Status().Error)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", 200, &snap)
	want := job.reg.Counter("pareto.stream.inserts").Value()
	if want == 0 {
		t.Fatal("the job's front tracker counted no inserts")
	}
	if got := snap.Counters["pareto.stream.inserts"]; got != want {
		t.Fatalf("aggregated pareto.stream.inserts = %d, want the job's %d", got, want)
	}
	if _, ok := snap.Gauges["pareto.stream.front_size"]; !ok {
		t.Fatal("pareto.stream.front_size gauge missing from the aggregated metrics")
	}
}
