package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/testcost"
)

// TestJobMetricsShowSharedSchedules runs one spec twice on one server
// with no checkpoint directory. The first job schedules every structure;
// the second job's own metrics (GET /v1/jobs/{id}/metrics) must show one
// shared hit per distinct structure and no schedule run. /v1/metrics sums
// the jobs' shared counters and reports the cache's entries, and the
// per-job route answers 404 for an unknown id.
func TestJobMetricsShowSharedSchedules(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// 2 bus counts x 6 register-file sets; the two assignments share each.
	const structures = 12
	spec := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}}
	var snaps [2]obs.Snapshot
	var reports [2][]byte
	for i := range snaps {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st != StateDone {
			t.Fatalf("job %d ended %s: %s", i+1, st, job.Status().Error)
		}
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/metrics", http.StatusOK, &snaps[i])
		reports[i] = job.Report()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("the second job's report differs from the first's")
	}
	first, second := snaps[0], snaps[1]
	if miss, runs := first.Counters["dse.sched.shared.miss"], first.Counters["sched.runs"]; miss != structures || runs != structures {
		t.Errorf("first job: %d shared misses, %d sched.runs; want %d each", miss, runs, structures)
	}
	if hit := second.Counters["dse.sched.shared.hit"]; hit != structures {
		t.Errorf("second job: %d shared hits, want %d", hit, structures)
	}
	for _, name := range []string{"sched.runs", "dse.sched.shared.miss"} {
		if v, ok := second.Counters[name]; ok {
			t.Errorf("second job counts %s = %d, want none", name, v)
		}
	}
	if len(second.Spans) == 0 || second.Counters["dse.candidates.total"] != 2*structures {
		t.Errorf("second job's snapshot lacks its span tree or candidate counters: %+v", second)
	}

	var all obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &all)
	if hit, miss := all.Counters["dse.sched.shared.hit"], all.Counters["dse.sched.shared.miss"]; hit != structures || miss != structures {
		t.Errorf("/v1/metrics: %d shared hits, %d misses; want %d each", hit, miss, structures)
	}
	if n := all.Gauges["service.sched_cache.entries"]; n != structures {
		t.Errorf("service.sched_cache.entries = %v, want %d", n, structures)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics of an unknown job: status %d, want 404", resp.StatusCode)
	}
}

// httpJob submits spec over HTTP, follows its event stream to the end
// and returns the job's id and its /result.
func httpJob(base string, spec jobspec.Spec) (string, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", nil, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return st.ID, nil, err
	}
	var last dse.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = dse.Event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			resp.Body.Close()
			return st.ID, nil, err
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil || last.Kind != dse.EventDone {
		return st.ID, nil, fmt.Errorf("%s: stream ended on %q (%v), want done", st.ID, last.Kind, err)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return st.ID, nil, err
	}
	rep, err := readAll(resp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: result status %d", st.ID, resp.StatusCode)
	}
	return st.ID, rep, err
}

// mixSpecs is one client's share of a small daemon_mix: every workload,
// over overlapping bus, ALU and CMP subsets.
func mixSpecs(client, n int) []jobspec.Spec {
	buses := [][]int{{1}, {2}, {1, 2}, {2, 3}}
	alus := [][]int{{1}, {2}, {1, 2}}
	cmps := [][]int{{1}, {2}}
	specs := make([]jobspec.Spec, n)
	for i := range specs {
		k := client*n + i
		specs[i] = jobspec.Spec{
			Workload: jobspec.Workloads[k%len(jobspec.Workloads)],
			Buses:    buses[k%len(buses)],
			ALUs:     alus[k/2%len(alus)],
			CMPs:     cmps[k/3%len(cmps)],
		}
	}
	return specs
}

// TestConcurrentJobMixSharesSchedules is the daemon_mix shape, made
// smaller: two clients each run 20 jobs over HTTP on one server, over
// all five workloads and overlapping structures. Before them, a running
// job is cancelled with DELETE, and one client resubmits its spec. Every
// report must equal that of a fresh exploration without a schedule
// cache, and the server must have served lookups from its cache. Under
// -race this checks that the jobs share the cache soundly.
func TestConcurrentJobMixSharesSchedules(t *testing.T) {
	srv := NewServer(Options{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The default crypt sweep, cancelled while it runs on a cold server.
	big := jobspec.Spec{}
	job, err := srv.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	for job.State() == StateQueued {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, job); st != StateCancelled {
		t.Fatalf("the cancelled job ended %s", st)
	}

	const perClient = 20
	type outcome struct {
		id     string
		spec   jobspec.Spec
		report []byte
	}
	var (
		mu  sync.Mutex
		out []outcome
		wg  sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		specs := mixSpecs(c, perClient)
		if c == 0 {
			specs[perClient/2] = big
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				id, rep, err := httpJob(ts.URL, spec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				out = append(out, outcome{id, spec, rep})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ann := testcost.NewAnnotator(16, 7)
	want := map[string][]byte{}
	for _, o := range out {
		h := o.spec.Hash()
		if _, ok := want[h]; !ok {
			want[h] = uncachedReport(t, o.spec, ann)
		}
		if !bytes.Equal(o.report, want[h]) {
			t.Errorf("%s (%s %v/%v/%v): /result differs from an exploration without a schedule cache",
				o.id, o.spec.Workload, o.spec.Buses, o.spec.ALUs, o.spec.CMPs)
		}
	}
	var all obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &all)
	if all.Counters["dse.sched.shared.hit"] == 0 {
		t.Error("the server served no schedule from its cache")
	}
	t.Logf("%d jobs, %d distinct specs; shared hits %d, misses %d, %v cached outcomes",
		len(out), len(want), all.Counters["dse.sched.shared.hit"], all.Counters["dse.sched.shared.miss"],
		all.Gauges["service.sched_cache.entries"])
}

// uncachedReport explores spec as a job does, on ann and without a
// schedule cache, and returns the encoded report.
func uncachedReport(t *testing.T, spec jobspec.Spec, ann *testcost.Annotator) []byte {
	t.Helper()
	cfg, sel, err := dse.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Annotator = ann
	study := core.NewStudyWithConfig(cfg)
	if err := study.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := buildReport(study, sel)
	if rep == nil {
		t.Fatal("no report")
	}
	return rep
}
