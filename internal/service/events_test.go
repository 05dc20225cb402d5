package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
)

// history returns a finished job's full event stream.
func history(j *Job) []dse.Event {
	evs, _, _ := j.hub.since(0)
	return evs
}

// TestDegradedEventsReachEveryJob runs two jobs one after the other on
// one server, both on the 12-candidate small spec under a 1ns ATPG
// budget. The first job's ATPG runs degrade all 11 annotations; the
// second job reads them from the shared annotator's cache. Each job's
// own stream must report all 11, before its "done".
func TestDegradedEventsReachEveryJob(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(Options{Obs: reg})
	spec := smallSpec()
	spec.ATPGDeadline = jobspec.Duration(time.Nanosecond)
	for i := 1; i <= 2; i++ {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st != StateDone {
			t.Fatalf("job %d ended %s: %s", i, st, job.Status().Error)
		}
		events := history(job)
		degraded := 0
		for _, ev := range events {
			if ev.Kind == dse.EventDegraded {
				degraded++
			}
		}
		if degraded != 11 {
			t.Errorf("job %d streamed %d degraded events, want 11", i, degraded)
		}
		if last := events[len(events)-1]; last.Kind != dse.EventDone {
			t.Errorf("job %d stream ends with %s, want done", i, last.Kind)
		}
	}
	if got := reg.Counter("testcost.degraded").Value(); got != 11 {
		t.Fatalf("testcost.degraded = %d, want 11 (one ATPG run per annotation)", got)
	}
}

// TestTornArtifactWarnsOnJobStream tears the tail off a job checkpoint
// and off the warm annotation cache, then resubmits the spec. The job
// that loads the torn file must stream exactly one warning, ahead of its
// first restored or candidate event.
func TestTornArtifactWarnsOnJobStream(t *testing.T) {
	spec := smallSpec()
	runDone := func(t *testing.T, srv *Server) *Job {
		t.Helper()
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st != StateDone {
			t.Fatalf("job ended %s: %s", st, job.Status().Error)
		}
		return job
	}
	tear := func(t *testing.T, path string) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-7); err != nil {
			t.Fatal(err)
		}
	}
	requireOneWarningFirst := func(t *testing.T, job *Job, want string) {
		t.Helper()
		warnings, first := 0, -1
		for i, ev := range history(job) {
			switch ev.Kind {
			case dse.EventWarning:
				warnings++
				if !strings.Contains(ev.Msg, want) {
					t.Errorf("warning %q does not say %q", ev.Msg, want)
				}
				if first >= 0 {
					t.Errorf("warning at event %d follows the first restored/candidate event %d", i, first)
				}
			case dse.EventRestored, dse.EventCandidate:
				if first < 0 {
					first = i
				}
			}
		}
		if warnings != 1 {
			t.Fatalf("job streamed %d warnings, want 1", warnings)
		}
	}

	t.Run("checkpoint", func(t *testing.T) {
		srv := NewServer(Options{CheckpointDir: t.TempDir()})
		first := runDone(t, srv)
		tear(t, srv.checkpointPath(first.Spec))
		requireOneWarningFirst(t, runDone(t, srv), "was torn")
	})

	t.Run("cache", func(t *testing.T) {
		cache := filepath.Join(t.TempDir(), "anno.cache")
		srv1 := NewServer(Options{CachePath: cache})
		runDone(t, srv1)
		if err := srv1.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		tear(t, cache)
		requireOneWarningFirst(t, runDone(t, NewServer(Options{CachePath: cache})), "annotation cache was torn")
	})
}

// follow reads h the way a stream handler does, from cursor 0 until the
// end of the stream, and returns what it read.
func follow(t *testing.T, h *hub) []dse.Event {
	t.Helper()
	var got []dse.Event
	for {
		evs, end, wake := h.since(len(got))
		got = append(got, evs...)
		if end {
			return got
		}
		select {
		case <-wake:
		case <-time.After(time.Minute):
			t.Fatalf("stream stalled after %d events", len(got))
		}
	}
}

// TestHubDeliversEveryEvent: a stream that joins before the run and
// reads nothing until 1,000 events are published gets every one of them,
// in order, and then the end of the stream. (A hub that buffered 256
// events per stream and dropped the rest delivered 256.)
func TestHubDeliversEveryEvent(t *testing.T) {
	h := new(hub)
	if _, end, _ := h.since(0); end {
		t.Fatal("an open hub's stream ended")
	}
	const n = 1000
	for i := 1; i <= n; i++ {
		h.publish(dse.Event{Kind: dse.EventCandidate, N: i})
	}
	h.close()
	h.publish(dse.Event{Kind: dse.EventCandidate, N: n + 1}) // after close: dropped
	got := follow(t, h)
	if len(got) != n {
		t.Fatalf("stream delivered %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.N != i+1 {
			t.Fatalf("event %d carries N %d: out of order", i, ev.N)
		}
	}
}

// TestEventStreamKeepsUpWithSlowReader streams a job's events over HTTP
// to a reader that sleeps on every line while a publisher emits 400
// events and then closes the hub, as a finishing job does. The reader
// must get all of them, in order, and the stream must then end.
func TestEventStreamKeepsUpWithSlowReader(t *testing.T) {
	srv := NewServer(Options{})
	job := newJob("job-slow", smallSpec())
	srv.jobs[job.ID] = job
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const n = 400
	go func() {
		for i := 1; i <= n; i++ {
			job.hub.publish(dse.Event{Kind: dse.EventCandidate, N: i})
		}
		job.hub.close()
	}()
	sc := bufio.NewScanner(resp.Body)
	got := 0
	for sc.Scan() {
		var ev dse.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		got++
		if ev.N != got {
			t.Fatalf("line %d carries N %d", got, ev.N)
		}
		time.Sleep(20 * time.Microsecond)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("stream delivered %d events, want %d", got, n)
	}
}
