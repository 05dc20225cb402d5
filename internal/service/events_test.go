package service

import (
	"context"
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
	replay, _, cancel := j.hub.subscribe()
	cancel()
	return replay
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
