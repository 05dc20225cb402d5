package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/jobspec"
)

// TestDrainCheckpointsAndResumesByteIdentically is the graceful-drain
// contract: a SIGTERM-style Drain interrupts a running job, its
// checkpoint keeps the finished prefix and the warm annotation cache is
// flushed; a fresh daemon over the same state resumes the resubmitted
// spec — restoring instead of recomputing — and its final report is
// byte-identical to an uninterrupted run's.
func TestDrainCheckpointsAndResumesByteIdentically(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "anno.cache")
	spec := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}, Parallelism: 1}

	// The reference: one uninterrupted run, no shared state.
	ref := NewServer(Options{})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, refJob); st != StateDone {
		t.Fatalf("reference job ended %s", st)
	}
	want := refJob.Report()
	if want == nil {
		t.Fatal("reference job has no report")
	}

	// Daemon #1: evaluations slowed so the drain reliably lands mid-run.
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 40 * time.Millisecond})
	srv1 := NewServer(Options{CheckpointDir: dir, CachePath: cache, Inject: inj})
	job, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few evaluations land (but nowhere near all 24).
	deadline := time.Now().Add(time.Minute)
	for {
		if st := job.Status(); st.Evaluated >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", job.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != StateInterrupted {
		t.Fatalf("drained job state %s, want interrupted", st)
	}
	interrupted := job.Status()
	if interrupted.Evaluated >= 24 {
		t.Skipf("job finished before the drain landed (%d/24); nothing to resume", interrupted.Evaluated)
	}

	// Drain left durable state behind.
	ckpt := filepath.Join(dir, "job-"+spec.Hash()+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("no warm cache after drain: %v", err)
	}

	// Intake is closed while draining.
	if _, err := srv1.Submit(spec); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	// Daemon #2 over the same durable state (no injection): the same
	// spec resumes from the checkpoint and completes.
	srv2 := NewServer(Options{CheckpointDir: dir, CachePath: cache})
	resumed, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, resumed); st != StateDone {
		t.Fatalf("resumed job ended %s", st)
	}

	// It actually restored the interrupted run's finished prefix.
	restored := 0
	for _, ev := range history(resumed) {
		if ev.Kind == dse.EventRestored {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("resumed job restored nothing from the checkpoint")
	}

	// The headline contract: byte-identical final report.
	if got := resumed.Report(); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from the uninterrupted run:\n got: %.200s\nwant: %.200s", got, want)
	}
}

// TestResumeThenPollProgressAccounting is the accounting regression
// test: a resumed job re-announces its checkpoint prefix as "restored"
// events before evaluating the rest live. The status endpoint must count
// every candidate index exactly once — at every poll during the resumed
// run evaluated <= total, and at completion evaluated == total.
// (Previously the job counted raw candidate+restored event deliveries,
// so any index announced more than once pushed evaluated past total.)
func TestResumeThenPollProgressAccounting(t *testing.T) {
	dir := t.TempDir()
	spec := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}, Parallelism: 1}
	const space = 24 // 2 buses x 6 RF sets x 2 assignment strategies

	// Daemon #1: slow evaluations, drained mid-run to seed the checkpoint.
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 40 * time.Millisecond})
	srv1 := NewServer(Options{CheckpointDir: dir, Inject: inj})
	job, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for job.Status().Evaluated < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", job.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if job.Status().Evaluated >= space {
		t.Skipf("job finished before the drain landed; nothing to resume")
	}

	// Daemon #2: resume, and poll the status continuously while the
	// restored prefix and the live remainder stream in.
	inj2 := faultinject.New(1)
	inj2.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 10 * time.Millisecond})
	srv2 := NewServer(Options{CheckpointDir: dir, Inject: inj2})
	resumed, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	for done := false; !done; {
		select {
		case <-resumed.Done():
			done = true
		case <-time.After(2 * time.Millisecond):
		}
		st := resumed.Status()
		polls++
		if st.Total != 0 && st.Total != space {
			t.Fatalf("poll %d: total %d, want %d", polls, st.Total, space)
		}
		if st.Total != 0 && st.Evaluated > st.Total {
			t.Fatalf("poll %d: evaluated %d > total %d", polls, st.Evaluated, st.Total)
		}
	}
	if st := resumed.State(); st != StateDone {
		t.Fatalf("resumed job ended %s", st)
	}
	final := resumed.Status()
	if final.Evaluated != space || final.Total != space {
		t.Fatalf("final progress %d/%d, want %d/%d", final.Evaluated, final.Total, space, space)
	}
	// The run really was a resume: restored events are in the history.
	restored := 0
	for _, ev := range history(resumed) {
		if ev.Kind == dse.EventRestored {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("resumed job restored nothing; the poll loop exercised a cold run")
	}
}

// TestJobTimeoutFails pins the per-job deadline path: a spec whose
// Timeout cannot cover the space ends "failed" with a partial report.
func TestJobTimeoutFails(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeSleep, Delay: 30 * time.Millisecond})
	srv := NewServer(Options{Inject: inj})
	spec := smallSpec()
	spec.Parallelism = 1
	spec.Timeout = jobspec.Duration(120 * time.Millisecond)
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateFailed {
		t.Fatalf("timed-out job ended %s, want failed", st)
	}
	st := job.Status()
	if st.Error == "" {
		t.Fatal("timed-out job carries no error")
	}
}
