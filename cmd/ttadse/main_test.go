package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the CLI under test: re-execing this test binary
// with TTADSE_RUN_MAIN=1 runs the real main() over the re-exec's argv,
// so the CLI tests drive ttadse as separate OS processes without
// building the command.
func TestMain(m *testing.M) {
	if os.Getenv("TTADSE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI execs one ttadse invocation, returning stdout, stderr and the
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "TTADSE_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("exec %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestCheckpointResumeCLIByteIdentical drives the checkpoint/resume
// contract through the ttadse binary: a run cut short by -timeout exits
// 2 and leaves its checkpoint; the rerun with the same -checkpoint exits
// 0 and prints exactly the uninterrupted run's bytes; a further rerun
// restores every candidate from the file and still prints those bytes.
func TestCheckpointResumeCLIByteIdentical(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d: %s", code, errText)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	withCkpt := append(append([]string(nil), base...), "-checkpoint", ckpt)
	if _, errText, code := runCLI(t, append(withCkpt, "-timeout", "1ns")...); code != 2 {
		t.Fatalf("timed-out run exited %d, want 2: %s", code, errText)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("timed-out run left no checkpoint: %v", err)
	}
	out, errText, code := runCLI(t, withCkpt...)
	if code != 0 {
		t.Fatalf("rerun exited %d: %s", code, errText)
	}
	if out != ref {
		t.Fatal("rerun after the timeout differs from the uninterrupted run")
	}
	out, errText, code = runCLI(t, withCkpt...)
	if code != 0 {
		t.Fatalf("restoring rerun exited %d: %s", code, errText)
	}
	if !strings.Contains(errText, "12 completed evaluations") {
		t.Fatalf("restoring rerun did not restore all 12 candidates: %s", errText)
	}
	if out != ref {
		t.Fatal("report restored from the checkpoint differs from the uninterrupted run")
	}
}

// TestProgressReportsTornCheckpoint tears the tail off a finished run's
// checkpoint: the rerun with -progress resumes from the intact prefix
// and prints the torn-prefix warning among its events.
func TestProgressReportsTornCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-buses", "1", "-alus", "1", "-cmps", "1", "-checkpoint", ckpt}
	if _, errText, code := runCLI(t, args...); code != 0 {
		t.Fatalf("checkpointed run exited %d: %s", code, errText)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ckpt, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	_, errText, code := runCLI(t, append(args, "-progress")...)
	if code != 0 {
		t.Fatalf("rerun on the torn checkpoint exited %d: %s", code, errText)
	}
	want := "ttadse: [0/0] checkpoint " + ckpt + " was torn"
	if !strings.Contains(errText, want) || !strings.Contains(errText, "recovered 11 entries from the valid prefix") {
		t.Fatalf("stderr lacks the torn-prefix warning %q:\n%s", want, errText)
	}
}

// TestProgressPrintsEveryCandidate starts a 3,072-candidate sweep with
// -progress and reads its stderr only after a pause, long enough for the
// whole sweep to finish if nothing held it back. Every candidate must
// still get its line, exactly once: a progress printer that drops events
// while stderr is not being read fails here.
func TestProgressPrintsEveryCandidate(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-buses", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
		"-alus", "1,2,3,4,5,6,7,8", "-cmps", "1,2", "-progress")
	cmd.Env = append(os.Environ(), "TTADSE_RUN_MAIN=1")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	errText, err := io.ReadAll(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, errText)
	}
	const total = 3072
	seen := make(map[int]bool, total)
	for _, line := range strings.Split(string(errText), "\n") {
		var n, of int
		if _, err := fmt.Sscanf(line, "ttadse: [%d/%d] c", &n, &of); err != nil || of != total {
			continue
		}
		if seen[n] {
			t.Fatalf("candidate line %d/%d printed twice", n, total)
		}
		seen[n] = true
	}
	if len(seen) != total {
		t.Fatalf("stderr carries %d of %d candidate lines", len(seen), total)
	}
}

// TestCheckpointBoundToATPGBudget resumes a plain run from the checkpoint
// of a run whose ATPG budget degraded every annotation. The budget is
// part of the spec hash the checkpoint is bound to, so the plain run must
// ignore that checkpoint as stale and print the plain report, not the
// degraded one.
func TestCheckpointBoundToATPGBudget(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, errText)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	withCkpt := append(append([]string(nil), base...), "-checkpoint", ckpt)
	degraded, errText, code := runCLI(t, append(withCkpt, "-atpg-deadline", "1ns")...)
	if code != 0 {
		t.Fatalf("budgeted run exited %d: %s", code, errText)
	}
	if !strings.Contains(degraded, "(degraded)") {
		t.Fatal("a 1ns ATPG budget degraded no annotation")
	}
	out, errText, code := runCLI(t, withCkpt...)
	if code != 0 {
		t.Fatalf("plain rerun exited %d: %s", code, errText)
	}
	if !strings.Contains(errText, "ignoring stale checkpoint") {
		t.Errorf("plain rerun did not reject the budgeted run's checkpoint:\n%s", errText)
	}
	if out != ref {
		t.Fatal("plain rerun on the budgeted run's checkpoint differs from the plain run")
	}
}

// TestFlagValidation pins CLI-boundary rejections of flags that no
// longer exist: the lane width, the process-sharding flags and the
// ATPG worker count.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-lane-width", "128"},
		{"-atpg-workers", "2"},
		{"-shards", "2"},
		{"-shard-index", "1"},
		{"-merge", "a.ckpt,b.ckpt"},
	} {
		_, errText, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(errText, "flag provided but not defined: "+args[0]) {
			t.Fatalf("ttadse %v exited %d, want 2 for an unknown flag: %s", args, code, errText)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("buses", "1, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseIntList = %v", got)
	}
	for _, raw := range []string{"", "   ", "1,x", "0", "1,,2", "-3"} {
		_, err := parseIntList("alus", raw)
		if err == nil {
			t.Fatalf("parseIntList(%q) accepted invalid input", raw)
		}
		if !strings.Contains(err.Error(), "-alus") {
			t.Fatalf("error %q does not name the flag", err)
		}
	}
	// The offending token is reported.
	_, err = parseIntList("buses", "1,2,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error %v does not report the offending token", err)
	}
}

func TestParseIntListDedupesAndSorts(t *testing.T) {
	// Duplicates and unsorted input must not produce duplicate candidates
	// downstream: the parsed list is sorted and deduplicated.
	got, err := parseIntList("buses", "3,1,2,3,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("parseIntList = %v, want [1 2 3]", got)
	}
}

func TestParseIntListEmptyMessage(t *testing.T) {
	// The empty string gets its own error, not `invalid count ""`.
	_, err := parseIntList("cmps", "")
	if err == nil {
		t.Fatal("empty list accepted")
	}
	if !strings.Contains(err.Error(), "empty list") || strings.Contains(err.Error(), `""`) {
		t.Fatalf("empty input reported as %q, want a dedicated empty-list message", err)
	}
}
