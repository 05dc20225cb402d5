package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

func frame(lines ...string) []byte {
	var buf []byte
	for _, l := range lines {
		buf = AppendRecord(buf, []byte(l))
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	in := []string{`{"a":1}`, `{"b":2}`, "", `plain text record`}
	data := frame(in...)
	payloads, dropped, torn := ScanRecords(data)
	if torn != nil {
		t.Fatalf("torn = %v, want nil", torn)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(payloads) != len(in) {
		t.Fatalf("got %d payloads, want %d", len(payloads), len(in))
	}
	for i, p := range payloads {
		if string(p) != in[i] {
			t.Errorf("payload %d = %q, want %q", i, p, in[i])
		}
	}
}

func TestScanEmpty(t *testing.T) {
	payloads, dropped, torn := ScanRecords(nil)
	if torn != nil || dropped != 0 || len(payloads) != 0 {
		t.Fatalf("ScanRecords(nil) = %v, %d, %v", payloads, dropped, torn)
	}
}

// TestTruncationSweep truncates a framed file at every byte offset and
// checks the scan always yields a valid record prefix — never an error
// mid-prefix, never a record that wasn't written.
func TestTruncationSweep(t *testing.T) {
	in := []string{`{"k":"v1"}`, `{"k":"v2"}`, `{"k":"v3"}`}
	data := frame(in...)
	for cut := 0; cut <= len(data); cut++ {
		payloads, dropped, torn := ScanRecords(data[:cut])
		if len(payloads) > len(in) {
			t.Fatalf("cut %d: %d payloads from %d records", cut, len(payloads), len(in))
		}
		for i, p := range payloads {
			if string(p) != in[i] {
				t.Fatalf("cut %d: payload %d = %q, want %q", cut, i, p, in[i])
			}
		}
		if cut == len(data) {
			if torn != nil {
				t.Fatalf("full data: torn = %v", torn)
			}
		} else if len(payloads)+((dropped+1)/1) == 0 && cut > 0 {
			t.Fatalf("cut %d: lost bytes without accounting", cut)
		}
		if torn == nil && cut < len(data) {
			// a clean scan of a truncation is only possible on a record
			// boundary
			if dropped != 0 {
				t.Fatalf("cut %d: clean scan but dropped=%d", cut, dropped)
			}
			if sum := len(frame(in[:len(payloads)]...)); sum != cut {
				t.Fatalf("cut %d: clean scan not on record boundary (prefix re-frames to %d bytes)", cut, sum)
			}
		}
	}
}

func TestScanBitFlip(t *testing.T) {
	in := []string{`{"k":"v1"}`, `{"k":"v2"}`, `{"k":"v3"}`}
	data := frame(in...)
	rec := len(frame(in[0]))
	// flip a payload byte inside record 2
	mut := append([]byte(nil), data...)
	mut[rec+3] ^= 0x40
	payloads, _, torn := ScanRecords(mut)
	if torn == nil || torn.Reason != "crc mismatch" {
		t.Fatalf("torn = %v, want crc mismatch", torn)
	}
	if len(payloads) != 1 || string(payloads[0]) != in[0] {
		t.Fatalf("payloads = %q, want just record 1", payloads)
	}
	if torn.Offset != rec {
		t.Fatalf("offset = %d, want %d", torn.Offset, rec)
	}
}

func TestScanGarbage(t *testing.T) {
	for _, garbage := range [][]byte{
		[]byte("not a framed file\n"),
		[]byte("{\n  \"version\": 1\n}\n"),
		[]byte("short\n"),
		bytes.Repeat([]byte{0xff}, 64),
	} {
		payloads, _, torn := ScanRecords(garbage)
		if torn == nil {
			t.Fatalf("ScanRecords(%q): no torn error", garbage)
		}
		if len(payloads) != 0 {
			t.Fatalf("ScanRecords(%q): recovered %d records from garbage", garbage, len(payloads))
		}
	}
}

func TestIsFramed(t *testing.T) {
	if !IsFramed(frame(`{"a":1}`)) {
		t.Error("framed data not detected")
	}
	if !IsFramed(frame(`{"a":1}`, `{"b":2}`)) {
		t.Error("multi-record framed data not detected")
	}
	// torn tail on the first record still probes as framed as long as
	// the trailer mark survives? No: probe requires full first line
	// trailer syntax; a tear inside it reads as legacy, and the legacy
	// parse then fails -> quarantine. Both torn variants must not panic.
	for _, legacy := range [][]byte{
		nil,
		[]byte("{}"),
		[]byte("{\n  \"version\": 1\n}\n"),
		[]byte("x"),
	} {
		if IsFramed(legacy) {
			t.Errorf("IsFramed(%q) = true", legacy)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := WriteFileAtomic(path, []byte("v1"), nil, faultinject.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("read %q", got)
	}
	if err := WriteFileAtomic(path, []byte("v2 longer"), nil, faultinject.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2 longer" {
		t.Fatalf("read %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("leftover temp files: %v", ents)
	}
}

func TestWriteFileAtomicTornInjection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	data := frame(`{"a":1}`, `{"b":2}`, `{"c":3}`)

	inj := faultinject.New(1)
	inj.Arm(faultinject.Checkpoint, faultinject.Plan{Mode: faultinject.ModeTornWrite, Frac: 0.5, Limit: 1})

	err := WriteFileAtomic(path, data, inj, faultinject.Checkpoint)
	var torn *faultinject.TornWriteError
	if !errors.As(err, &torn) {
		t.Fatalf("err = %v, want TornWriteError", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn write left no file: %v", rerr)
	}
	if len(got) != len(data)/2 {
		t.Fatalf("torn file has %d bytes, want %d", len(got), len(data)/2)
	}
	// The torn prefix must still yield a valid record prefix.
	payloads, _, scanTorn := ScanRecords(got)
	if scanTorn == nil && len(payloads) == 3 {
		t.Fatal("tear did not actually tear")
	}
	for i, p := range payloads {
		want := []string{`{"a":1}`, `{"b":2}`, `{"c":3}`}[i]
		if string(p) != want {
			t.Fatalf("recovered payload %d = %q, want %q", i, p, want)
		}
	}

	// Plan exhausted (Limit 1): the next write succeeds and repairs the file.
	if err := WriteFileAtomic(path, data, inj, faultinject.Checkpoint); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, data) {
		t.Fatal("repair write did not replace torn file")
	}
}

func TestWriteFileAtomicErrorInjectionKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := WriteFileAtomic(path, []byte("old"), nil, faultinject.Checkpoint); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.Checkpoint, faultinject.Plan{Mode: faultinject.ModeError, Limit: 1})
	if err := WriteFileAtomic(path, []byte("new"), inj, faultinject.Checkpoint); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("old file clobbered: %q", got)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("bad header")
	e := Quarantine(path, "checkpoint", cause)
	if e.QuarantinedTo != path+".corrupt" || e.Path != path || e.Artifact != "checkpoint" || e.Err != cause {
		t.Fatalf("quarantine error = %+v", e)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original still present")
	}
	if got, _ := os.ReadFile(e.QuarantinedTo); string(got) != "junk" {
		t.Fatalf("quarantined content %q", got)
	}
	if e := Quarantine(filepath.Join(dir, "missing"), "checkpoint", cause); e.QuarantinedTo != "" {
		t.Fatalf("quarantine of missing file returned %q", e.QuarantinedTo)
	}
}

func TestCorruptArtifactError(t *testing.T) {
	inner := fmt.Errorf("inner cause")
	e := &CorruptArtifactError{Artifact: "checkpoint", Path: "/x/ck", QuarantinedTo: "/x/ck.corrupt", Err: inner}
	if !errors.Is(e, inner) {
		t.Fatal("Unwrap chain broken")
	}
	var ca *CorruptArtifactError
	if !errors.As(fmt.Errorf("wrap: %w", e), &ca) {
		t.Fatal("errors.As failed")
	}
	if e.Error() == "" || (&CorruptArtifactError{Artifact: "cache", Path: "p", Err: inner}).Error() == "" {
		t.Fatal("empty error string")
	}
}
