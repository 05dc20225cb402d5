package testcost

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestCacheTornPrefixRecovery tears the tail off a saved cache: the load
// must keep the valid record prefix (warm entries), count the recovery,
// and not error — a shorter cache is just a slightly colder start.
func TestCacheTornPrefixRecovery(t *testing.T) {
	_, blob := coldAnnotator(t)
	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	if err := a.Load(bytes.NewReader(blob[:len(blob)-5])); err != nil {
		t.Fatalf("torn load: %v", err)
	}
	if got := reg.Counter("durability.prefix_recovered").Value(); got != 1 {
		t.Fatalf("durability.prefix_recovered = %d, want 1", got)
	}
	if reg.Counter("testcost.cache.loaded").Value() == 0 {
		t.Fatal("torn load warmed nothing — prefix was discarded")
	}
	if w := a.LoadWarnings(); len(w) != 1 || !strings.Contains(w[0], "torn") {
		t.Fatalf("load warnings %q, want one torn-prefix warning", w)
	}
	a.mu.Lock()
	warm := len(a.cache)
	a.mu.Unlock()
	full, _ := coldAnnotator(t)
	full.mu.Lock()
	want := len(full.cache)
	full.mu.Unlock()
	if warm >= want {
		t.Fatalf("torn load kept %d entries, full cache has %d — the tear lost nothing?", warm, want)
	}
}

// TestCacheLegacyFormatRoundTrip pins backward compatibility: a
// whole-document pre-CRC cache still warm-loads (with one legacy-format
// load warning), and re-saving it produces the framed bytes a
// never-legacy save would have.
func TestCacheLegacyFormatRoundTrip(t *testing.T) {
	_, blob := coldAnnotator(t)
	f := decodeCache(t, blob)
	legacy, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	if err := a.Load(bytes.NewReader(append(legacy, '\n'))); err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if got := reg.Counter("durability.legacy_loads").Value(); got != 1 {
		t.Fatalf("durability.legacy_loads = %d, want 1", got)
	}
	if w := a.LoadWarnings(); len(w) != 1 || !strings.Contains(w[0], "legacy") {
		t.Fatalf("load warnings %q, want one legacy-format warning", w)
	}
	if got, want := reg.Counter("testcost.cache.loaded").Value(), int64(len(f.Entries)); got != want {
		t.Fatalf("legacy load warmed %d entries, want %d", got, want)
	}

	var out bytes.Buffer
	if err := a.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob) {
		t.Fatalf("re-saved legacy cache differs from the framed original:\n%q\nvs\n%q", out.Bytes(), blob)
	}
}

// TestCacheQuarantineOnLoadFile feeds LoadFile an irrecoverable file: it
// must quarantine to *.corrupt, count it, return the typed artifact
// error wrapping CacheCorruptError, and leave the annotator cold.
func TestCacheQuarantineOnLoadFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "ann.cache")
	if err := os.WriteFile(p, []byte("{definitely not a cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	err := a.LoadFile(p)
	var ca *durable.CorruptArtifactError
	if !errors.As(err, &ca) {
		t.Fatalf("err = %T (%v), want *durable.CorruptArtifactError", err, err)
	}
	var cc *CacheCorruptError
	if !errors.As(err, &cc) {
		t.Fatal("artifact error does not wrap CacheCorruptError")
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q", ca.QuarantinedTo)
	}
	if _, serr := os.Stat(p); !os.IsNotExist(serr) {
		t.Fatal("corrupt cache still at original path")
	}
	if reg.Counter("durability.quarantined").Value() != 1 {
		t.Fatalf("durability.quarantined = %d, want 1", reg.Counter("durability.quarantined").Value())
	}
	if w := a.LoadWarnings(); len(w) != 1 || w[0] != err.Error() {
		t.Fatalf("load warnings %q, want the quarantine error alone", w)
	}
	a.mu.Lock()
	n := len(a.cache)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("corrupt load warmed %d entries", n)
	}
}

// TestCacheSaveFileAtomicOnError arms an injected write failure: the
// existing cache file must survive untouched.
func TestCacheSaveFileAtomicOnError(t *testing.T) {
	a, _ := coldAnnotator(t)
	p := filepath.Join(t.TempDir(), "ann.cache")
	if err := a.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.CacheWrite, faultinject.Plan{Mode: faultinject.ModeError, Limit: 1})
	a.Inject = inj
	if err := a.SaveFile(p); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	after, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the existing cache file")
	}
}
