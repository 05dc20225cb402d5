package testcost

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// legacyCache is the pre-CRC whole-document cache: the header's fields
// and an "entries" object, in one JSON document.
type legacyCache struct {
	cacheFile
	Entries map[string]cacheEntry `json:"entries"`
}

// decodeCache reads a saved cache back into its legacy document form.
func decodeCache(t *testing.T, blob []byte) legacyCache {
	t.Helper()
	var f legacyCache
	entries, rec, err := durable.DecodeKeyed[cacheEntry](blob, &f.cacheFile)
	if err != nil || rec.Torn || rec.Legacy {
		t.Fatalf("decode saved cache: %v (recovery %+v)", err, rec)
	}
	f.Entries = entries
	return f
}

// coldAnnotator returns a narrow-width annotator that has evaluated the
// figure-9 architecture, plus its fully populated cache serialization.
func coldAnnotator(t *testing.T) (*Annotator, []byte) {
	t.Helper()
	a := NewAnnotator(8, 7)
	arch := tta.Figure9()
	arch.Width = 8
	if _, err := a.EvaluateContext(context.Background(), arch); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return a, buf.Bytes()
}

func TestWarmStartSkipsAllATPG(t *testing.T) {
	cold, blob := coldAnnotator(t)
	arch := tta.Figure9()
	arch.Width = 8
	want, err := cold.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	warm.Obs = reg
	if err := warm.Load(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("testcost.cache.loaded").Value(); got <= 0 {
		t.Fatalf("loaded counter = %d, want > 0", got)
	}
	got, err := warm.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}

	// The warm run must not have run a single ATPG: zero cache misses
	// (components) and no atpg counters (sockets included — socket runs
	// are instrumented too).
	if miss := reg.Counter("testcost.cache.miss").Value(); miss != 0 {
		t.Errorf("warm run recorded %d cache misses, want 0", miss)
	}
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "atpg.") && v > 0 {
			t.Errorf("warm run still ran ATPG: counter %s = %d", name, v)
		}
	}

	// And it must be value-identical to the cold evaluation.
	if got.Total != want.Total || got.FullScanTotal != want.FullScanTotal {
		t.Errorf("warm totals (%d, %d) differ from cold (%d, %d)",
			got.Total, got.FullScanTotal, want.Total, want.FullScanTotal)
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("component rows %d vs %d", len(got.Components), len(want.Components))
	}
	for i := range got.Components {
		if got.Components[i] != want.Components[i] {
			t.Errorf("component %d differs: warm %+v cold %+v", i, got.Components[i], want.Components[i])
		}
	}
}

func TestCacheFileRoundTrip(t *testing.T) {
	a, _ := coldAnnotator(t)
	path := filepath.Join(t.TempDir(), "ann.json")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b := NewAnnotator(8, 7)
	if err := b.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.cache) != len(a.cache) {
		t.Fatalf("loaded %d entries, saved %d", len(b.cache), len(a.cache))
	}
	for k, an := range a.cache {
		if b.cache[k] != an {
			t.Errorf("entry %q differs: %+v vs %+v", k, b.cache[k], an)
		}
	}
}

func TestCacheLoadMissingFile(t *testing.T) {
	a := NewAnnotator(8, 7)
	err := a.LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
}

func TestCacheHeaderMismatch(t *testing.T) {
	_, blob := coldAnnotator(t)
	f := decodeCache(t, blob)
	cases := []struct {
		name   string
		mutate func(*cacheFile)
		loader *Annotator
	}{
		{"version", func(c *cacheFile) { c.Version = CacheFormatVersion + 1 }, NewAnnotator(8, 7)},
		{"library", func(c *cacheFile) { c.Library = "gatelib/v0" }, NewAnnotator(8, 7)},
		{"width", nil, NewAnnotator(16, 7)},
		{"seed", nil, NewAnnotator(8, 11)},
		{"march", func(c *cacheFile) { c.March = "bogus" }, NewAnnotator(8, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := f // copy header; entries shared is fine, they are not mutated
			if tc.mutate != nil {
				tc.mutate(&c.cacheFile)
			}
			raw, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			loadErr := tc.loader.Load(bytes.NewReader(raw))
			var mismatch *CacheMismatchError
			if !errors.As(loadErr, &mismatch) {
				t.Fatalf("stale %s header loaded without CacheMismatchError (err=%v)", tc.name, loadErr)
			}
			tc.loader.mu.Lock()
			n := len(tc.loader.cache)
			tc.loader.mu.Unlock()
			if n != 0 {
				t.Errorf("mismatching file still populated %d entries", n)
			}
		})
	}
}

func TestCacheCorruptFile(t *testing.T) {
	a := NewAnnotator(8, 7)
	if err := a.Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt cache accepted")
	}
}

func TestLibraryKeyInFile(t *testing.T) {
	// The persisted header must carry the live library generation, so a
	// generator bump invalidates old files automatically.
	_, blob := coldAnnotator(t)
	f := decodeCache(t, blob)
	if f.Library != gatelib.LibraryKey || f.Version != CacheFormatVersion {
		t.Fatalf("header %+v does not carry the live library key/version", f)
	}
	if f.Sockets == nil || f.Sockets.In.NP <= 0 || f.Sockets.Out.NP <= 0 {
		t.Fatalf("socket annotations missing from the file: %+v", f.Sockets)
	}
}

// TestCacheLoadIntoWarmAnnotator loads two cache files, each written by
// an annotator that evaluated a different architecture, into one
// annotator: the entries union with the first file's values kept, and a
// corrupt third file is rejected without touching the loaded entries.
func TestCacheLoadIntoWarmAnnotator(t *testing.T) {
	a, _ := coldAnnotator(t)
	b := NewAnnotator(8, 7)
	arch := tta.Figure9()
	arch.Width = 8
	arch.Buses++ // different CD -> at least some distinct socket demand
	if _, err := b.EvaluateContext(context.Background(), arch); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, second, bad := filepath.Join(dir, "a.cache"), filepath.Join(dir, "b.cache"), filepath.Join(dir, "bad.cache")
	if err := a.SaveFile(first); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveFile(second); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := NewAnnotator(8, 7)
	for _, p := range []string{first, second} {
		if err := warm.LoadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	var corrupt *CacheCorruptError
	if err := warm.LoadFile(bad); !errors.As(err, &corrupt) {
		t.Fatalf("corrupt file: err = %v, want *CacheCorruptError", err)
	}
	warm.mu.Lock()
	defer warm.mu.Unlock()
	for _, src := range []*Annotator{a, b} {
		src.mu.Lock()
		for k, an := range src.cache {
			if got, ok := warm.cache[k]; !ok || (src == a && got != an) {
				t.Errorf("entry %q: loaded %+v (present %v), want %+v", k, got, ok, an)
			}
		}
		src.mu.Unlock()
	}
}
