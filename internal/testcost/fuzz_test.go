package testcost

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/tta"
)

// tta4ALU is the component whose annotation seeds the fuzz ancestor.
var tta4ALU = tta.NewFU(tta.ALU, "ALU1")

// FuzzAnnotatorLoad feeds arbitrary bytes — plus a checked-in corpus of
// truncated, bit-flipped and header-mutated cache files (see
// testdata/fuzz/FuzzAnnotatorLoad) — through Annotator.Load. The
// contract: never panic, never corrupt the annotator, and classify every
// rejection as exactly *CacheMismatchError (structurally valid but
// stale/foreign) or *CacheCorruptError (undecodable or invalid).
func FuzzAnnotatorLoad(f *testing.F) {
	// A genuine cache file as mutation ancestor: the annotator is tiny
	// (width 4 keeps the seed ATPG fast) but the JSON shape is the real
	// one.
	seedAnn := NewAnnotator(4, 7)
	if _, err := seedAnn.AnnotateContext(context.Background(), &tta4ALU); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := seedAnn.Save(&valid); err != nil {
		f.Fatal(err)
	}
	key, err := seedAnn.ComponentKey(&tta4ALU)
	if err != nil {
		f.Fatal(err)
	}
	if !loadedKeys(f, 4, 7, valid.Bytes())[key] {
		f.Fatalf("seed ancestor cache lacks the %s entry", key)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2]) // truncation
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"entries":{}}`))
	f.Add([]byte(`{"version":1,"library":"x","width":4,"seed":7,"march":"y","entries":{"alu/4/ripple":{"np":-1}}}`))
	f.Add([]byte(`{"version":1,"entries":{"k":{"coverage":1e999}}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"json string"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAnnotator(4, 7)
		err := a.Load(bytes.NewReader(data))
		if err == nil {
			return // a structurally valid, matching cache — fine
		}
		var mismatch *CacheMismatchError
		var corrupt *CacheCorruptError
		if !errors.As(err, &mismatch) && !errors.As(err, &corrupt) {
			t.Fatalf("Load returned an untyped error %T: %v", err, err)
		}
		// A rejected load must leave the annotator cold.
		a.mu.Lock()
		n := len(a.cache)
		a.mu.Unlock()
		if n != 0 {
			t.Fatalf("rejected load left %d entries in the cache", n)
		}
	})
}

// loadedKeys loads a saved cache into a fresh annotator of the given
// width and seed and returns the annotation keys it holds.
func loadedKeys(tb testing.TB, width int, seed int64, data []byte) map[string]bool {
	tb.Helper()
	a := NewAnnotator(width, seed)
	if err := a.Load(bytes.NewReader(data)); err != nil {
		tb.Fatal(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make(map[string]bool, len(a.cache))
	for k := range a.cache {
		keys[k] = true
	}
	return keys
}
