package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/testcost"
)

// TestArtifactBytesPinned pins the bytes of every artifact a run
// persists or sends: the warm annotation cache, the final checkpoint,
// the JSON report and the NDJSON event stream of one small cold sweep,
// run the way the daemon runs the job
// {"buses":[1,2],"alus":[1],"cmps":[1],"parallelism":1}. The daemon's
// /result and /events bytes, its checkpoint file and its drained cache
// carry the same digests. A change to a codec or a record type that
// moves a byte fails here.
func TestArtifactBytesPinned(t *testing.T) {
	spec := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}, Parallelism: 1}
	cfg, sel, err := dse.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ann := testcost.NewAnnotator(cfg.Width, cfg.Seed)
	cfg.Annotator = ann
	var events bytes.Buffer
	enc := json.NewEncoder(&events)
	cfg.EventSink = func(ev dse.Event) {
		if err := enc.Encode(ev); err != nil {
			t.Error(err)
		}
	}
	dir := t.TempDir()
	ckPath, cachePath := filepath.Join(dir, "job.ckpt"), filepath.Join(dir, "warm.cache")
	ck, err := dse.OpenCheckpoint(ckPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	study := core.NewStudyWithConfig(cfg)
	if err := study.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	jr, err := study.JSONResult(sel)
	if err != nil {
		t.Fatal(err)
	}
	report, err := jr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.SaveFile(cachePath); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, p := range []struct {
		name string
		data []byte
		want string
	}{
		{"warm cache", read(cachePath), "2fd34173d6ab231c3b7543fdf4408eead06b5ee707ba1c980b53e4a77fd37aab"},
		{"checkpoint", read(ckPath), "567993cb4f335815f125dc556f6cf4e88525b8b95a939d5615d12f232c8c3d79"},
		{"JSON report", report, "37725bd3951efb953eaea2264293d6963a888c021c7879d30c6819e426728761"},
		{"event stream", events.Bytes(), "3226be1f02a4623a030e83daed5f92e9407859d02b9932fda34f62a3af9b0632"},
	} {
		sum := sha256.Sum256(p.data)
		if got := hex.EncodeToString(sum[:]); got != p.want {
			t.Errorf("%s: sha256 %s, pinned %s (%d bytes)", p.name, got, p.want, len(p.data))
		}
	}
}
