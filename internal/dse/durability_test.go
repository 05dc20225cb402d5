package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
)

// legacyCheckpoint is the pre-CRC whole-document checkpoint: the
// header's fields and an "entries" object, in one JSON document.
type legacyCheckpoint struct {
	checkpointFile
	Entries map[string]checkpointEntry `json:"entries"`
}

// recordedCheckpoint runs a checkpointed two-candidate exploration and
// returns the reference result plus the on-disk checkpoint bytes.
func recordedCheckpoint(t *testing.T) (Config, *Result, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dse.ckpt")
	cfg := twoCandConfig(t)
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	ref, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 2 {
		t.Fatalf("checkpoint holds %d entries, want 2", ck.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = nil
	return cfg, ref, data
}

// recordBoundaries returns the byte offsets at which a framed file's
// record prefix ends cleanly — truncation exactly there is
// indistinguishable from an honestly shorter checkpoint.
func recordBoundaries(data []byte) map[int]bool {
	payloads, _, torn := durable.ScanRecords(data)
	if torn != nil {
		panic("recordBoundaries on damaged data")
	}
	b := map[int]bool{}
	off := 0
	var buf []byte
	for _, p := range payloads {
		buf = durable.AppendRecord(buf[:0], p)
		off += len(buf)
		b[off] = true
	}
	return b
}

// TestCheckpointTruncationSweep truncates a recorded checkpoint at every
// byte offset: every open must either prefix-recover or quarantine with
// a typed error, never panic, and never come back cold without an obs
// counter (except at exact record boundaries, where the shorter file is
// a valid checkpoint in its own right).
func TestCheckpointTruncationSweep(t *testing.T) {
	cfg, ref, data := recordedCheckpoint(t)
	bounds := recordBoundaries(data)
	full := 2

	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(t.TempDir(), "ck")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c := cfg
		c.Obs = reg
		ck, err := OpenCheckpoint(p, c)
		if ck == nil {
			t.Fatalf("cut %d: nil checkpoint", cut)
		}
		if err != nil {
			var ca *durable.CorruptArtifactError
			var cc *CheckpointCorruptError
			if !errors.As(err, &ca) || !errors.As(err, &cc) {
				t.Fatalf("cut %d: err %T (%v), want CorruptArtifactError wrapping CheckpointCorruptError", cut, err, err)
			}
			if ck.Len() != 0 {
				t.Fatalf("cut %d: corrupt open kept %d entries", cut, ck.Len())
			}
			if reg.Counter("durability.quarantined").Value() == 0 {
				t.Fatalf("cut %d: quarantine without counter", cut)
			}
			if ca.QuarantinedTo != "" {
				if _, serr := os.Stat(p); !os.IsNotExist(serr) {
					t.Fatalf("cut %d: quarantined file still at original path", cut)
				}
			}
			continue
		}
		if ck.Len() > full {
			t.Fatalf("cut %d: recovered %d entries from a %d-entry file", cut, ck.Len(), full)
		}
		recovered := reg.Counter("durability.prefix_recovered").Value()
		// A cut inside the header record's CRC trailer can leave a pure
		// JSON document, which loads as an (empty) legacy file — still
		// obs-visible, via durability.legacy_loads instead.
		legacy := reg.Counter("durability.legacy_loads").Value()
		if cut < len(data) && !bounds[cut] && recovered == 0 && legacy == 0 {
			t.Fatalf("cut %d: torn load with no prefix_recovered/legacy_loads counter", cut)
		}
		if cut == len(data) && (recovered != 0 || ck.Len() != full) {
			t.Fatalf("intact file: recovered=%d len=%d", recovered, ck.Len())
		}
	}

	// A tear through the last record must resume to the reference result
	// from the surviving prefix.
	p := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := cfg
	c.Obs = reg
	ck, err := OpenCheckpoint(p, c)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if ck.Len() != full-1 {
		t.Fatalf("torn tail recovered %d entries, want %d", ck.Len(), full-1)
	}
	c.Checkpoint = ck
	res, err := ExploreContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
	if reg.Counter("dse.checkpoint.restored").Value() != int64(full-1) {
		t.Fatalf("restored %d, want %d", reg.Counter("dse.checkpoint.restored").Value(), full-1)
	}
}

// TestCheckpointLegacyFormatRoundTrip pins backward compatibility: a
// whole-document pre-CRC file still loads (with one legacy-format
// warning on the resuming run's stream), feeds a byte-identical resume,
// and the next flush rewrites it into the framed format exactly as a
// never-legacy run would have.
func TestCheckpointLegacyFormatRoundTrip(t *testing.T) {
	cfg, ref, framed := recordedCheckpoint(t)
	var f checkpointFile
	entries, rec, err := durable.DecodeKeyed[checkpointEntry](framed, &f)
	if err != nil || rec.Torn || rec.Legacy {
		t.Fatalf("decode framed: %v (recovery %+v)", err, rec)
	}

	legacy, err := json.MarshalIndent(&legacyCheckpoint{f, entries}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(p, append(legacy, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	legacyEvents := 0
	c := cfg
	c.Obs = reg
	c.EventSink = func(ev Event) {
		if ev.Kind == EventWarning && bytes.Contains([]byte(ev.Msg), []byte("legacy")) {
			legacyEvents++
		}
	}
	ck, err := OpenCheckpoint(p, c)
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if ck.Len() != 2 {
		t.Fatalf("legacy load holds %d entries, want 2", ck.Len())
	}
	if got := reg.Counter("durability.legacy_loads").Value(); got != 1 {
		t.Fatalf("durability.legacy_loads = %d, want 1", got)
	}

	c.Checkpoint = ck
	res, err := ExploreContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
	if legacyEvents != 1 {
		t.Fatalf("legacy warning events = %d, want 1", legacyEvents)
	}

	// The run's final flush upgrades the file to the framed format,
	// byte-identical to the never-legacy original.
	upgraded, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(upgraded, framed) {
		t.Fatalf("upgraded file differs from framed original:\n%q\nvs\n%q", upgraded, framed)
	}
	reg2 := obs.NewRegistry()
	c2 := cfg
	c2.Obs = reg2
	if _, err := OpenCheckpoint(p, c2); err != nil {
		t.Fatal(err)
	}
	if reg2.Counter("durability.legacy_loads").Value() != 0 {
		t.Fatal("upgraded file still loads as legacy")
	}
}

// TestCheckpointQuarantine feeds OpenCheckpoint an irrecoverable file:
// the open must return the typed quarantine error, move the file to
// *.corrupt, count it, and hand back a usable fresh checkpoint.
func TestCheckpointQuarantine(t *testing.T) {
	p := filepath.Join(t.TempDir(), "dse.ckpt")
	if err := os.WriteFile(p, []byte("{ this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := twoCandConfig(t)
	cfg.Obs = reg
	ck, err := OpenCheckpoint(p, cfg)
	var ca *durable.CorruptArtifactError
	if !errors.As(err, &ca) {
		t.Fatalf("err = %T (%v), want *durable.CorruptArtifactError", err, err)
	}
	var cc *CheckpointCorruptError
	if !errors.As(err, &cc) {
		t.Fatal("CorruptArtifactError does not wrap CheckpointCorruptError")
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q", ca.QuarantinedTo)
	}
	if _, serr := os.Stat(ca.QuarantinedTo); serr != nil {
		t.Fatalf("quarantine file: %v", serr)
	}
	if _, serr := os.Stat(p); !os.IsNotExist(serr) {
		t.Fatal("corrupt file still at original path")
	}
	if reg.Counter("durability.quarantined").Value() != 1 {
		t.Fatalf("durability.quarantined = %d, want 1", reg.Counter("durability.quarantined").Value())
	}
	if ck == nil || ck.Len() != 0 {
		t.Fatalf("no usable fresh checkpoint: %v", ck)
	}
	// The fresh checkpoint writes to the original path again.
	cfg.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(p); serr != nil {
		t.Fatalf("fresh checkpoint not rewritten: %v", serr)
	}
}

// TestCheckpointBitFlipCRC flips one payload byte inside a recorded
// checkpoint: the CRC must catch it (durability.crc_fail), and the load
// must keep exactly the records before the damage.
func TestCheckpointBitFlipCRC(t *testing.T) {
	cfg, _, data := recordedCheckpoint(t)
	// Flip a byte in the middle of the last record's payload.
	mut := append([]byte(nil), data...)
	last := bytes.LastIndexByte(mut[:len(mut)-1], '\n') // start of final record
	mut[last+10] ^= 0x20
	p := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := cfg
	c.Obs = reg
	ck, err := OpenCheckpoint(p, c)
	if err != nil {
		t.Fatalf("bit-flipped open: %v", err)
	}
	if ck.Len() != 1 {
		t.Fatalf("recovered %d entries, want 1", ck.Len())
	}
	if reg.Counter("durability.crc_fail").Value() == 0 {
		t.Fatal("no durability.crc_fail count")
	}
	if reg.Counter("durability.prefix_recovered").Value() == 0 {
		t.Fatal("no durability.prefix_recovered count")
	}
}

// FuzzOpenCheckpoint mirrors FuzzAnnotatorLoad for the checkpoint layer:
// arbitrary bytes must never panic the open — every outcome is a clean
// load, a typed mismatch, or a typed quarantine leaving a fresh usable
// checkpoint.
func FuzzOpenCheckpoint(f *testing.F) {
	cfg, err := DefaultConfig()
	if err != nil {
		f.Fatal(err)
	}
	cfg.Width = 8
	cfg.Buses = []int{2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = [][]RFSpec{{{16, 2, 2}, {16, 1, 2}}}
	cfg.Annotator = nil
	if err := cfg.fillDefaults(); err != nil {
		f.Fatal(err)
	}

	// Seed corpus: a real framed checkpoint (built by the real writer),
	// its truncations and a bit-flip, a legacy whole-document file, and
	// assorted garbage.
	seedPath := filepath.Join(f.TempDir(), "seed.ckpt")
	ck, err := OpenCheckpoint(seedPath, cfg)
	if err != nil {
		f.Fatal(err)
	}
	for key, c := range map[string]Candidate{
		"k1|a": {Feasible: true, Area: 100, Cycles: 7, Clock: 2.5, ExecTime: 17.5, TestCost: 42, FullScan: 40},
		"k2|b": {Reason: "infeasible: no route"},
	} {
		if err := ck.record(key, &c); err != nil {
			f.Fatal(err)
		}
	}
	if err := ck.FlushErr(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x08
	f.Add(flipped)
	var legacyFile legacyCheckpoint
	if es, _, err := durable.DecodeKeyed[checkpointEntry](seed, &legacyFile.checkpointFile); err == nil {
		legacyFile.Entries = es
	}
	if legacy, err := json.MarshalIndent(&legacyFile, "", "  "); err == nil {
		f.Add(append(legacy, '\n'))
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("not a checkpoint at all"))
	f.Add([]byte(fmt.Sprintf("{\"x\":1} #c=%08x\n", durable.Checksum([]byte(`{"x":1}`)))))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fz.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(p, cfg)
		if ck == nil {
			t.Fatal("nil checkpoint")
		}
		if err == nil {
			return // clean load (fresh, legacy, or prefix-recovered)
		}
		var mm *CheckpointMismatchError
		var cc *CheckpointCorruptError
		if !errors.As(err, &mm) && !errors.As(err, &cc) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		if errors.As(err, &cc) && ck.Len() != 0 {
			t.Fatalf("corrupt open kept %d entries", ck.Len())
		}
		var ca *durable.CorruptArtifactError
		if errors.As(err, &ca) && ca.QuarantinedTo != "" {
			if _, serr := os.Stat(p); !os.IsNotExist(serr) {
				t.Fatal("quarantined file still present at original path")
			}
		}
	})
}

// TestOldShardCheckpointResumes opens checkpoints in the formats that
// earlier builds wrote. Every one of their entries carries an "energy"
// key, 0 unless an energy model was attached to the exploration:
//   - "energy": a framed file of the whole candidate list;
//   - "shard": the file of a process-sharded worker, whose header record
//     carries a "shard" block and whose entries cover only the worker's
//     slice of the candidate list.
//
// Each restores as a checkpoint of this run: every entry is restored,
// the rest of the candidates are evaluated, the result equals a cold
// run's, and the next flush writes the file this build writes for the
// run, with neither an "energy" key nor a "shard" block.
func TestOldShardCheckpointResumes(t *testing.T) {
	cfg, ref, framed := recordedCheckpoint(t)
	var header checkpointFile
	entries, _, err := durable.DecodeKeyed[checkpointEntry](framed, &header)
	if err != nil {
		t.Fatal(err)
	}
	// oldRecord frames one entry as earlier builds wrote it, with
	// "energy" right after "spills".
	oldRecord := func(buf []byte, i int) []byte {
		key := checkpointKey(ref.Candidates[i].Arch)
		entry, ok := entries[key]
		if !ok {
			t.Fatalf("recorded checkpoint has no entry %q", key)
		}
		rec, err := json.Marshal(&struct {
			Key   string          `json:"k"`
			Entry checkpointEntry `json:"e"`
		}{key, entry})
		if err != nil {
			t.Fatal(err)
		}
		spills := []byte(fmt.Sprintf(`"spills":%d`, entry.Spills))
		return durable.AppendRecord(buf, bytes.Replace(rec, spills, append(spills, `,"energy":0`...), 1))
	}
	head, err := json.Marshal(&header)
	if err != nil {
		t.Fatal(err)
	}
	type shardBlock struct {
		Shards int `json:"shards"`
		Index  int `json:"index"`
		Lo     int `json:"lo"`
		Hi     int `json:"hi"`
		Total  int `json:"total"`
	}
	// Worker 1 of a two-process fan-out evaluated candidate 1 of 2.
	shardHead, err := json.Marshal(struct {
		checkpointFile
		Shard shardBlock `json:"shard"`
	}{header, shardBlock{Shards: 2, Index: 1, Lo: 1, Hi: 2, Total: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(shardHead, []byte(`,"shard":{"shards":2,"index":1,"lo":1,"hi":2,"total":2}}`)) {
		t.Fatalf("header is not in the shard format: %s", shardHead)
	}
	for _, old := range []struct {
		name    string
		data    []byte
		entries int
	}{
		{"energy", oldRecord(oldRecord(durable.AppendRecord(nil, head), 0), 1), 2},
		{"shard", oldRecord(durable.AppendRecord(nil, shardHead), 1), 1},
	} {
		t.Run(old.name, func(t *testing.T) {
			if n := bytes.Count(old.data, []byte(`"energy":0`)); n != old.entries {
				t.Fatalf("the old file carries %d energy keys, want one per entry (%d)", n, old.entries)
			}
			path := filepath.Join(t.TempDir(), old.name+".ckpt")
			if err := os.WriteFile(path, old.data, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c := cfg
			c.Obs = reg
			ck, err := OpenCheckpoint(path, c)
			if err != nil {
				t.Fatalf("opening the old checkpoint: %v", err)
			}
			if ck.Len() != old.entries {
				t.Fatalf("old checkpoint restored %d entries, want %d", ck.Len(), old.entries)
			}
			c.Checkpoint = ck
			res, err := ExploreContext(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, ref, res)
			if got := reg.Counter("dse.checkpoint.restored").Value(); got != int64(old.entries) {
				t.Fatalf("dse.checkpoint.restored = %d, want %d", got, old.entries)
			}
			flushed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{`"shard"`, `"energy"`} {
				if bytes.Contains(flushed, []byte(key)) {
					t.Fatalf("the flush kept %s: %q", key, flushed)
				}
			}
			if !bytes.Equal(flushed, framed) {
				t.Fatalf("flushed file differs from a cold run's:\n%q\nvs\n%q", flushed, framed)
			}
		})
	}
}

// TestCheckpointSpecHashBinding pins the spec_hash header check: a file
// and a run that both carry a hash must agree on it, while a file or a
// run without one stays loadable.
func TestCheckpointSpecHashBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hashed.ckpt")
	cfg := twoCandConfig(t)
	cfg.SpecHash = "aaaaaaaaaaaaaaaa"
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	other := twoCandConfig(t)
	other.SpecHash = "bbbbbbbbbbbbbbbb"
	ck, err = OpenCheckpoint(path, other)
	var mm *CheckpointMismatchError
	if !errors.As(err, &mm) || mm.Field != "spec hash" {
		t.Fatalf("different spec hash: err = %v, want a spec hash mismatch", err)
	}
	if ck.Len() != 0 {
		t.Fatalf("mismatched open kept %d entries", ck.Len())
	}
	if ck, err := OpenCheckpoint(path, twoCandConfig(t)); err != nil || ck.Len() != 2 {
		t.Fatalf("hashless run, hashed file: %d entries, err %v; want 2 and nil", ck.Len(), err)
	}

	hashless, _, framed := recordedCheckpoint(t)
	plain := filepath.Join(t.TempDir(), "plain.ckpt")
	if err := os.WriteFile(plain, framed, 0o644); err != nil {
		t.Fatal(err)
	}
	hashless.SpecHash = "aaaaaaaaaaaaaaaa"
	if ck, err := OpenCheckpoint(plain, hashless); err != nil || ck.Len() != 2 {
		t.Fatalf("hashed run, hashless file: %d entries, err %v; want 2 and nil", ck.Len(), err)
	}
}

// TestCheckpointPeriodicFlushesCanonical reads the checkpoint file at
// every candidate event of a serial sweep, so it sees each periodic
// flush. Every flushed file must decode cleanly, be byte for byte what
// durable.EncodeKeyed writes for its own header and entries, keep every
// entry of the flush before it with the same value, and hold exactly
// the 16·k entries recorded up to the last flush.
func TestCheckpointPeriodicFlushesCanonical(t *testing.T) {
	cfg := smallConfig(t)
	def, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.RFSets, cfg.Assigns = def.RFSets, def.Assigns
	cfg.Buses = []int{1, 2, 3, 4}
	cfg.Parallelism = 1
	path := filepath.Join(t.TempDir(), "flushes.ckpt")
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	var (
		prev    map[string]checkpointEntry
		flushes int
	)
	cfg.EventSink = func(ev Event) {
		if ev.Kind != EventCandidate {
			return
		}
		flushed := ev.N / checkpointFlushEvery * checkpointFlushEvery
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) && flushed == 0 {
			return
		}
		if err != nil {
			t.Errorf("after candidate %d: %v", ev.N, err)
			return
		}
		var head checkpointFile
		entries, rec, err := durable.DecodeKeyed[checkpointEntry](data, &head)
		if err != nil || rec != (durable.Recovery{}) {
			t.Errorf("after candidate %d: decode error %v, recovery %+v", ev.N, err, rec)
			return
		}
		canon, err := durable.EncodeKeyed(&head, entries)
		if err != nil || !bytes.Equal(data, canon) {
			t.Errorf("after candidate %d: the file is not the encoding of its own entries (%v)", ev.N, err)
		}
		if len(entries) != flushed {
			t.Errorf("after candidate %d: the file holds %d entries, want %d", ev.N, len(entries), flushed)
		}
		for k, v := range prev {
			if got, ok := entries[k]; !ok || got != v {
				t.Errorf("after candidate %d: entry %q = %+v (present %t), the previous flush had %+v", ev.N, k, got, ok, v)
			}
		}
		if len(entries) > len(prev) {
			flushes++
		}
		prev = entries
	}
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Candidates); n < 3*checkpointFlushEvery || flushes != n/checkpointFlushEvery {
		t.Fatalf("%d candidates, %d periodic flushes seen, want at least 48 candidates and one flush per 16", n, flushes)
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if got, ok := prev[checkpointKey(c.Arch)]; ok && got != toCheckpointEntry(c) {
			t.Errorf("candidate %d: flushed entry %+v, evaluated %+v", i, got, toCheckpointEntry(c))
		}
	}
}

// TestCheckpointFlushAllocs bounds what one periodic flush of a
// 288-entry checkpoint allocates: the entry records are encoded when
// recorded, so a flush copies them into one buffer, and its allocations
// are the record map, the sorted keys, the header record, the buffer
// and the atomic file write (18 with Go 1.24). Re-encoding every entry
// at every flush made about 1,200.
func TestCheckpointFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "allocs.ckpt"), smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 288; i++ {
		c := Candidate{Feasible: true, Area: 1000 + float64(i)/7, Cycles: 300 + i, Clock: 2.5,
			ExecTime: 2.5 * float64(300+i), TestCost: 40 + i, FullScan: 90 + i, Spills: i % 3}
		if i%5 == 0 {
			c = Candidate{Reason: "infeasible: no route"}
		}
		if err := ck.record(fmt.Sprintf("b%d/a%d/c1|arch-%03d", 1+i%4, 1+i%2, i), &c); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, ck.Flush)
	t.Logf("%.0f allocations per flush of %d entries", allocs, ck.Len())
	if allocs > 30 {
		t.Errorf("a flush allocates %.0f times, want at most 30", allocs)
	}
}
