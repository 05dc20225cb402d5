// Checkpoint/resume for long explorations: completed candidate
// evaluations are periodically persisted to a versioned JSON file, so a
// run killed mid-sweep (power loss, OOM, operator ^C) resumes from the
// finished prefix instead of re-measuring every gate-level ATPG run.
//
// On disk a checkpoint is a keyed artifact of package durable
// (durable.EncodeKeyed/DecodeKeyed): a checkpointFile header and one
// checkpointEntry per candidate key, written through an
// fsync-before-rename atomic path. Each entry's record is encoded once,
// when the entry is recorded or restored, and every flush joins the
// kept records (durable.JoinKeyed) into the bytes EncodeKeyed would
// write. A torn or bit-flipped file loads its longest valid record
// prefix — the run resumes from the last intact evaluation instead of
// going cold. Pre-CRC files still load, flagged by a legacy-format
// warning; files that yield no usable prefix are quarantined as
// *.corrupt and reported as a typed durable.CorruptArtifactError.
//
// The file is keyed by everything that determines a candidate's value:
// the checkpoint format version, the gate-level library generation
// (gatelib.LibraryKey), the data-path width, the ATPG seed and a weak
// workload signature (name, width, input and op counts, repetitions).
// Entries are keyed by structKey(arch) plus the architecture name —
// the name embeds the enumeration id, the structure knobs and the
// port-assignment strategy, so no two distinct candidates collide and a
// resumed run restores exactly the evaluations it would have recomputed.
//
// Every persisted field round-trips exactly through JSON (integers, and
// floats via Go's shortest-representation encoding), so a resumed
// exploration is byte-identical to an uninterrupted one.
package dse

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// CheckpointFormatVersion is the on-disk checkpoint format version.
// Bump it whenever the entry layout or the meaning of a field changes.
const CheckpointFormatVersion = 1

// checkpointFlushEvery bounds the work lost to a crash: the file is
// rewritten after this many newly recorded evaluations (and once more on
// completion).
const checkpointFlushEvery = 16

// checkpointFile is the checkpoint's header. SpecHash was added without
// bumping the format version: it is omitempty, so a file written before
// it decodes as a checkpoint with an unknown spec, exactly what it is.
// Files written by the process-sharded workers of earlier builds carry
// an extra "shard" header block; decoding ignores it, so such a file
// opens as a partial checkpoint whose entries are exactly evaluations
// this run would compute, and the next flush drops the block.
type checkpointFile struct {
	Version  int    `json:"version"`
	Library  string `json:"library"`
	Width    int    `json:"width"`
	Seed     int64  `json:"seed"`
	Workload string `json:"workload"`

	// SpecHash is jobspec.Spec.Hash() of the job that wrote the file —
	// the result identity, independent of parallelism and I/O paths.
	// Empty when the writer predates the field or ran outside a spec
	// (direct Config use).
	SpecHash string `json:"spec_hash,omitempty"`
}

// checkpointEntry is one completed candidate evaluation — every
// Candidate field except the architecture pointer, which the resuming
// run re-derives from the (deterministic) enumeration. Entries written
// by earlier builds carry an "energy" key, 0 unless an energy model was
// attached to the exploration; decoding ignores it, so such a file
// loads without a format version bump, and the next flush drops it.
type checkpointEntry struct {
	Feasible bool    `json:"feasible"`
	Reason   string  `json:"reason,omitempty"`
	Area     float64 `json:"area"`
	Cycles   int     `json:"cycles"`
	Clock    float64 `json:"clock"`
	ExecTime float64 `json:"exec_time"`
	TestCost int     `json:"test_cost"`
	FullScan int     `json:"full_scan"`
	Spills   int     `json:"spills"`
	Degraded bool    `json:"degraded,omitempty"`
}

func toCheckpointEntry(c *Candidate) checkpointEntry {
	return checkpointEntry{
		Feasible: c.Feasible, Reason: c.Reason,
		Area: c.Area, Cycles: c.Cycles, Clock: c.Clock, ExecTime: c.ExecTime,
		TestCost: c.TestCost, FullScan: c.FullScan, Spills: c.Spills,
		Degraded: c.Degraded,
	}
}

// candidate reconstitutes the evaluation for arch.
func (e checkpointEntry) candidate(arch *tta.Architecture) Candidate {
	return Candidate{
		Arch:     arch,
		Feasible: e.Feasible, Reason: e.Reason,
		Area: e.Area, Cycles: e.Cycles, Clock: e.Clock, ExecTime: e.ExecTime,
		TestCost: e.TestCost, FullScan: e.FullScan, Spills: e.Spills,
		Degraded: e.Degraded,
	}
}

// checkpointSlot is one checkpoint entry with its framed record, encoded
// once (durable.EncodeKeyedRecord) and copied into every later flush.
type checkpointSlot struct {
	entry  checkpointEntry
	record []byte
}

// checkpointKey identifies one candidate: the structural signature plus
// the architecture name (which embeds the enumeration id and the
// port-assignment variant).
func checkpointKey(a *tta.Architecture) string {
	return structKey(a) + "|" + a.Name
}

// CheckpointMismatchError reports a structurally valid checkpoint file
// written by a different exploration (library generation, width, seed or
// workload). The returned Checkpoint starts fresh; callers typically
// warn and let the run overwrite the file.
type CheckpointMismatchError struct {
	Field string
	Want  string
	Got   string
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("dse: checkpoint %s mismatch: file has %s, run wants %s", e.Field, e.Got, e.Want)
}

// CheckpointCorruptError reports a checkpoint file that could not be
// decoded or failed structural validation. The returned Checkpoint
// starts fresh; callers typically warn and let the run overwrite it.
type CheckpointCorruptError struct {
	Reason string
	Err    error
}

func (e *CheckpointCorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dse: corrupt checkpoint (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("dse: corrupt checkpoint (%s)", e.Reason)
}

func (e *CheckpointCorruptError) Unwrap() error { return e.Err }

// Checkpoint persists completed candidate evaluations across runs.
// Obtain one with OpenCheckpoint and hand it to Config.Checkpoint; the
// exploration restores matching entries before evaluating and records
// new ones as workers finish (flushing every few completions and once at
// the end). Methods are safe for concurrent use by the worker pool.
type Checkpoint struct {
	mu         sync.Mutex
	flushMu    sync.Mutex // serializes flush snapshot+write; acquired before mu, never while holding it
	path       string
	header     checkpointFile
	entries    map[string]checkpointSlot
	sinceFlush int
	// encodeErr is the error of the first entry that failed to encode;
	// every flush fails with it, as a flush encoding that entry would.
	encodeErr error

	// warnings lists what OpenCheckpoint recovered, quarantined or
	// ignored; read-only once opened. ExploreContext streams them.
	warnings []string

	obs    *obs.Registry
	inject *faultinject.Injector
}

// workloadSignature is the weak identity a checkpoint binds to: enough
// to reject a file recorded against a different kernel without hashing
// the whole graph.
func workloadSignature(cfg *Config) string {
	g := cfg.Workload
	if g == nil {
		return fmt.Sprintf("default/reps%d", cfg.WorkloadReps)
	}
	return fmt.Sprintf("%s/w%d/in%d/ops%d/reps%d", g.Name, g.Width, g.NumInputs(), g.NumOps(), cfg.WorkloadReps)
}

// OpenCheckpoint opens (or initializes) the checkpoint file at path for
// an exploration under cfg. A missing file yields a fresh checkpoint and
// a nil error. A header mismatch or a corrupt file also yields a usable
// fresh checkpoint, alongside a *CheckpointMismatchError or
// *CheckpointCorruptError — the stale file is overwritten at the first
// flush. The Checkpoint keeps that error, and any torn-tail or
// legacy-format notice, as warnings for the runs that use it.
func OpenCheckpoint(path string, cfg Config) (ck *Checkpoint, err error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ck = &Checkpoint{
		path: path,
		header: checkpointFile{
			Version:  CheckpointFormatVersion,
			Library:  gatelib.LibraryKey,
			Width:    cfg.Width,
			Seed:     cfg.Seed,
			Workload: workloadSignature(&cfg),
			SpecHash: cfg.SpecHash,
		},
		entries: make(map[string]checkpointSlot),
		obs:     cfg.Obs,
		inject:  cfg.Inject,
	}
	defer func() {
		if err != nil {
			ck.warnings = append(ck.warnings, err.Error())
		}
	}()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return ck, &CheckpointCorruptError{Reason: "read", Err: err}
	}
	var f checkpointFile
	entries, rec, derr := durable.DecodeKeyed[checkpointEntry](data, &f)
	reg := ck.obs
	if rec.CRCFail {
		reg.Counter("durability.crc_fail").Inc()
	}
	if derr != nil {
		return ck, ck.quarantine(&CheckpointCorruptError{Reason: "decode", Err: derr})
	}
	for _, m := range []struct{ field, want, got string }{
		{"format version", fmt.Sprint(ck.header.Version), fmt.Sprint(f.Version)},
		{"library key", ck.header.Library, f.Library},
		{"width", fmt.Sprint(ck.header.Width), fmt.Sprint(f.Width)},
		{"seed", fmt.Sprint(ck.header.Seed), fmt.Sprint(f.Seed)},
		{"workload", ck.header.Workload, f.Workload},
	} {
		if m.want != m.got {
			return ck, &CheckpointMismatchError{Field: m.field, Want: m.want, Got: m.got}
		}
	}
	// Spec hashes bind only when both sides carry one: files written
	// before the field existed (or by direct Config runs) have no hash
	// and stay loadable, guarded by the weaker header fields above.
	if ck.header.SpecHash != "" && f.SpecHash != "" && ck.header.SpecHash != f.SpecHash {
		return ck, &CheckpointMismatchError{Field: "spec hash", Want: ck.header.SpecHash, Got: f.SpecHash}
	}
	// A restored entry's record is encoded here, from the decoded entry,
	// so the next flush writes this build's form of it: a legacy file is
	// rewritten framed and an old "energy" key is dropped.
	slots := make(map[string]checkpointSlot, len(entries))
	for k, e := range entries {
		err := validCheckpointEntry(e)
		var rec []byte
		if err == nil {
			rec, err = durable.EncodeKeyedRecord(k, e)
		}
		if err != nil {
			return ck, ck.quarantine(&CheckpointCorruptError{Reason: fmt.Sprintf("entry %q", k), Err: err})
		}
		slots[k] = checkpointSlot{entry: e, record: rec}
	}
	ck.entries = slots
	if rec.Torn {
		reg.Counter("durability.prefix_recovered").Inc()
		ck.warnings = append(ck.warnings, fmt.Sprintf(
			"checkpoint %s was torn (%s); recovered %d entries from the valid prefix", path, rec.Cause, len(entries)))
	}
	if rec.Legacy {
		reg.Counter("durability.legacy_loads").Inc()
		ck.warnings = append(ck.warnings, fmt.Sprintf(
			"checkpoint %s is in the legacy (pre-CRC) format; the next flush rewrites it framed", path))
	}
	return ck, nil
}

// quarantine moves an irrecoverable checkpoint file out of the way (to
// <path>.corrupt, preserving the evidence) and wraps cause in a
// *durable.CorruptArtifactError — the typed replacement for silently
// overwriting a damaged file at the next flush. errors.As still finds
// the wrapped *CheckpointCorruptError.
func (ck *Checkpoint) quarantine(cause *CheckpointCorruptError) error {
	ck.obs.Counter("durability.quarantined").Inc()
	return durable.Quarantine(ck.path, "checkpoint", cause)
}

// validCheckpointEntry rejects values no honest flush could have
// produced — the structural screen behind CheckpointCorruptError.
func validCheckpointEntry(e checkpointEntry) error {
	if e.Cycles < 0 || e.TestCost < 0 || e.FullScan < 0 || e.Spills < 0 {
		return fmt.Errorf("negative count")
	}
	for _, v := range [...]float64{e.Area, e.Clock, e.ExecTime} {
		if v != v || v < 0 { // NaN or negative
			return fmt.Errorf("invalid float %v", v)
		}
	}
	if e.Feasible && e.Reason != "" {
		return fmt.Errorf("feasible entry carries an infeasibility reason")
	}
	return nil
}

// Len reports how many completed evaluations the checkpoint holds.
func (ck *Checkpoint) Len() int {
	if ck == nil {
		return 0
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.entries)
}

// bind attaches the exploration's observability registry and injector
// (ExploreContext calls it after fillDefaults, so a checkpoint opened
// before the registry existed still counts restores and flush failures).
func (ck *Checkpoint) bind(reg *obs.Registry, inj *faultinject.Injector) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	if ck.obs == nil {
		ck.obs = reg
	}
	if ck.inject == nil {
		ck.inject = inj
	}
	ck.mu.Unlock()
}

// lookup returns the persisted evaluation for key, if any.
func (ck *Checkpoint) lookup(key string) (checkpointEntry, bool) {
	if ck == nil {
		return checkpointEntry{}, false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	s, ok := ck.entries[key]
	return s.entry, ok
}

// record persists one completed evaluation, rewriting the file every
// checkpointFlushEvery new entries, and returns that rewrite's error.
// The worker reports it as a warning on the run's stream, never as a
// run failure: the exploration's result does not depend on the file.
// The entry's record is encoded here, outside the lock, and never again.
func (ck *Checkpoint) record(key string, c *Candidate) error {
	if ck == nil {
		return nil
	}
	e := toCheckpointEntry(c)
	rec, encErr := durable.EncodeKeyedRecord(key, e)
	ck.mu.Lock()
	if _, ok := ck.entries[key]; !ok {
		ck.entries[key] = checkpointSlot{entry: e, record: rec}
		if ck.encodeErr == nil {
			ck.encodeErr = encErr
		}
		ck.sinceFlush++
	}
	flush := ck.sinceFlush >= checkpointFlushEvery
	if flush {
		ck.sinceFlush = 0
	}
	ck.mu.Unlock()
	if flush {
		return ck.flushCounted(false)
	}
	return nil
}

// Flush rewrites the checkpoint file the way the periodic flushes of a
// run do. A failure is counted on "dse.checkpoint.write_errors" and
// otherwise dropped: losing a mid-run checkpoint write must never kill
// the run it exists to protect. Periodic flushes skip the
// parent-directory fsync (it dominates the write cost, and an un-synced
// rename merely resurfaces the previous intact version after a power
// cut); use FlushErr where the file is a deliverable.
func (ck *Checkpoint) Flush() { ck.flushCounted(false) }

// FlushErr rewrites the checkpoint file through the fully durable path
// (framed records, unique temp file, fsync, rename, directory fsync) and
// returns the write error, counted like Flush's. Every exploration that
// reaches its evaluations ends with it, cut short or not, before its
// "done" event: the file is what a resumed run, or a restarted daemon,
// starts from.
func (ck *Checkpoint) FlushErr() error { return ck.flushCounted(true) }

func (ck *Checkpoint) flushCounted(dirSync bool) error {
	if ck == nil {
		return nil
	}
	err := ck.flush(dirSync)
	if err != nil {
		ck.obs.Counter("dse.checkpoint.write_errors").Inc()
	}
	return err
}

func (ck *Checkpoint) flush(dirSync bool) error {
	// flushMu is held across snapshot + write so concurrent flushes land
	// in snapshot order and the file's entry set only ever grows.
	ck.flushMu.Lock()
	defer ck.flushMu.Unlock()
	ck.mu.Lock()
	head := ck.header
	records := make(map[string][]byte, len(ck.entries))
	for k, s := range ck.entries {
		records[k] = s.record
	}
	inj, err := ck.inject, ck.encodeErr
	ck.mu.Unlock()
	if err != nil {
		return err
	}
	data, err := durable.JoinKeyed(&head, records)
	if err != nil {
		return err
	}
	if dirSync {
		return durable.WriteFileAtomic(ck.path, data, inj, faultinject.Checkpoint)
	}
	return durable.WriteFileAtomicNoDirSync(ck.path, data, inj, faultinject.Checkpoint)
}
