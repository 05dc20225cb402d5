// Package durable is the engine's crash-safe persistence layer: every
// artifact that outlives a process (dse checkpoints, the testcost
// warm-annotation cache) is written through it and read back through
// it.
//
// Three primitives:
//
//   - Record framing. An artifact is a sequence of newline-delimited
//     records, each a single-line payload followed by a CRC32C
//     (Castagnoli) trailer over the payload bytes. A reader walks the
//     records in order and stops at the first damage — a missing
//     newline, a malformed trailer, a checksum mismatch — so a torn or
//     bit-flipped file yields its longest valid record prefix instead
//     of nothing. ScanRecords reports exactly how the walk ended.
//
//   - The keyed-artifact codec. Both artifacts are a header plus a map
//     of keyed entries, and EncodeKeyed/DecodeKeyed are the only code
//     that knows their layout: one compact JSON header record, then one
//     {"k":key,"e":entry} record per entry in ascending key order.
//     EncodeKeyed is JoinKeyed over each entry's EncodeKeyedRecord, and
//     a writer that rewrites a growing artifact (a checkpoint) keeps
//     each entry's record and joins the kept records instead.
//     DecodeKeyed also reads the pre-CRC whole-document form (the
//     header's fields plus an "entries" object) and reports how it read
//     a file in a Recovery; callers decide whether a prefix is usable (a
//     checkpoint resumes from it, a cache warm-starts from it).
//
//   - Atomic, synced file replacement. WriteFileAtomic writes to a
//     unique temp file in the destination directory, fsyncs the file,
//     renames it over the destination and fsyncs the parent directory —
//     the write either fully happens or leaves the old file untouched,
//     even across power loss. The fault-injection hook lets chaos tests
//     land a deliberately torn prefix at the final path (ModeTornWrite),
//     which is the disk state the record framing exists to survive.
//
// Files that cannot yield even a valid prefix are quarantined: renamed
// to <path>.corrupt and reported as a *CorruptArtifactError, a typed
// error that carries the artifact kind, the quarantine destination and
// the underlying cause — so operators see corruption in metrics and on
// disk, never as a silently overwritten file or a lost stderr line.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/faultinject"
)

// castagnoli is the CRC32C polynomial table; CRC32C is hardware-
// accelerated on amd64/arm64, so the per-record cost on the checkpoint
// hot path is a table-free instruction stream.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// trailerMark separates a record's payload from its checksum trailer.
// The payload must not contain a newline; the trailer is always exactly
// len(trailerMark)+8 bytes ("…payload #c=1a2b3c4d\n").
const trailerMark = " #c="

// trailerLen is the byte length of a record trailer without the newline.
const trailerLen = len(trailerMark) + 8

// Checksum returns the CRC32C of payload — exported so tests and tools
// can frame records by hand.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// AppendRecord appends one framed record (payload, trailer, newline) to
// dst and returns the extended slice. The payload must be a single line;
// embedded newlines would desynchronize the reader and are rejected by
// ScanRecords on the way back in.
func AppendRecord(dst, payload []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], Checksum(payload))
	dst = append(dst, payload...)
	dst = append(dst, trailerMark...)
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, '\n')
}

// TornRecordError reports where and why a record walk stopped before the
// end of the data. Reason is one of "no newline" (torn tail), "no
// trailer" (framing damage) or "crc mismatch" (bit rot); Offset is the
// byte position of the first damaged record.
type TornRecordError struct {
	Reason string
	Offset int
}

func (e *TornRecordError) Error() string {
	return fmt.Sprintf("durable: damaged record at byte %d (%s)", e.Offset, e.Reason)
}

// ScanRecords walks data record by record and returns every payload up
// to the first damage. A nil torn return means the data was fully valid;
// otherwise torn describes the first damaged record and dropped is how
// many bytes after the valid prefix were discarded. The payload slices
// alias data.
func ScanRecords(data []byte) (payloads [][]byte, dropped int, torn *TornRecordError) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return payloads, len(data) - off, &TornRecordError{Reason: "no newline", Offset: off}
		}
		line := data[off : off+nl]
		if len(line) < trailerLen {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		payload, trailer := line[:len(line)-trailerLen], line[len(line)-trailerLen:]
		if string(trailer[:len(trailerMark)]) != trailerMark {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		var want [4]byte
		if _, err := hex.Decode(want[:], trailer[len(trailerMark):]); err != nil {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		if Checksum(payload) != binary.BigEndian.Uint32(want[:]) {
			return payloads, len(data) - off, &TornRecordError{Reason: "crc mismatch", Offset: off}
		}
		payloads = append(payloads, payload)
		off += nl + 1
	}
	return payloads, 0, nil
}

// IsFramed reports whether data starts with a record trailer on its
// first line — the cheap format probe that distinguishes CRC-framed
// artifacts from legacy whole-document JSON. Damage to the first line
// makes this return false; the caller's legacy parse then fails and the
// file is quarantined, which is the right answer for a file whose very
// first record is unreadable.
func IsFramed(data []byte) bool {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		nl = len(data)
	}
	line := data[:nl]
	if len(line) < trailerLen {
		return false
	}
	return bytes.Equal(line[len(line)-trailerLen:len(line)-8], []byte(trailerMark))
}

// WriteFileAtomic replaces path with data, surviving a crash at any
// instant: the bytes are written to a unique temp file in path's
// directory, fsynced, renamed over path, and the directory entry is
// fsynced too. On any failure the previous file (if any) is intact and
// the temp file is removed.
//
// inj/point are the fault-injection hook: a firing ModeTornWrite plan
// makes this call write only the plan's prefix fraction of data straight
// to path — non-atomically, simulating the torn on-disk state a real
// tear leaves — and return the *TornWriteError. Other injected errors
// fail the write without touching path. A nil injector costs one
// pointer test.
func WriteFileAtomic(path string, data []byte, inj *faultinject.Injector, point faultinject.Point) error {
	return writeFileAtomic(path, data, inj, point, true)
}

// WriteFileAtomicNoDirSync is WriteFileAtomic minus the final parent-
// directory fsync — for high-frequency rewrites of one path (periodic
// checkpoint flushes), where the directory fsync dominates the write
// cost and losing a rename's directory entry to a power cut merely
// resurfaces the previous intact version of the file. The payload fsync
// before the rename stays: a rename must never land ahead of the data
// it names. Writers of record (a worker's final flush, a daemon drain)
// should use the full WriteFileAtomic.
func WriteFileAtomicNoDirSync(path string, data []byte, inj *faultinject.Injector, point faultinject.Point) error {
	return writeFileAtomic(path, data, inj, point, false)
}

func writeFileAtomic(path string, data []byte, inj *faultinject.Injector, point faultinject.Point, dirSync bool) error {
	if err := inj.Hit(point); err != nil {
		var torn *faultinject.TornWriteError
		if errors.As(err, &torn) {
			n := int(float64(len(data)) * torn.Frac)
			// Deliberately non-atomic: the tear must land at the final
			// path for the recovery path to have something to recover.
			_ = os.WriteFile(path, data[:n], 0o644)
		}
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if dirSync {
		syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems (and most non-Linux platforms)
// reject directory fsync, and the rename itself already happened — the
// durability loss is bounded to the metadata, so errors are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// keyedRecord is one entry record of a keyed artifact: the entry's key
// and value, compact JSON on a single line.
type keyedRecord[E any] struct {
	Key   string `json:"k"`
	Entry E      `json:"e"`
}

// EncodeKeyed renders a keyed artifact in the framed format: header
// marshalled as one compact JSON record, then one {"k","e"} record per
// entry in ascending key order, so equal content encodes to equal bytes.
// It is JoinKeyed over each entry's EncodeKeyedRecord.
func EncodeKeyed[E any](header any, entries map[string]E) ([]byte, error) {
	records := make(map[string][]byte, len(entries))
	for k, e := range entries {
		rec, err := EncodeKeyedRecord(k, e)
		if err != nil {
			return nil, err
		}
		records[k] = rec
	}
	return JoinKeyed(header, records)
}

// EncodeKeyedRecord returns the framed {"k":key,"e":entry} record that
// EncodeKeyed writes for one entry. A writer that rewrites an artifact
// as it grows (a checkpoint) encodes each entry once, keeps the record
// and hands all of them to JoinKeyed at every rewrite.
func EncodeKeyedRecord[E any](key string, entry E) ([]byte, error) {
	p, err := json.Marshal(&keyedRecord[E]{Key: key, Entry: entry})
	if err != nil {
		return nil, err
	}
	return AppendRecord(make([]byte, 0, len(p)+trailerLen+1), p), nil
}

// JoinKeyed renders a keyed artifact from its entries' records, each
// made by EncodeKeyedRecord under its key: the header as one compact
// JSON record, then records[k] for every key k in ascending order —
// the bytes EncodeKeyed writes for the entries the records encode.
func JoinKeyed(header any, records map[string][]byte) ([]byte, error) {
	head, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(records))
	size := len(head) + trailerLen + 1
	for k, rec := range records {
		keys = append(keys, k)
		size += len(rec)
	}
	slices.Sort(keys)
	buf := AppendRecord(make([]byte, 0, size), head)
	for _, k := range keys {
		buf = append(buf, records[k]...)
	}
	return buf, nil
}

// Recovery describes how DecodeKeyed read a file: which format it was
// in and whether (and why) only a record prefix survived.
type Recovery struct {
	Legacy  bool   // whole-document pre-CRC format
	Torn    bool   // framed, but only a record prefix was valid
	CRCFail bool   // the damage was a checksum mismatch (bit rot)
	Cause   string // human-readable damage description, "" when clean
}

// DecodeKeyed reads a keyed artifact written by EncodeKeyed, or a
// pre-CRC whole-document one, unmarshalling the header into header (a
// pointer) and returning the entries. Framed damage — a torn tail, a
// checksum failure, or a checksum-valid entry record that does not
// parse — stops the walk and is reported in the Recovery; the entries
// read before it stand. The error return is reserved for files that
// yield nothing usable: an unparseable legacy document, no intact first
// record, or a header record that does not parse.
func DecodeKeyed[E any](data []byte, header any) (map[string]E, Recovery, error) {
	var rec Recovery
	if !IsFramed(data) {
		rec.Legacy = true
		var doc struct {
			Entries map[string]E `json:"entries"`
		}
		if err := json.Unmarshal(data, header); err != nil {
			return nil, rec, err
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, rec, err
		}
		return doc.Entries, rec, nil
	}
	payloads, _, torn := ScanRecords(data)
	if torn != nil {
		rec.Torn = true
		rec.CRCFail = torn.Reason == "crc mismatch"
		rec.Cause = torn.Error()
	}
	if len(payloads) == 0 {
		return nil, rec, fmt.Errorf("no intact record (%s)", rec.Cause)
	}
	if err := json.Unmarshal(payloads[0], header); err != nil {
		// A checksum-valid but unparseable header is a writer bug, not
		// tearing — nothing to resume from.
		return nil, rec, fmt.Errorf("header record: %w", err)
	}
	entries := make(map[string]E, len(payloads)-1)
	for _, p := range payloads[1:] {
		var r keyedRecord[E]
		if err := json.Unmarshal(p, &r); err != nil {
			rec.Torn = true
			rec.Cause = fmt.Sprintf("unparseable entry record: %v", err)
			break
		}
		entries[r.Key] = r.Entry
	}
	return entries, rec, nil
}

// CorruptArtifactError reports a persisted artifact that could not yield
// even a valid record prefix and was quarantined (renamed to
// QuarantinedTo) so the evidence survives while the writer starts fresh.
// It wraps the artifact-specific typed error (e.g.
// *dse.CheckpointCorruptError), so existing errors.As call sites keep
// matching.
type CorruptArtifactError struct {
	Artifact      string // "checkpoint", "annotation cache", ...
	Path          string
	QuarantinedTo string // empty if the quarantine rename itself failed
	Err           error
}

func (e *CorruptArtifactError) Error() string {
	if e.QuarantinedTo != "" {
		return fmt.Sprintf("durable: corrupt %s %s quarantined to %s: %v", e.Artifact, e.Path, e.QuarantinedTo, e.Err)
	}
	return fmt.Sprintf("durable: corrupt %s %s (quarantine failed): %v", e.Artifact, e.Path, e.Err)
}

func (e *CorruptArtifactError) Unwrap() error { return e.Err }

// Quarantine renames path to path+".corrupt" (replacing any previous
// quarantine of the same file) and returns the *CorruptArtifactError
// that reports it, wrapping cause. QuarantinedTo stays empty when the
// rename fails: the evidence could not be preserved.
func Quarantine(path, artifact string, cause error) *CorruptArtifactError {
	e := &CorruptArtifactError{Artifact: artifact, Path: path, Err: cause}
	if os.Rename(path, path+".corrupt") == nil {
		e.QuarantinedTo = path + ".corrupt"
	}
	return e
}
