// Process-sharded exploration: the candidate list is a pure function of
// the Config (exhaustive enumeration, or the GA screen whose rng lives
// on the control thread and whose cheap tier is a pure function of the
// netlist), so N worker processes can each derive the identical list,
// evaluate a deterministic contiguous slice of it, and persist the
// result as a shard checkpoint (Config.Shard + OpenCheckpoint). This
// file is the other half: MergeExploreContext re-derives the list,
// validates that the shard files tile the candidate space exactly, and
// rebuilds fronts and selection in canonical index order — so the merged
// result is byte-identical to the unsharded run at any topology.
package dse

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/gatelib"
	"repro/internal/pareto"
	"repro/internal/tta"
)

// ShardRange names one worker's slot in a process-sharded exploration:
// the run evaluates candidates [Index*total/Count, (Index+1)*total/Count)
// of the deterministic candidate list.
type ShardRange struct {
	Count int // number of shards (>= 1)
	Index int // this worker's shard, in [0, Count)
}

// shardBounds returns the contiguous candidate range of one shard. The
// classic balanced split: ranges tile [0, total) exactly, sizes differ
// by at most one, and every process computes the same answer from the
// same three integers.
func shardBounds(total, count, index int) (lo, hi int) {
	return index * total / count, (index + 1) * total / count
}

// ShardMergeError reports a shard checkpoint file the merge rejected.
type ShardMergeError struct {
	Path   string
	Reason string
	Err    error
}

func (e *ShardMergeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dse: shard checkpoint %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("dse: shard checkpoint %s: %s", e.Path, e.Reason)
}

func (e *ShardMergeError) Unwrap() error { return e.Err }

// MergeExploreContext merges the shard checkpoint files written by the
// workers of a sharded exploration of cfg into one complete Result,
// byte-identical (through core.Study.JSONResult, and in every exported
// field) to what an unsharded ExploreContext of the same cfg returns.
//
// The merge re-derives the candidate list from cfg, demands that the
// files' shard ranges tile it exactly (duplicated, overlapping or
// missing ranges are rejected, as is an incomplete shard — resume that
// worker from its own checkpoint first), reconstitutes every candidate,
// and rebuilds the fronts through pareto.StreamingFront in ascending
// candidate order. StreamingFront keeps duplicate coordinate vectors and
// returns IDs in ascending order — exactly the batch pareto.Front +
// sort convention of the unsharded path, which is what makes the fronts
// (and hence selection) identical.
//
// Each reconstituted candidate is announced on cfg.EventSink as an
// EventRestored (canonical index order), followed by the usual single
// EventDone, so live-front consumers see a merge exactly like a resumed
// run. cfg.Checkpoint is ignored; cfg.Shard must be nil.
func MergeExploreContext(ctx context.Context, cfg Config, paths []string) (*Result, error) {
	em := newEmitter(cfg.EventSink)
	nEvents := &atomic.Int64{}
	total := 0
	defer func() {
		em.emit(Event{Kind: EventDone, N: int(nEvents.Load()), Total: total})
	}()
	if cfg.Shard != nil {
		return nil, fmt.Errorf("dse: the merge runs unsharded (Config.Shard must be nil)")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dse: merge needs at least one shard checkpoint file")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	defer em.bridgeObs(reg)()
	root := reg.StartSpan("dse")
	defer root.End()
	res := &Result{Config: cfg, Selected: -1}

	archs, _, err := produceArchs(ctx, &cfg, root)
	if err != nil {
		return nil, err
	}
	total = len(archs)
	reg.Counter("dse.candidates.total").Add(int64(len(archs)))

	mergeSp := root.Child("merge")
	err = mergeShardFiles(&cfg, paths, archs, res, em, nEvents)
	mergeSp.End()
	if err != nil {
		return nil, err
	}
	reg.Counter("dse.shard.merged").Add(int64(len(paths)))

	paretoSp := root.Child("pareto")
	defer paretoSp.End()
	sf2 := pareto.NewStreamingFront(2)
	sf3 := pareto.NewStreamingFront(3)
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if !c.Feasible {
			continue
		}
		res.Feasible = append(res.Feasible, i)
		if _, _, err := sf2.Insert(pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime}}); err != nil {
			return res, fmt.Errorf("dse: merge front insert (candidate %d): %w", i, err)
		}
		if _, _, err := sf3.Insert(pareto.Point{ID: i, Coords: c.Coords()}); err != nil {
			return res, fmt.Errorf("dse: merge front insert (candidate %d): %w", i, err)
		}
	}
	if len(res.Feasible) == 0 {
		return res, fmt.Errorf("dse: no feasible candidate in the explored space")
	}
	res.Front2D = sf2.IDs()
	res.Front3D = sf3.IDs()
	if err := res.Reselect(SelectionSpec{}); err != nil {
		return res, err
	}
	paretoSp.End()

	if cfg.VerifySelected && res.Selected >= 0 && ctx.Err() == nil {
		simSp := root.Child("sim")
		err := verifySelected(ctx, &cfg, res)
		simSp.End()
		if err != nil {
			return res, fmt.Errorf("dse: selected-candidate verification: %w", err)
		}
		res.Verified = true
	}
	return res, nil
}

// mergeShardFiles loads and validates the shard checkpoints and fills
// res.Candidates. Validation is strict: every file must carry this
// exploration's header and a shard header, the ranges must tile
// [0, len(archs)) with no gap, overlap or duplicate, every entry must
// name a candidate inside its file's range, and every index of every
// range must have an entry.
func mergeShardFiles(cfg *Config, paths []string, archs []*tta.Architecture, res *Result, em *emitter, nEvents *atomic.Int64) error {
	want := checkpointFile{
		Version:  CheckpointFormatVersion,
		Library:  gatelib.LibraryKey,
		Width:    cfg.Width,
		Seed:     cfg.Seed,
		Workload: workloadSignature(cfg),
		SpecHash: cfg.SpecHash,
	}
	type shardInput struct {
		path  string
		shard checkpointShard
		file  checkpointFile
	}
	var inputs []shardInput
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return &ShardMergeError{Path: path, Reason: "read", Err: err}
		}
		f, rec, derr := decodeCheckpointData(data)
		if derr != nil {
			return &ShardMergeError{Path: path, Reason: "decode", Err: derr}
		}
		if rec.Torn {
			// A worker whose final flush succeeded leaves a fully valid
			// file; a torn one means the worker died mid-write. The merge
			// demands completeness, so surface the tear with a resume hint
			// instead of a confusing missing-entry error downstream.
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf(
				"torn file (%s) — resume that worker from this checkpoint, then merge again", rec.Cause)}
		}
		for _, m := range []struct{ field, want, got string }{
			{"format version", fmt.Sprint(want.Version), fmt.Sprint(f.Version)},
			{"library key", want.Library, f.Library},
			{"width", fmt.Sprint(want.Width), fmt.Sprint(f.Width)},
			{"seed", fmt.Sprint(want.Seed), fmt.Sprint(f.Seed)},
			{"workload", want.Workload, f.Workload},
		} {
			if m.want != m.got {
				return &ShardMergeError{Path: path, Reason: "header mismatch",
					Err: &CheckpointMismatchError{Field: m.field, Want: m.want, Got: m.got}}
			}
		}
		if want.SpecHash != "" && f.SpecHash != "" && want.SpecHash != f.SpecHash {
			return &ShardMergeError{Path: path, Reason: "header mismatch",
				Err: &CheckpointMismatchError{Field: "spec hash", Want: want.SpecHash, Got: f.SpecHash}}
		}
		if f.Shard == nil {
			return &ShardMergeError{Path: path, Reason: "not a shard checkpoint (no shard header)"}
		}
		s := *f.Shard
		if s.Total != len(archs) {
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf(
				"covers a %d-candidate space, but this config produces %d candidates", s.Total, len(archs))}
		}
		if s.Lo < 0 || s.Hi < s.Lo || s.Hi > s.Total {
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf("invalid range [%d,%d) of %d", s.Lo, s.Hi, s.Total)}
		}
		inputs = append(inputs, shardInput{path: path, shard: s, file: f})
	}

	// The ranges must tile the candidate space: sorted by (Lo, Hi), each
	// must begin exactly where the previous ended. A duplicated or
	// overlapping range trips the "overlaps" case; a gap the "not
	// covered" case. Zero-length ranges (more shards than candidates)
	// are legal and contribute nothing.
	sorted := append([]shardInput(nil), inputs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].shard, sorted[j].shard
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})
	cur := 0
	for _, in := range sorted {
		switch {
		case in.shard.Lo < cur:
			return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
				"range [%d,%d) overlaps another shard's", in.shard.Lo, in.shard.Hi)}
		case in.shard.Lo > cur:
			return fmt.Errorf("dse: shard merge: candidates [%d,%d) are covered by no shard checkpoint", cur, in.shard.Lo)
		}
		cur = in.shard.Hi
	}
	if cur != len(archs) {
		return fmt.Errorf("dse: shard merge: candidates [%d,%d) are covered by no shard checkpoint", cur, len(archs))
	}

	keyIndex := make(map[string]int, len(archs))
	for i, a := range archs {
		keyIndex[checkpointKey(a)] = i
	}
	res.Candidates = make([]Candidate, len(archs))
	filled := make([]bool, len(archs))
	for _, in := range inputs {
		for k, e := range in.file.Entries {
			if err := validCheckpointEntry(e); err != nil {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf("entry %q", k), Err: err}
			}
			idx, ok := keyIndex[k]
			if !ok {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"entry %q matches no candidate this config produces", k)}
			}
			if idx < in.shard.Lo || idx >= in.shard.Hi {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"entry for candidate %d lies outside the file's range [%d,%d)", idx, in.shard.Lo, in.shard.Hi)}
			}
			res.Candidates[idx] = e.candidate(archs[idx])
			filled[idx] = true
		}
	}
	for _, in := range inputs {
		for i := in.shard.Lo; i < in.shard.Hi; i++ {
			if !filled[i] {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"incomplete shard: candidate %d (%s) has no entry — resume that worker from this checkpoint, then merge again",
					i, archs[i].Name)}
			}
		}
	}

	// Announce the reconstituted candidates in canonical index order, so
	// a live-front consumer of the merge sees the same stream a resumed
	// unsharded run would emit.
	for i := range res.Candidates {
		c := &res.Candidates[i]
		em.emit(Event{
			Kind:      EventRestored,
			Msg:       candidateEventMsg(archs[i], c, nil),
			N:         i + 1,
			Total:     len(archs),
			Candidate: candidateUpdate(i, archs[i], c, nil),
		})
		nEvents.Add(1)
	}
	return nil
}
