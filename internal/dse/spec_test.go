package dse

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
)

func TestFromSpecZeroMatchesDefaultConfig(t *testing.T) {
	cfg, sel, err := FromSpec(jobspec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != def.Width || cfg.Seed != def.Seed {
		t.Errorf("width/seed %d/%d, want %d/%d", cfg.Width, cfg.Seed, def.Width, def.Seed)
	}
	if !reflect.DeepEqual(cfg.Buses, def.Buses) ||
		!reflect.DeepEqual(cfg.ALUCounts, def.ALUCounts) ||
		!reflect.DeepEqual(cfg.CMPCounts, def.CMPCounts) ||
		!reflect.DeepEqual(cfg.RFSets, def.RFSets) {
		t.Error("zero spec must reproduce the default space")
	}
	if cfg.WorkloadReps != def.WorkloadReps {
		t.Errorf("reps %d, want %d", cfg.WorkloadReps, def.WorkloadReps)
	}
	if (sel != SelectionSpec{}) {
		t.Errorf("zero spec selection = %+v, want zero", sel)
	}
}

func TestFromSpecOverridesAndNormalizes(t *testing.T) {
	spec := jobspec.Spec{
		Workload:       "crc16",
		Buses:          []int{2, 1, 2},
		ALUs:           []int{3},
		Norm:           "chebyshev",
		WA:             2,
		DegradedPolicy: "exclude",
		Parallelism:    3,
		ATPGWorkers:    1,
		LaneWidth:      512,
	}
	cfg, sel, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Buses, []int{1, 2}) {
		t.Errorf("buses %v, want normalized [1 2]", cfg.Buses)
	}
	// The caller's slice must not be reordered by FromSpec.
	if !reflect.DeepEqual(spec.Buses, []int{2, 1, 2}) {
		t.Errorf("FromSpec mutated the caller's spec: %v", spec.Buses)
	}
	if !reflect.DeepEqual(cfg.ALUCounts, []int{3}) {
		t.Errorf("alus %v", cfg.ALUCounts)
	}
	if cfg.Workload == nil || !strings.HasPrefix(cfg.Workload.Name, "crc16") {
		t.Errorf("workload not applied: %+v", cfg.Workload)
	}
	if cfg.WorkloadReps != 1000 {
		t.Errorf("reps %d, want 1000", cfg.WorkloadReps)
	}
	if cfg.Parallelism != 3 || cfg.ATPGWorkers != 1 {
		t.Errorf("parallelism %d/%d", cfg.Parallelism, cfg.ATPGWorkers)
	}
	if cfg.LaneWidth != 512 {
		t.Errorf("lane width %d, want 512", cfg.LaneWidth)
	}
	want := SelectionSpec{Norm: "chebyshev", WA: 2, DegradedPolicy: "exclude"}
	if sel != want {
		t.Errorf("selection %+v, want %+v", sel, want)
	}
}

func TestFromSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []jobspec.Spec{
		{Workload: "doom"},
		{Norm: "cosine"},
		{Parallelism: -1},
		{Buses: []int{0}},
	} {
		if _, _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec accepted %+v", spec)
		}
	}
}

func TestFromSpecExploresIdenticallyToDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration")
	}
	// A spec-built config over a reduced space must reproduce the
	// hand-built config's result exactly.
	specCfg, _, err := FromSpec(jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	handCfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	handCfg.Buses = []int{1, 2}
	handCfg.ALUCounts = []int{1}
	handCfg.CMPCounts = []int{1}

	a, err := ExploreContext(context.Background(), specCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreContext(context.Background(), handCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != len(b.Candidates) || a.Selected != b.Selected ||
		!reflect.DeepEqual(a.Front2D, b.Front2D) || !reflect.DeepEqual(a.Front3D, b.Front3D) {
		t.Fatal("spec-built exploration diverged from the hand-built config")
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		ca.Arch, cb.Arch = nil, nil
		if ca != cb {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, ca, cb)
		}
	}
}

// FuzzSpecValidate drives job-spec bodies along the path both surfaces
// take — json.Unmarshal, Validate, FromSpec — which must never panic. A
// decoded spec that validates must also map to a runnable Config (the
// daemon accepts exactly what it can run) and must round-trip through
// JSON with an equal Hash, its result identity.
func FuzzSpecValidate(f *testing.F) {
	d := func(v time.Duration) jobspec.Duration { return jobspec.Duration(v) }
	full := jobspec.Spec{
		Workload: "crc16", Width: 16, Seed: 7,
		Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1, 2},
		Norm: "manhattan", WA: 2, WT: 1, WC: 0.5,
		DegradedPolicy: "penalize", DegradedPenalty: 3,
		Cache: "ann.json", Checkpoint: "ck.json",
		Timeout: d(90 * time.Second), ATPGDeadline: d(250 * time.Millisecond),
		Parallelism: 4, ATPGWorkers: 2, LaneWidth: 256, VerifySelected: true,
		Search: &jobspec.SearchSpec{Population: 128, Generations: 10, Eta: 4, Seed: 42},
		Shard: &jobspec.ShardSpec{
			Shards: 4, MaxRestarts: 1,
			StallTimeout: d(45 * time.Second), HeartbeatInterval: d(5 * time.Second),
			BackoffBase: d(100 * time.Millisecond), BackoffMax: d(4 * time.Second),
			RestartWindow: d(10 * time.Minute),
		},
	}
	seeds := []jobspec.Spec{
		{}, full,
		{Workload: "doom"}, {Norm: "cosine"}, {DegradedPolicy: "maybe"},
		{Width: -1}, {Seed: -2}, {WA: -1}, {DegradedPenalty: 0.5},
		{Timeout: -1}, {ATPGDeadline: -1}, {Parallelism: -1}, {ATPGWorkers: -1},
		{LaneWidth: -64}, {LaneWidth: 128},
		{Buses: []int{1, 0}}, {ALUs: []int{-3}}, {CMPs: []int{2, 0}},
		{Search: &jobspec.SearchSpec{Population: -1}},
		{Search: &jobspec.SearchSpec{Generations: -1}},
		{Search: &jobspec.SearchSpec{Eta: -1}},
		{Search: &jobspec.SearchSpec{Eta: 1}},
		{Search: &jobspec.SearchSpec{Seed: -4}},
		{Shard: &jobspec.ShardSpec{Shards: 0}},
		{Shard: &jobspec.ShardSpec{Shards: -2}},
		{Shard: &jobspec.ShardSpec{Shards: jobspec.MaxShards + 1}},
		{Shard: &jobspec.ShardSpec{Shards: 2, MaxRestarts: -1}},
		{Shard: &jobspec.ShardSpec{Shards: 2, HeartbeatInterval: -1}},
		{Shard: &jobspec.ShardSpec{Shards: 2, StallTimeout: d(time.Second), HeartbeatInterval: d(2 * time.Second)}},
		{Shard: &jobspec.ShardSpec{Shards: 2, BackoffBase: -1}},
		{Shard: &jobspec.ShardSpec{Shards: 2, RestartWindow: -1}},
		{Shard: &jobspec.ShardSpec{Shards: 2, BackoffBase: d(time.Minute), BackoffMax: d(time.Second)}},
	}
	for _, s := range seeds {
		data, err := json.Marshal(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	body, err := json.Marshal(&full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body[:len(body)/2])                                                 // truncated
	f.Add([]byte(`{"buses":"1,2","width":"16","search":[1],"timeout":true}`)) // type-confused
	f.Add([]byte(`{"timeout":"1m30s","atpg_deadline":1500000}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec jobspec.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		verr := spec.Validate()
		_, _, ferr := FromSpec(spec)
		if (verr == nil) != (ferr == nil) {
			t.Fatalf("Validate says %v but FromSpec says %v", verr, ferr)
		}
		if verr != nil {
			return
		}
		again, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("a valid spec does not encode: %v", err)
		}
		var back jobspec.Spec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("a valid spec's encoding does not decode: %v", err)
		}
		if back.Hash() != spec.Hash() {
			t.Fatalf("JSON round trip changed the hash: %s -> %s (%s)", spec.Hash(), back.Hash(), again)
		}
	})
}
