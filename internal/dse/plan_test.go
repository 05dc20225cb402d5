package dse

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/program"
	"repro/internal/testcost"
)

// badKernel returns a workload graph that fails Graph.Validate: its add
// reads a value no op before it defines.
func badKernel() *program.Graph {
	g := program.NewGraph("bad", 16)
	a := g.In()
	g.Output(g.Add(a, a))
	g.Ops[1].B = 7
	return g
}

// The strings an exploration of badKernel reports: every structure's
// infeasibility reason, and the final error of a sweep and of a search
// that found nothing feasible. They were recorded with the explorer that
// validated the graph in every schedule.
const (
	badKernelReason    = `program "bad": op 1 uses undefined value 7`
	badKernelSweepErr  = "dse: no feasible candidate in the explored space"
	badKernelSearchErr = "dse: guided search promoted no feasible candidate (pop 12, gens 2)"
)

// TestInvalidKernelParity explores a workload graph that fails
// validation, once as a sweep and once as a small search. Every
// structure must be infeasible with the validation error as its reason,
// and each exploration must end with its pinned error.
func TestInvalidKernelParity(t *testing.T) {
	ann := testcost.NewAnnotator(16, 7)
	newCfg := func() Config {
		cfg, err := DefaultConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload, cfg.WorkloadReps = badKernel(), 1
		cfg.Annotator = ann
		cfg.Buses, cfg.ALUCounts, cfg.CMPCounts = []int{1, 2}, []int{1}, []int{1, 2}
		cfg.RFSets = cfg.RFSets[:2]
		return cfg
	}
	ctx := context.Background()

	res, err := ExploreContext(ctx, newCfg())
	if err == nil || err.Error() != badKernelSweepErr {
		t.Fatalf("sweep error %v, want %q", err, badKernelSweepErr)
	}
	if len(res.Candidates) != 16 {
		t.Fatalf("sweep priced %d candidates, want 16", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Feasible || c.Reason != badKernelReason {
			t.Errorf("%s: feasible %t, reason %q; want infeasible, %q", c.Arch.Name, c.Feasible, c.Reason, badKernelReason)
		}
	}

	cfg := newCfg()
	cfg.Search = &SearchSpec{Population: 12, Generations: 2, Eta: 3, Seed: 99}
	if _, err := ExploreContext(ctx, cfg); err == nil || err.Error() != badKernelSearchErr {
		t.Fatalf("search error %v, want %q", err, badKernelSearchErr)
	}
	// The screen reports no reason of its own; its memo holds one per
	// structure it screened.
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	pop := make([]genome, 12)
	for i := range pop {
		pop[i] = randGenome(rng)
	}
	memo := newSchedMemo(cfg.Workload)
	for i, r := range evalCheap(ctx, &cfg, pop, memo, nil) {
		if r.feasible || r.err != nil {
			t.Errorf("genome %s: feasible %t, error %v", pop[i].key(), r.feasible, r.err)
		}
	}
	if len(memo.m) == 0 {
		t.Fatal("the screen priced no structure")
	}
	for key, e := range memo.m {
		if e.val.feasible || e.val.reason != badKernelReason || e.err != nil {
			t.Errorf("%s: feasible %t, reason %q, error %v; want infeasible, %q", key, e.val.feasible, e.val.reason, e.err, badKernelReason)
		}
	}
}
