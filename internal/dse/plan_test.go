package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sched"
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

// memoFor returns an empty memo scheduling g from its critical-path
// plan, as ExploreContext builds it.
func memoFor(tb testing.TB, g *program.Graph) *schedMemo {
	tb.Helper()
	plan, err := sched.NewPlan(g, sched.CriticalPath)
	if err != nil {
		tb.Fatal(err)
	}
	return newSchedMemo(plan)
}

// TestMalformedKernelIsConfigError explores a workload graph that fails
// validation, once as a sweep and once as a small search. Each must
// return no result and an error that names the malformed kernel and
// wraps its validation error, before anything is enumerated, screened or
// checkpointed: no structure is scheduled, the checkpoint file is never
// written, "done" is the only event, and "dse.worker.utilization" is
// set.
func TestMalformedKernelIsConfigError(t *testing.T) {
	invalid := badKernel().Validate()
	if invalid == nil {
		t.Fatal("the corrupted graph validates")
	}
	const want = `dse: malformed workload kernel: program "bad": op 1 uses undefined value 7`
	ann := testcost.NewAnnotator(16, 7)
	for _, mode := range []string{"sweep", "search"} {
		cfg, err := DefaultConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload, cfg.WorkloadReps = badKernel(), 1
		cfg.Annotator = ann
		cfg.Buses, cfg.ALUCounts, cfg.CMPCounts = []int{1, 2}, []int{1}, []int{1, 2}
		cfg.RFSets = cfg.RFSets[:2]
		if mode == "search" {
			cfg.Search = &SearchSpec{Population: 12, Generations: 2, Eta: 3, Seed: 99}
		}
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if cfg.Checkpoint, err = OpenCheckpoint(path, cfg); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg.Obs = reg
		var kinds []EventKind
		cfg.EventSink = func(ev Event) { kinds = append(kinds, ev.Kind) }

		res, err := ExploreContext(context.Background(), cfg)
		if res != nil || err == nil || err.Error() != want {
			t.Fatalf("%s: result %v, error %v; want no result, %q", mode, res, err, want)
		}
		if cause := errors.Unwrap(err); cause == nil || cause.Error() != invalid.Error() {
			t.Errorf("%s: the error wraps %v, want the validation error %v", mode, cause, invalid)
		}
		if len(kinds) != 1 || kinds[0] != EventDone {
			t.Errorf("%s: events %v, want only %q", mode, kinds, EventDone)
		}
		snap := reg.Snapshot()
		if _, ok := snap.Gauges["dse.worker.utilization"]; !ok {
			t.Errorf("%s: dse.worker.utilization unset", mode)
		}
		for _, name := range []string{"sched.runs", "dse.sched.memo.miss", "dse.candidates.total"} {
			if n := snap.Counters[name]; n != 0 {
				t.Errorf("%s: %s = %d, want 0", mode, name, n)
			}
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: checkpoint file written (stat error %v)", mode, err)
		}
	}
}
