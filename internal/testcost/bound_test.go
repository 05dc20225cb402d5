package testcost

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/tta"
)

func boundTestArch() *tta.Architecture {
	a := tta.Figure9().Clone()
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

// TestBoundTierPessimisticAndDeterministic: the cheap tier never
// flatters — its total is >= the converged total — and repeated
// evaluations are identical.
func TestBoundTierPessimisticAndDeterministic(t *testing.T) {
	ann := NewAnnotator(16, 7)
	arch := boundTestArch()
	b1, err := ann.EvaluateBoundContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Degraded {
		t.Error("fresh bound-tier evaluation must be marked Degraded")
	}
	b2, err := ann.EvaluateBoundContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Total != b2.Total || b1.FullScanTotal != b2.FullScanTotal {
		t.Fatalf("bound tier not deterministic: %d/%d then %d/%d",
			b1.Total, b1.FullScanTotal, b2.Total, b2.FullScanTotal)
	}
	exact, err := ann.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Degraded {
		t.Fatal("unbudgeted exact evaluation must not degrade")
	}
	if b1.Total < exact.Total {
		t.Errorf("bound total %d below exact total %d: the screen flattered a candidate", b1.Total, exact.Total)
	}
	// Per-component: bound n_p >= measured n_p for cost-bearing FUs (RFs
	// use march counts in both tiers, so they agree exactly).
	for i, bc := range b1.Components {
		ec := exact.Components[i]
		if bc.Name != ec.Name {
			t.Fatalf("component order differs between tiers: %s vs %s", bc.Name, ec.Name)
		}
		if bc.Kind == tta.RF && bc.NP != ec.NP {
			t.Errorf("%s: march count differs between tiers: %d vs %d", bc.Name, bc.NP, ec.NP)
		}
		if bc.NP < ec.NP {
			t.Errorf("%s: bound np %d below measured %d", bc.Name, bc.NP, ec.NP)
		}
	}
}

// TestBoundTierIndependentOfExactCache: the cheap tier is a pure
// function of the architecture — a warm exact cache must not change its
// answer, or the guided search's trajectory would depend on annotator
// warmth (daemon pools, warm-start files, checkpoint resumes).
func TestBoundTierIndependentOfExactCache(t *testing.T) {
	cold := NewAnnotator(16, 7)
	arch := boundTestArch()
	ref, err := cold.EvaluateBoundContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewAnnotator(16, 7)
	reg := obs.NewRegistry()
	warm.Obs = reg
	if _, err := warm.EvaluateContext(context.Background(), arch); err != nil {
		t.Fatal(err)
	}
	b, err := warm.EvaluateBoundContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Degraded {
		t.Error("bound tier must stay degraded even with a warm exact cache")
	}
	if b.Total != ref.Total || b.FullScanTotal != ref.FullScanTotal {
		t.Errorf("warm-cache bound totals %d/%d != cold %d/%d",
			b.Total, b.FullScanTotal, ref.Total, ref.FullScanTotal)
	}
	// Second evaluation serves the bound memo.
	if _, err := warm.EvaluateBoundContext(context.Background(), arch); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("testcost.bound.hit").Value() == 0 {
		t.Error("bound.hit counter never incremented")
	}
	if reg.Counter("testcost.bound.miss").Value() == 0 {
		t.Error("bound.miss counter never incremented")
	}
}

// TestBoundTierAreaDelayExact: area and critical path are pure functions
// of the netlist, which is what lets the bound tier and the exact tier
// share AreaDelayContext. It must return the same values on a cold
// annotator (measured from the netlist), after AnnotateContext (read from
// the exact cache) and after a Save/Load round trip (read from a warm
// start), and the cold path must run no ATPG.
func TestBoundTierAreaDelayExact(t *testing.T) {
	ctx := context.Background()
	ann := NewAnnotator(16, 7)
	reg := obs.NewRegistry()
	ann.Obs = reg
	arch := boundTestArch()
	type ad struct{ area, delay float64 }
	cold := make([]ad, len(arch.Components))
	for ci := range arch.Components {
		c := &arch.Components[ci]
		area, delay, err := ann.AreaDelayContext(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if area <= 0 || delay <= 0 {
			t.Fatalf("%s: cold area/delay %v/%v", c.Name, area, delay)
		}
		cold[ci] = ad{area, delay}
	}
	snap := reg.Snapshot()
	if snap.Counters["testcost.cache.miss"] != 0 || snap.Counters["atpg.podem.decisions"] != 0 {
		t.Fatalf("cold AreaDelayContext ran ATPG: %+v", snap.Counters)
	}

	check := func(tier string, a *Annotator) {
		t.Helper()
		for ci := range arch.Components {
			c := &arch.Components[ci]
			area, delay, err := a.AreaDelayContext(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if (ad{area, delay}) != cold[ci] {
				t.Errorf("%s: %s area/delay %v/%v != netlist %v/%v", c.Name, tier, area, delay, cold[ci].area, cold[ci].delay)
			}
		}
	}
	for ci := range arch.Components {
		if err := ann.AnnotateContext(ctx, &arch.Components[ci]); err != nil {
			t.Fatal(err)
		}
	}
	check("exact-cache", ann)

	var file bytes.Buffer
	if err := ann.Save(&file); err != nil {
		t.Fatal(err)
	}
	warm := NewAnnotator(16, 7)
	if err := warm.Load(&file); err != nil {
		t.Fatal(err)
	}
	check("warm-start", warm)
}

// TestBoundTierConcurrent: concurrent cheap-tier evaluations against one
// annotator race only on the memo map; results must agree.
func TestBoundTierConcurrent(t *testing.T) {
	ann := NewAnnotator(16, 7)
	arch := boundTestArch()
	ref, err := ann.EvaluateBoundContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ann.EvaluateBoundContext(context.Background(), boundTestArch())
			if err != nil {
				t.Error(err)
				return
			}
			if got.Total != ref.Total {
				t.Errorf("concurrent bound total %d != %d", got.Total, ref.Total)
			}
		}()
	}
	wg.Wait()
}
