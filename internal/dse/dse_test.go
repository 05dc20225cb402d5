package dse

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// sharedResult runs the default exploration once; most tests inspect it.
var sharedResult *Result

func explore(t *testing.T) *Result {
	t.Helper()
	if sharedResult != nil {
		return sharedResult
	}
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedResult = res
	return res
}

func TestExploreProducesCandidatesAndFronts(t *testing.T) {
	res := explore(t)
	if len(res.Candidates) < 100 {
		t.Fatalf("only %d candidates explored", len(res.Candidates))
	}
	if len(res.Front2D) == 0 || len(res.Front3D) == 0 {
		t.Fatal("empty Pareto fronts")
	}
	if res.Selected < 0 || res.Selected >= len(res.Candidates) {
		t.Fatalf("invalid selection index %d", res.Selected)
	}
	if !res.Candidates[res.Selected].Feasible {
		t.Fatal("selected an infeasible candidate")
	}
}

func TestFigure2FrontIsAProperTradeOffCurve(t *testing.T) {
	res := explore(t)
	if len(res.Front2D) < 4 {
		t.Fatalf("2-D front has only %d points; no curve to trade along", len(res.Front2D))
	}
	// Sorted by area, execution time must be non-increasing along the
	// front (the defining property of a 2-objective Pareto curve).
	type pt struct{ a, t float64 }
	var pts []pt
	for _, i := range res.Front2D {
		pts = append(pts, pt{res.Candidates[i].Area, res.Candidates[i].ExecTime})
	}
	for i := 0; i < len(pts); i++ {
		for j := 0; j < len(pts); j++ {
			if pts[i].a < pts[j].a && pts[i].t < pts[j].t {
				t.Fatalf("front point %d dominates front point %d", i, j)
			}
		}
	}
	// The curve must span a real range on both axes.
	aMin, aMax := pts[0].a, pts[0].a
	tMin, tMax := pts[0].t, pts[0].t
	for _, p := range pts {
		if p.a < aMin {
			aMin = p.a
		}
		if p.a > aMax {
			aMax = p.a
		}
		if p.t < tMin {
			tMin = p.t
		}
		if p.t > tMax {
			tMax = p.t
		}
	}
	if aMax < 1.3*aMin || tMax < 1.3*tMin {
		t.Errorf("front too flat: area %.0f-%.0f, time %.0f-%.0f", aMin, aMax, tMin, tMax)
	}
}

func TestFigure8ProjectionPreserved(t *testing.T) {
	// The paper: "The already achieved area-throughput ratio is preserved
	// since the first projection of the 3D curve in the area-execution-
	// time plane is still the curve from figure 2."
	res := explore(t)
	if !res.ProjectionPreserved() {
		t.Fatal("adding the test axis lost an area/time-optimal point")
	}
}

func TestFigure8TestCostVariesAmongCloseArchitectures(t *testing.T) {
	// "The test cost may vary significantly even for the architectures
	// that are close to each other at the 2D Pareto curve."
	res := explore(t)
	lo, hi, found := res.TestCostSpread(0.01)
	if !found {
		t.Fatal("no area/time-close candidate pairs found")
	}
	if float64(hi) < 1.15*float64(lo) {
		t.Errorf("test-cost spread %d..%d (<15%%) too small to motivate the third axis", lo, hi)
	}
	t.Logf("2D-close pair test costs: %d vs %d (%.0f%% apart)", lo, hi, 100*float64(hi-lo)/float64(lo))
}

func TestFigure9SelectionIsMidCurve(t *testing.T) {
	// Equal-weight Euclidean selection must pick a compromise, not an
	// extreme of the front.
	res := explore(t)
	sel := &res.Candidates[res.Selected]
	var aMin, aMax, tMin, tMax float64
	first := true
	for _, i := range res.Front3D {
		c := &res.Candidates[i]
		if first {
			aMin, aMax, tMin, tMax = c.Area, c.Area, c.ExecTime, c.ExecTime
			first = false
			continue
		}
		if c.Area < aMin {
			aMin = c.Area
		}
		if c.Area > aMax {
			aMax = c.Area
		}
		if c.ExecTime < tMin {
			tMin = c.ExecTime
		}
		if c.ExecTime > tMax {
			tMax = c.ExecTime
		}
	}
	if sel.Area == aMax || sel.ExecTime == tMax {
		t.Errorf("selection sits at a front extreme: area=%.0f time=%.0f", sel.Area, sel.ExecTime)
	}
	t.Logf("selected %s (area %.0f of [%.0f,%.0f], time %.0f of [%.0f,%.0f], test %d)",
		sel.Arch.Name, sel.Area, aMin, aMax, sel.ExecTime, tMin, tMax, sel.TestCost)
}

func TestSelectedResemblesPaperArchitecture(t *testing.T) {
	// The paper's figure 9 picks a compact template: one or two ALUs, one
	// CMP, register files, LD/ST, PC and Immediate on a small bus count.
	res := explore(t)
	a := res.Candidates[res.Selected].Arch
	if n := len(a.ComponentsOf(tta.ALU)); n < 1 || n > 2 {
		t.Errorf("selected %d ALUs", n)
	}
	if n := len(a.ComponentsOf(tta.CMP)); n != 1 {
		t.Errorf("selected %d CMPs, the workload warrants 1", n)
	}
	if n := len(a.ComponentsOf(tta.RF)); n < 1 {
		t.Errorf("selected %d RFs", n)
	}
	if a.Buses < 1 || a.Buses > 4 {
		t.Errorf("selected %d buses", a.Buses)
	}
}

func TestPackedAssignmentNeverOnFront3DWhenTwinExists(t *testing.T) {
	// A packed candidate with a spread-first twin (same structure) has
	// identical area/time and strictly worse test cost, so the 3-D front
	// must prefer the twin.
	res := explore(t)
	for _, i := range res.Front3D {
		c := &res.Candidates[i]
		if !strings.Contains(c.Arch.Name, "packed") {
			continue
		}
		// Allow packed points only when no equal-structure twin beats them
		// (single-bus architectures are identical under both strategies).
		if c.Arch.Buses > 1 {
			t.Errorf("packed candidate %s on the 3-D front despite %d buses", c.Arch.Name, c.Arch.Buses)
		}
	}
}

func TestMoreBusesReduceTestCostSameStructure(t *testing.T) {
	// Equation (11)'s ceil(n_conn/n_b) and CD both fall with the bus
	// count: compare the same structure at 1 vs 4 buses.
	res := explore(t)
	byKey := map[string]map[int]int{}
	for _, i := range res.Feasible {
		c := &res.Candidates[i]
		if !strings.Contains(c.Arch.Name, "spread-first") {
			continue
		}
		// Key: everything but the bus count.
		key := strings.Join(strings.Split(c.Arch.Name, "_")[2:], "_")
		if byKey[key] == nil {
			byKey[key] = map[int]int{}
		}
		byKey[key][c.Arch.Buses] = c.TestCost
	}
	checked := 0
	for key, m := range byKey {
		t1, ok1 := m[1]
		t4, ok4 := m[4]
		if !ok1 || !ok4 {
			continue
		}
		checked++
		if t4 >= t1 {
			t.Errorf("%s: 4-bus test cost %d not below 1-bus %d", key, t4, t1)
		}
	}
	if checked == 0 {
		t.Fatal("no structure pairs with both 1 and 4 buses")
	}
}

func TestFullScanAlwaysWorseAcrossSpace(t *testing.T) {
	// Our approach beats the full-scan baseline on every feasible point,
	// not just on the selected architecture.
	res := explore(t)
	for _, i := range res.Feasible {
		c := &res.Candidates[i]
		if c.TestCost >= c.FullScan {
			t.Errorf("%s: functional cost %d not below full scan %d", c.Arch.Name, c.TestCost, c.FullScan)
		}
	}
}

func TestExploreDeterministic(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Trim the space to keep this re-run cheap.
	cfg.Buses = []int{2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = cfg.RFSets[:2]
	r1, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Annotator = testcost.NewAnnotator(16, cfg.Seed)
	r2, err := ExploreContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Candidates) != len(r2.Candidates) || r1.Selected != r2.Selected {
		t.Fatalf("nondeterministic exploration: %d/%d vs %d/%d",
			len(r1.Candidates), r1.Selected, len(r2.Candidates), r2.Selected)
	}
	for i := range r1.Candidates {
		a, b := r1.Candidates[i], r2.Candidates[i]
		if a.Area != b.Area || a.Cycles != b.Cycles || a.TestCost != b.TestCost {
			t.Fatalf("candidate %d differs between runs", i)
		}
	}
}

func TestSmallRegisterFilesSpillOrSlow(t *testing.T) {
	// The 8+8 register set is tight for the crypt kernel; it must either
	// spill or be slower than the roomy 16+16 set on the same bus count.
	res := explore(t)
	var tight, roomy *Candidate
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if !c.Feasible || c.Arch.Buses != 2 || !strings.Contains(c.Arch.Name, "spread-first") {
			continue
		}
		if strings.Contains(c.Arch.Name, "_a1_c1_rf0_") {
			tight = c
		}
		if strings.Contains(c.Arch.Name, "_a1_c1_rf5_") {
			roomy = c
		}
	}
	if tight == nil || roomy == nil {
		t.Fatal("expected candidates missing from the space")
	}
	if tight.Spills == 0 && tight.Cycles < roomy.Cycles {
		t.Errorf("tight RF (%d cycles, %d spills) outperformed roomy RF (%d cycles)",
			tight.Cycles, tight.Spills, roomy.Cycles)
	}
}

func TestWorkloadKernelIsRealCrypt(t *testing.T) {
	// Guard: the default workload is the crypt loop kernel, not a toy.
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Workload.Stats()
	if st.Loads != 16 || st.CMP < 1 || st.ALU < 60 {
		t.Fatalf("workload does not look like the crypt round kernel: %v", st)
	}
	if cfg.WorkloadReps != crypt.RoundsPerHash {
		t.Fatalf("reps %d, want %d", cfg.WorkloadReps, crypt.RoundsPerHash)
	}
}

func TestCandidateCoords(t *testing.T) {
	c := Candidate{Area: 1, ExecTime: 2, TestCost: 3}
	co := c.Coords()
	if co[0] != 1 || co[1] != 2 || co[2] != 3 {
		t.Fatalf("bad coords %v", co)
	}
}

func TestRFSpecString(t *testing.T) {
	if (RFSpec{8, 1, 2}).String() == "" {
		t.Fatal("empty RFSpec string")
	}
}

func TestParallelExplorationMatchesSerial(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buses = []int{2, 3}
	cfg.ALUCounts = []int{1, 2}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = cfg.RFSets[:3]
	cfg.Annotator = explore(t).Config.Annotator

	serial := cfg
	serial.Parallelism = 1
	rs, err := ExploreContext(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Parallelism = 8
	rp, err := ExploreContext(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Candidates) != len(rp.Candidates) || rs.Selected != rp.Selected {
		t.Fatalf("parallel exploration diverged: %d/%d vs %d/%d",
			len(rs.Candidates), rs.Selected, len(rp.Candidates), rp.Selected)
	}
	for i := range rs.Candidates {
		a, b := rs.Candidates[i], rp.Candidates[i]
		if a.Area != b.Area || a.Cycles != b.Cycles || a.TestCost != b.TestCost || a.Feasible != b.Feasible {
			t.Fatalf("candidate %d differs between serial and parallel runs", i)
		}
	}
}

// TestZeroConfigIsDefaultSpace checks the one table of the paper's
// space: a zero Config fills to DefaultConfig's space and enumerates the
// same 288 candidates, while its Seed stays 0 (a valid ATPG seed).
func TestZeroConfigIsDefaultSpace(t *testing.T) {
	def, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	var zero Config
	if err := zero.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	names := func(cfg *Config) []string {
		t.Helper()
		archs, err := produceArchs(context.Background(), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(archs))
		for i, a := range archs {
			out[i] = a.Name
		}
		return out
	}
	got, want := names(&zero), names(&def)
	if len(want) != 288 || !slices.Equal(got, want) {
		t.Fatalf("zero config enumerates %d candidates, DefaultConfig %d (want 288, equal names)", len(got), len(want))
	}
	if zero.Width != def.Width || zero.WorkloadReps != def.WorkloadReps || zero.Workload.Name != def.Workload.Name {
		t.Fatalf("zero config fills width %d, reps %d, workload %q; DefaultConfig has %d, %d, %q",
			zero.Width, zero.WorkloadReps, zero.Workload.Name, def.Width, def.WorkloadReps, def.Workload.Name)
	}
	if zero.Seed != 0 || def.Seed != 7 {
		t.Fatalf("seeds %d and %d, want 0 kept and DefaultConfig's 7", zero.Seed, def.Seed)
	}
}
