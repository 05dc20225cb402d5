// Package core is the top-level API of the design-and-test space
// exploration: it orchestrates the gate-level back-annotation
// (internal/testcost), the MOVE-style scheduling of the Crypt workload
// (internal/sched, internal/crypt), the exploration itself (internal/dse)
// and the rendering of the paper's tables and figures (internal/report).
//
// The typical flow mirrors the paper's section 4:
//
//	study, _ := core.NewStudy()
//	_ = study.ExploreContext(ctx)        // figures 2 and 8
//	fmt.Println(study.Figure2Plot())
//	fmt.Println(study.Figure8Table())
//	arch := study.SelectedArchitecture() // figure 9
//	tbl, _ := study.Table1()             // table 1
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dse"
	"repro/internal/report"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// Study bundles one exploration run and its back-annotation state. The
// zero value is not usable; construct with NewStudy or NewStudyWithConfig.
type Study struct {
	// Config is the exploration's input; Result.Config is the same
	// config with its defaults filled in, the annotator included.
	Config dse.Config
	Result *dse.Result
}

// NewStudy prepares the default study: the Crypt workload over the
// paper-scale design space.
func NewStudy() (*Study, error) {
	cfg, err := dse.DefaultConfig()
	if err != nil {
		return nil, err
	}
	return &Study{Config: cfg}, nil
}

// NewStudyWithConfig prepares a study over a custom space.
func NewStudyWithConfig(cfg dse.Config) *Study {
	return &Study{Config: cfg}
}

// ExploreContext runs the design space exploration under ctx (idempotent).
// Cancelling the context stops the exploration promptly; the error then
// is a *dse.PartialError (unwrapping to ctx.Err()), and whatever partial
// result was salvaged is kept on the study — the figures render over the
// evaluated subset. Because a partial result is a result, a later call
// does not re-explore; start a fresh study to retry. When s.Config.Obs is
// set, the run is fully instrumented (see dse.Config.Obs).
func (s *Study) ExploreContext(ctx context.Context) error {
	if s.Result != nil {
		return nil
	}
	res, err := dse.ExploreContext(ctx, s.Config)
	if res != nil && (err == nil || res.Selected >= 0) {
		// Keep a usable partial result (it has a selection to render);
		// drop a hollow one so ensure() still reports "call ExploreContext".
		s.Result = res
	}
	return err
}

// Reselect re-runs the figure-9 selection under a custom norm and weight
// spec without re-exploring the space.
func (s *Study) Reselect(spec dse.SelectionSpec) error {
	if err := s.ensure(); err != nil {
		return err
	}
	return s.Result.Reselect(spec)
}

func (s *Study) ensure() error {
	if s.Result == nil {
		return fmt.Errorf("core: call ExploreContext first")
	}
	return nil
}

// SelectedArchitecture returns the figure-9 choice: the minimal
// equal-weight Euclidean-norm member of the 3-D front.
func (s *Study) SelectedArchitecture() *tta.Architecture {
	if s.Result == nil || s.Result.Selected < 0 {
		return nil
	}
	return s.Result.Candidates[s.Result.Selected].Arch
}

// SelectedCandidate returns the full evaluation of the selection.
func (s *Study) SelectedCandidate() *dse.Candidate {
	if s.Result == nil || s.Result.Selected < 0 {
		return nil
	}
	return &s.Result.Candidates[s.Result.Selected]
}

// Figure2Table lists the 2-D (area, execution time) Pareto front.
func (s *Study) Figure2Table() (*report.Table, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 2: area/execution-time Pareto points (Crypt)",
		"architecture", "area", "cycles/round", "exec time", "spills")
	for _, i := range s.Result.Front2D {
		c := &s.Result.Candidates[i]
		t.AddRow(c.Arch.Name, c.Area, c.Cycles, c.ExecTime, c.Spills)
	}
	return t, nil
}

// Figure8Table lists the 3-D front with the test-cost axis.
func (s *Study) Figure8Table() (*report.Table, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 8: area/execution-time/test-cost Pareto points",
		"architecture", "area", "exec time", "test cost", "full scan", "selected")
	for _, i := range s.Result.Front3D {
		c := &s.Result.Candidates[i]
		mark := ""
		if i == s.Result.Selected {
			mark = "<== min norm"
		}
		name := c.Arch.Name
		if c.Degraded {
			// The test cost is an analytical upper bound (ATPG budget ran
			// out), not a measured pattern count.
			name += " (degraded)"
		}
		t.AddRow(name, c.Area, c.ExecTime, c.TestCost, c.FullScan, mark)
	}
	return t, nil
}

// Figure2Plot renders the area/time scatter: '.' candidates, '*' front
// members, 'S' the selection.
func (s *Study) Figure2Plot() (string, error) {
	if err := s.ensure(); err != nil {
		return "", err
	}
	sc := report.NewScatter("Figure 2: solution space with Pareto points",
		"circuit area [NAND2 eq]", "execution time [norm.]", 64, 18)
	onFront := map[int]bool{}
	for _, i := range s.Result.Front2D {
		onFront[i] = true
	}
	for _, i := range s.Result.Feasible {
		c := &s.Result.Candidates[i]
		switch {
		case i == s.Result.Selected:
			sc.Add(c.Area, c.ExecTime, 'S')
		case onFront[i]:
			sc.Add(c.Area, c.ExecTime, '*')
		default:
			sc.Add(c.Area, c.ExecTime, '.')
		}
	}
	return sc.String(), nil
}

// Figure8Plot renders the test-cost axis against area for the 3-D front
// (the second projection of the paper's 3-D plot).
func (s *Study) Figure8Plot() (string, error) {
	if err := s.ensure(); err != nil {
		return "", err
	}
	sc := report.NewScatter("Figure 8 (projection): test cost vs area over the 3-D front",
		"circuit area [NAND2 eq]", "test cost [cycles]", 64, 18)
	for _, i := range s.Result.Feasible {
		c := &s.Result.Candidates[i]
		sc.Add(c.Area, float64(c.TestCost), '.')
	}
	for _, i := range s.Result.Front3D {
		c := &s.Result.Candidates[i]
		mark := rune('*')
		if i == s.Result.Selected {
			mark = 'S'
		}
		sc.Add(c.Area, float64(c.TestCost), mark)
	}
	return sc.String(), nil
}

// Table1 renders the paper's Table 1 for the selected architecture: per
// component, the full-scan baseline cycles, the functional-approach
// cycles, scan-chain length, the cost-model terms and fault coverage.
func (s *Study) Table1() (*report.Table, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	return Table1For(s.Result.Config.Annotator, s.SelectedArchitecture())
}

// Table1For renders a Table-1 comparison for any architecture.
func Table1For(ann *testcost.Annotator, arch *tta.Architecture) (*report.Table, error) {
	cost, err := ann.EvaluateContext(context.Background(), arch)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 1: full scan vs our approach (%s)", arch.Name),
		"component", "full scan", "our approach", "nl", "ftfu", "ftrf", "fts", "FC(%)")
	for _, c := range cost.Components {
		our := fmt.Sprintf("%d", c.OurCycles())
		if c.Excluded {
			our = fmt.Sprintf("(%d)", c.FullScanCycles)
		}
		t.AddRow(c.Name, c.FullScanCycles, our, c.NL,
			dash(c.FTfu), dash(c.FTrf), dash(c.FTs),
			fmt.Sprintf("%.2f", 100*c.FaultCoverage))
	}
	t.AddRow("TOTAL", cost.FullScanTotal, cost.Total, "", "", "", "", "")
	return t, nil
}

func dash(v int) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// Summary produces a one-screen digest of the study.
func (s *Study) Summary() (string, error) {
	if err := s.ensure(); err != nil {
		return "", err
	}
	var b strings.Builder
	r := s.Result
	fmt.Fprintf(&b, "candidates: %d (%d feasible)\n", len(r.Candidates), len(r.Feasible))
	nDeg := 0
	for _, i := range r.Feasible {
		if r.Candidates[i].Degraded {
			nDeg++
		}
	}
	if nDeg > 0 {
		fmt.Fprintf(&b, "degraded: %d candidates carry analytical test-cost bounds (ATPG budget exhausted)\n", nDeg)
	}
	fmt.Fprintf(&b, "2-D Pareto front: %d points; 3-D front: %d points\n", len(r.Front2D), len(r.Front3D))
	fmt.Fprintf(&b, "area/time projection preserved: %v\n", r.ProjectionPreserved())
	if lo, hi, ok := r.TestCostSpread(0.01); ok {
		fmt.Fprintf(&b, "test-cost spread among 2-D-close designs: %d .. %d cycles\n", lo, hi)
	}
	sel := s.SelectedCandidate()
	fmt.Fprintf(&b, "selected (equal-weight Euclid norm): %s\n", sel.Arch)
	fmt.Fprintf(&b, "  area %.0f, %d cycles/round (exec %.0f), test %d cycles (full scan %d, %.1fx)\n",
		sel.Area, sel.Cycles, sel.ExecTime, sel.TestCost, sel.FullScan,
		float64(sel.FullScan)/float64(sel.TestCost))
	return b.String(), nil
}
