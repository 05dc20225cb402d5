package core

import (
	"repro/internal/dse"
	"repro/internal/report"
)

// JSONResult flattens the study's exploration into the machine-readable
// report shape. spec is the selection spec the run (or the last
// Reselect) used; pass the zero value for the default equal-weight
// Euclid norm. The output is deterministic — candidates in enumeration
// order, no timestamps or run identity — so byte-comparing two encodes
// is a valid equality check between runs (the service's drain/resume
// test relies on this).
//
// A partial result (the exploration was cancelled or deadlined) is
// reported with Partial set and Missing counting the never-evaluated
// slots; their candidates appear as infeasible placeholders with an
// empty architecture name.
func (s *Study) JSONResult(spec dse.SelectionSpec) (*report.JSONResult, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	r := s.Result
	out := &report.JSONResult{
		Workload:   r.Config.Workload.Name,
		Width:      r.Config.Width,
		Seed:       r.Config.Seed,
		Candidates: make([]report.JSONCandidate, len(r.Candidates)),
		Feasible:   append([]int{}, r.Feasible...),
		Front2D:    append([]int{}, r.Front2D...),
		Front3D:    append([]int{}, r.Front3D...),
		Selected:   r.Selected,
		Verified:   r.Verified,
	}
	for i := range r.Candidates {
		out.Candidates[i] = r.Candidates[i].Record(i)
		if r.Candidates[i].Arch == nil {
			out.Missing++
		}
	}
	out.Partial = out.Missing > 0
	if r.Selected >= 0 && r.Selected < len(r.Candidates) {
		sel := &report.JSONSelection{
			Index:           r.Selected,
			Norm:            spec.Norm,
			WA:              spec.WA,
			WT:              spec.WT,
			WC:              spec.WC,
			DegradedPolicy:  spec.DegradedPolicy,
			DegradedPenalty: spec.DegradedPenalty,
		}
		if a := r.Candidates[r.Selected].Arch; a != nil {
			sel.Arch = a.Name
		}
		out.Selection = sel
	}
	return out, nil
}
