package report

import (
	"bytes"
	"encoding/json"
)

// JSONCandidate is the machine-readable projection of one evaluated
// design point. It is deliberately flat and free of non-deterministic
// fields (no timestamps, no pointers, no job identity) so that two runs
// over the same space encode byte-identically — the service layer's
// drain/resume contract compares reports with bytes.Equal.
type JSONCandidate struct {
	Index    int     `json:"index"`
	Arch     string  `json:"arch"`
	Feasible bool    `json:"feasible"`
	Reason   string  `json:"reason,omitempty"`
	Area     float64 `json:"area,omitempty"`
	Cycles   int     `json:"cycles,omitempty"`
	Clock    float64 `json:"clock,omitempty"`
	ExecTime float64 `json:"exec_time,omitempty"`
	TestCost int     `json:"test_cost,omitempty"`
	FullScan int     `json:"full_scan,omitempty"`
	Spills   int     `json:"spills,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
}

// JSONSelection describes the figure-9 choice and the norm that made it.
type JSONSelection struct {
	Index           int     `json:"index"`
	Arch            string  `json:"arch"`
	Norm            string  `json:"norm,omitempty"`
	WA              float64 `json:"wa,omitempty"`
	WT              float64 `json:"wt,omitempty"`
	WC              float64 `json:"wc,omitempty"`
	DegradedPolicy  string  `json:"degraded_policy,omitempty"`
	DegradedPenalty float64 `json:"degraded_penalty,omitempty"`
}

// JSONResult is the exploration's full machine-readable report: every
// candidate in enumeration order, the feasible set and both Pareto
// fronts as indexes into it, and the selection. Like JSONCandidate it
// carries only deterministic run data, so a resumed exploration that
// covers the same space reproduces the report byte for byte.
type JSONResult struct {
	Workload   string          `json:"workload,omitempty"`
	Width      int             `json:"width"`
	Seed       int64           `json:"seed"`
	Candidates []JSONCandidate `json:"candidates"`
	Feasible   []int           `json:"feasible"`
	Front2D    []int           `json:"front2d"`
	Front3D    []int           `json:"front3d"`
	Selected   int             `json:"selected"`
	Verified   bool            `json:"verified,omitempty"`
	// Partial marks a report built from an interrupted exploration
	// (context cancelled or deadline hit); Missing counts the
	// candidates that were never evaluated.
	Partial bool `json:"partial,omitempty"`
	Missing int  `json:"missing,omitempty"`

	Selection *JSONSelection `json:"selection,omitempty"`
}

// Encode renders the result as stable, indented JSON with a trailing
// newline. Struct-driven encoding keeps field order fixed, so equal
// results encode to equal bytes.
func (r *JSONResult) Encode() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
