// Package jobspec defines the serializable description of one
// exploration job — the single source of truth shared by the ttadse CLI
// (flags map 1:1 onto Spec fields) and the ttadsed daemon (the POST
// /v1/jobs body IS a Spec), so the two surfaces can never drift.
//
// A Spec carries only JSON-serializable values: workload and space knobs,
// selection norm and weights, cache/checkpoint paths, deadlines and
// worker budgets. It deliberately carries no live objects (annotators,
// registries, contexts) — those are wired by the consumer
// (dse.FromSpec + the caller), which keeps a Spec safe to persist, log,
// and replay.
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// Workload names accepted by Spec.Workload ("" means crypt, the paper's
// application). The builders live in internal/crypt and
// internal/workloads; dse.FromSpec resolves names to graphs.
var Workloads = []string{"crypt", "crc16", "vecmax", "countbelow", "checksum"}

// Norm names accepted by Spec.Norm ("" means euclid).
var Norms = []string{"euclid", "manhattan", "chebyshev"}

// DegradedPolicies accepted by Spec.DegradedPolicy ("" means allow).
var DegradedPolicies = []string{"allow", "penalize", "exclude"}

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms", "2m30s") and unmarshals from either a string or a number of
// nanoseconds — human-writable in curl bodies, exact in round-trips.
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobspec: invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("jobspec: duration must be a string like \"30s\" or nanoseconds: %s", data)
	}
	*d = Duration(ns)
	return nil
}

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String renders the value like time.Duration ("150ms", "2m30s").
func (d Duration) String() string { return time.Duration(d).String() }

// Spec is one exploration job, fully serializable. The zero value
// describes the paper's default study (crypt workload, full 288-candidate
// space, equal-weight Euclidean selection, no budgets).
type Spec struct {
	// Workload selects the application kernel: crypt (default), crc16,
	// vecmax, countbelow or checksum.
	Workload string `json:"workload,omitempty"`

	// Width and Seed parameterize the gate-level library annotation
	// (0 = the defaults, 16 and 7). Jobs sharing Width and Seed can share
	// one warm Annotator.
	Width int   `json:"width,omitempty"`
	Seed  int64 `json:"seed,omitempty"`

	// Buses, ALUs and CMPs span the explored space (empty = the paper's
	// defaults). Normalize sorts and deduplicates them.
	Buses []int `json:"buses,omitempty"`
	ALUs  []int `json:"alus,omitempty"`
	CMPs  []int `json:"cmps,omitempty"`

	// Norm and the weights drive the figure-9 selection:
	// euclid (default), manhattan or chebyshev; all-zero weights mean
	// equal (1,1,1).
	Norm string  `json:"norm,omitempty"`
	WA   float64 `json:"wa,omitempty"`
	WT   float64 `json:"wt,omitempty"`
	WC   float64 `json:"wc,omitempty"`

	// DegradedPolicy controls whether budget-degraded candidates may win
	// the selection: allow (default), penalize or exclude.
	// DegradedPenalty is the penalize multiplier (0 = default 2).
	DegradedPolicy  string  `json:"degraded_policy,omitempty"`
	DegradedPenalty float64 `json:"degraded_penalty,omitempty"`

	// Cache and Checkpoint are ignored: no code reads them. The ttadse
	// CLI takes its cache and checkpoint paths from its -cache and
	// -checkpoint flags, and the ttadsed daemon from its own -cache and
	// -checkpoint-dir flags (a job's checkpoint is named by its Hash).
	// The fields remain so that bodies carrying cache or checkpoint still
	// decode; Hash clears both.
	Cache      string `json:"cache,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`

	// Timeout bounds the whole exploration's wall clock (0 = none);
	// on expiry the completed subset is still reported. ATPGDeadline
	// budgets each gate-level ATPG run behind an annotation-cache miss;
	// an exhausted budget degrades that annotation to an analytical bound.
	Timeout      Duration `json:"timeout,omitempty"`
	ATPGDeadline Duration `json:"atpg_deadline,omitempty"`

	// Parallelism bounds the evaluation workers, which run the warm-up
	// jobs and then the candidates (0 = GOMAXPROCS). Results are
	// identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`

	// ATPGWorkers is ignored: each gate-level ATPG run executes on one
	// goroutine. The field remains so that bodies carrying atpg_workers
	// still decode; Validate accepts any value and Hash clears it.
	ATPGWorkers int `json:"atpg_workers,omitempty"`

	// LaneWidth is ignored: the fault simulator always runs 64 pattern
	// lanes. The field remains so that bodies carrying lane_width still
	// decode; Validate accepts any value and Hash clears it.
	LaneWidth int `json:"lane_width,omitempty"`

	// VerifySelected re-derives and simulates the selected candidate's
	// schedule after the exploration.
	VerifySelected bool `json:"verify_selected,omitempty"`

	// Search, when non-nil, switches the job from the exhaustive sweep to
	// the guided GA + successive-halving exploration over the widened
	// parameter space; Buses/ALUs/CMPs are then ignored. See
	// dse.SearchSpec for the engine semantics.
	Search *SearchSpec `json:"search,omitempty"`
}

// SearchSpec configures guided search (mirrors dse.SearchSpec field for
// field; kept separate so the wire format has no dependency on engine
// types). Zero fields take the engine defaults: population 64,
// 8 generations, eta 4, seed = Spec.Seed.
type SearchSpec struct {
	Population  int   `json:"population,omitempty"`
	Generations int   `json:"generations,omitempty"`
	Eta         int   `json:"eta,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
}

// Validate reports whether the spec describes a runnable job. It checks
// membership of the enum-like fields and the sign constraints the engine
// enforces, so both surfaces (CLI flag parsing, daemon POST body) reject
// bad inputs identically and before any work is spent.
func (s *Spec) Validate() error {
	if !member(s.Workload, Workloads) {
		return fmt.Errorf("jobspec: unknown workload %q (want %s)", s.Workload, oneOf(Workloads))
	}
	if !member(s.Norm, Norms) {
		return fmt.Errorf("jobspec: unknown norm %q (want %s)", s.Norm, oneOf(Norms))
	}
	if !member(s.DegradedPolicy, DegradedPolicies) {
		return fmt.Errorf("jobspec: unknown degraded policy %q (want %s)", s.DegradedPolicy, oneOf(DegradedPolicies))
	}
	if s.Width < 0 {
		return fmt.Errorf("jobspec: width %d is negative (use 0 for the default)", s.Width)
	}
	if s.Seed < 0 {
		return fmt.Errorf("jobspec: seed %d is negative (use 0 for the default)", s.Seed)
	}
	if s.WA < 0 || s.WT < 0 || s.WC < 0 {
		return fmt.Errorf("jobspec: selection weights must be non-negative (got wa=%g wt=%g wc=%g)", s.WA, s.WT, s.WC)
	}
	if s.DegradedPenalty != 0 && s.DegradedPenalty < 1 {
		return fmt.Errorf("jobspec: degraded penalty %g below 1 would favor unmeasured points", s.DegradedPenalty)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("jobspec: timeout %v is negative (use 0 for none)", s.Timeout.Std())
	}
	if s.ATPGDeadline < 0 {
		return fmt.Errorf("jobspec: atpg_deadline %v is negative (use 0 for no budget)", s.ATPGDeadline.Std())
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("jobspec: parallelism %d is negative (use 0 for GOMAXPROCS)", s.Parallelism)
	}
	for _, l := range []struct {
		name string
		vals []int
	}{{"buses", s.Buses}, {"alus", s.ALUs}, {"cmps", s.CMPs}} {
		for _, v := range l.vals {
			if v < 1 {
				return fmt.Errorf("jobspec: %s contains %d (want positive counts)", l.name, v)
			}
		}
	}
	if s.Search != nil {
		if s.Search.Population < 0 || s.Search.Generations < 0 || s.Search.Eta < 0 {
			return fmt.Errorf("jobspec: negative search parameter (population %d, generations %d, eta %d; use 0 for defaults)",
				s.Search.Population, s.Search.Generations, s.Search.Eta)
		}
		if s.Search.Eta == 1 {
			return fmt.Errorf("jobspec: search eta 1 promotes every genome and screens nothing (want >= 2, or 0 for the default)")
		}
		if s.Search.Seed < 0 {
			return fmt.Errorf("jobspec: search seed %d is negative (use 0 to follow the job seed)", s.Search.Seed)
		}
	}
	return nil
}

// Normalize replaces the space lists with sorted, deduplicated copies,
// exactly as the CLI's list flags always have: repeated or unordered
// values would otherwise enumerate (and evaluate) the same candidates
// twice. The arrays the lists shared with a caller keep their order. It
// is idempotent; Validate does not require it.
func (s *Spec) Normalize() {
	s.Buses = sortedUnique(s.Buses)
	s.ALUs = sortedUnique(s.ALUs)
	s.CMPs = sortedUnique(s.CMPs)
}

// Hash returns a short stable identity for the job's RESULT: two specs
// hash equal exactly when they describe the same deterministic report.
// The throughput knob (parallelism), the ignored ATPG workers and lane
// width, and I/O paths (cache, checkpoint) are excluded — results are
// byte-identical across all of them — as is Timeout, which changes only
// where a run may be cut off, never the converged bytes. ATPGDeadline stays in: a budgeted run
// records degraded annotations with different values. The hash names
// the daemon's checkpoint files, so a resubmitted spec finds its
// interrupted run's file at any parallelism.
func (s Spec) Hash() string {
	s.Parallelism = 0
	s.ATPGWorkers = 0
	s.LaneWidth = 0
	s.Cache = ""
	s.Checkpoint = ""
	s.Timeout = 0
	s.Normalize()
	b, err := json.Marshal(&s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("jobspec: marshal spec for hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// AnnotatorKey returns the identity of the warm annotation state this job
// can share: two specs with equal keys back-annotate from the same
// library configuration and may reuse one testcost.Annotator. The ATPG
// deadline is part of the key because a budgeted run may record degraded
// (bound, not measured) annotations that an unbudgeted run must not
// inherit.
func (s *Spec) AnnotatorKey() string {
	w := s.Width
	if w == 0 {
		w = 16
	}
	seed := s.Seed
	if seed == 0 {
		seed = 7
	}
	return fmt.Sprintf("w%d/s%d/d%s", w, seed, s.ATPGDeadline.Std())
}

// sortedUnique returns the distinct values of vals in ascending order,
// in a new array; an empty list is returned as it is.
func sortedUnique(vals []int) []int {
	if len(vals) == 0 {
		return vals
	}
	out := slices.Clone(vals)
	slices.Sort(out)
	return slices.Compact(out)
}

func member(v string, allowed []string) bool {
	if v == "" {
		return true
	}
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

func oneOf(vals []string) string {
	out := ""
	for i, v := range vals {
		switch {
		case i == 0:
		case i == len(vals)-1:
			out += " or "
		default:
			out += ", "
		}
		out += v
	}
	return out
}
