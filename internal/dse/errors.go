package dse

import (
	"fmt"
	"sort"
)

// EvalPanicError is the per-candidate record of a recovered evaluation
// panic: the worker isolated it, counted it on "dse.eval.panics" and
// kept sweeping. Value is what the goroutine panicked with; Stack the
// captured stack trace.
type EvalPanicError struct {
	Arch  string // candidate architecture name
	Value any
	Stack []byte
}

func (e *EvalPanicError) Error() string {
	return fmt.Sprintf("dse: evaluating %s panicked: %v", e.Arch, e.Value)
}

// PartialError reports an exploration that ended with holes: some
// candidates panicked, failed, or were never reached before the context
// died. The accompanying *Result is still usable — fronts and selection
// are computed over the candidates that did evaluate — so callers can
// salvage the sweep instead of losing every finished evaluation.
//
// Unwrap exposes the underlying cause (ctx.Err() for a timeout or
// cancellation, else the first evaluation error), so
// errors.Is(err, context.DeadlineExceeded) distinguishes a run that ran
// out of time from one that hit hard failures.
type PartialError struct {
	// Total counts enumerated candidates; Evaluated the ones whose
	// evaluation completed without error; Panics the recovered panics.
	Total     int
	Evaluated int
	Panics    int
	// Errs maps candidate index to its evaluation error (panics
	// included, as *EvalPanicError). Candidates missing from both Errs
	// and the evaluated set were never started (the context ended
	// before a worker claimed them).
	Errs map[int]error
	// Cause is the context error when the run was cut short by its
	// context, else the first per-candidate error in candidate order.
	Cause error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("dse: partial exploration: %d/%d candidates evaluated (%d errors, %d panics): %v",
		e.Evaluated, e.Total, len(e.Errs), e.Panics, e.Cause)
}

func (e *PartialError) Unwrap() error { return e.Cause }

// firstErr returns the error of the lowest-indexed failed candidate —
// a deterministic representative cause at any parallelism.
func firstErr(errs map[int]error) error {
	if len(errs) == 0 {
		return nil
	}
	keys := make([]int, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return errs[keys[0]]
}
