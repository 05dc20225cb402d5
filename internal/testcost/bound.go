package testcost

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/tta"
)

// This file is the annotator's cheap fidelity tier. Guided search
// (dse.SearchSpec) screens thousands of candidates per generation; paying
// a gate-level ATPG run per distinct component at that volume would make
// the screen as expensive as the final evaluation. The bound tier
// replaces the measured pattern count with the analytical SCOAP bound
// (atpg.EstimateBound): a pure function of the netlist — deterministic,
// no search, no deadline — that is an upper bound on the converged n_p,
// so screening never flatters a candidate. Area and critical path need
// no tier of their own: AreaDelayContext serves both tiers with the
// netlist's values, whether a cached annotation or the netlist itself
// supplies them.
//
// Bound annotations live in their own map (Annotator.bounds), strictly
// separated from the main cache in both directions. Outward: the main
// cache feeds the warm-start persistence layer and must only ever hold
// converged measurements (cachefile.go already refuses degraded entries;
// separate maps remove the interaction entirely). Inward: the cheap tier
// never reads the exact cache either, even when a measurement is already
// sitting there — a bound annotation must be a pure function of the
// netlist, or the guided search's screening trajectory (and with it the
// whole survivor list) would depend on how warm a shared annotator
// happens to be: a daemon-pooled annotator, a warm-start cache file or a
// checkpoint resume would all steer the same seed to different
// candidates.

// componentBound fetches the cheap-tier annotation for a component: the
// memoized SCOAP bound, generating the netlist on first use.
func (a *Annotator) componentBound(ctx context.Context, c *tta.Component) (annotation, error) {
	if err := ctx.Err(); err != nil {
		return annotation{}, err
	}
	var buf [32]byte
	kb, err := a.appendComponentKey(buf[:0], c)
	if err != nil {
		return annotation{}, err
	}
	a.mu.Lock()
	if an, ok := a.bounds[string(kb)]; ok {
		a.mu.Unlock()
		a.Obs.Counter("testcost.bound.hit").Inc()
		return a.marchOverride(c, an), nil
	}
	a.mu.Unlock()
	key := string(kb)
	a.Obs.Counter("testcost.bound.miss").Inc()
	comp, err := a.componentNetlist(a.Lib, c)
	if err != nil {
		return annotation{}, fmt.Errorf("testcost: bound tier generating %s: %w", key, err)
	}
	b := atpg.EstimateBound(comp.Seq)
	an := annotation{
		np:       b.Patterns,
		nl:       comp.SeqFFs(),
		coverage: b.Coverage(),
		scanNP:   b.Patterns,
		degraded: true,
	}
	a.mu.Lock()
	if a.bounds == nil {
		a.bounds = make(map[string]annotation)
	}
	// Concurrent misses for one key compute the identical pure bound;
	// last-writer-wins is deterministic.
	a.bounds[key] = an
	a.mu.Unlock()
	return a.marchOverride(c, an), nil
}

// EvaluateBoundContext is the cheap-tier counterpart of EvaluateContext:
// the same eq. (14) cost assembly, but component pattern counts come
// from componentBound instead of converged ATPG measurements. The
// returned ArchCost is always marked Degraded; its Total is an upper
// bound on (never below) the EvaluateContext total for the same
// architecture, and a pure function of it — independent of what the
// exact cache holds. Socket annotation still runs the one-time real
// socket ATPG — sockets are tiny, shared by every candidate, and their
// measured n_p anchors the f_ts term for both tiers.
func (a *Annotator) EvaluateBoundContext(ctx context.Context, arch *tta.Architecture) (*ArchCost, error) {
	return a.evaluateWith(ctx, arch, a.componentBound)
}
