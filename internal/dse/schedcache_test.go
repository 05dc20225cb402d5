package dse_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/testcost"
)

// cacheRun explores spec on ann, sharing schedules through cache when it
// is non-nil, and returns the encoded JSON report and the run's metrics.
func cacheRun(t *testing.T, ctx context.Context, spec jobspec.Spec, ann *testcost.Annotator, cache *dse.ScheduleCache) ([]byte, *obs.Registry, error) {
	t.Helper()
	cfg, sel, err := dse.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Annotator, cfg.Schedules, cfg.Obs = ann, cache, reg
	study := core.NewStudyWithConfig(cfg)
	runErr := study.ExploreContext(ctx)
	jr, err := study.JSONResult(sel)
	if err != nil {
		return nil, reg, errors.Join(runErr, err)
	}
	b, err := jr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b, reg, runErr
}

// defaultStructures is the number of distinct structures of the default
// sweep: 4 bus counts x 3 ALU counts x 2 CMP counts x 6 register-file
// sets (the two assignments share each).
const defaultStructures = 4 * 3 * 2 * 6

// TestScheduleCacheReportsEqualUncached explores the default sweep of
// each job workload twice on one cache shared by all five kernels, and
// once without a cache. Both cached reports must equal the uncached one
// byte for byte, so no kernel's outcome ever serves another's, and the
// second sweep must schedule nothing: every structure is one shared
// hit. Then a guided search on the same cache,
// twice, must report what it reports uncached, and its second pass must
// schedule nothing.
func TestScheduleCacheReportsEqualUncached(t *testing.T) {
	ctx := context.Background()
	ann := testcost.NewAnnotator(16, 7)
	cache := new(dse.ScheduleCache)
	for _, w := range jobspec.Workloads {
		spec := jobspec.Spec{Workload: w}
		want, _, err := cacheRun(t, ctx, spec, ann, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			got, reg, err := cacheRun(t, ctx, spec, ann, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s pass %d: report differs from the uncached run", w, pass)
			}
			hit, miss := reg.Counter("dse.sched.shared.hit").Value(), reg.Counter("dse.sched.shared.miss").Value()
			runs := reg.Counter("sched.runs").Value()
			if hit+miss != defaultStructures || runs != miss {
				t.Errorf("%s pass %d: %d hits + %d misses, %d runs; want %d lookups and one run per miss",
					w, pass, hit, miss, runs, defaultStructures)
			}
			if pass == 2 && (runs != 0 || hit != defaultStructures) {
				t.Errorf("%s second sweep: sched.runs %d, shared hits %d; want 0 and %d", w, runs, hit, defaultStructures)
			}
		}
	}
	if got, want := cache.Len(), len(jobspec.Workloads)*defaultStructures; got != want {
		t.Errorf("cache holds %d outcomes, want %d (five kernels x the default structures)", got, want)
	}

	// The search's structures (other adders and register files) are not
	// the sweep's: its first pass on the cache schedules them, its second
	// schedules nothing.
	search := jobspec.Spec{Search: &jobspec.SearchSpec{Population: 64, Generations: 8, Eta: 20, Seed: 11}}
	want, _, err := cacheRun(t, ctx, search, ann, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		got, reg, err := cacheRun(t, ctx, search, ann, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("guided search pass %d on the cache: report differs from the uncached run", pass)
		}
		if runs := reg.Counter("sched.runs").Value(); pass == 2 && (runs != 0 || reg.Counter("dse.sched.shared.hit").Value() == 0) {
			t.Errorf("second guided search: sched.runs %d, want 0, all shared hits", runs)
		}
	}
}

// kernels builds the five job workloads' graphs.
func kernels(t *testing.T) map[string]*program.Graph {
	t.Helper()
	out := map[string]*program.Graph{}
	for _, w := range jobspec.Workloads {
		cfg, _, err := dse.FromSpec(jobspec.Spec{Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		out[w] = cfg.Workload
	}
	return out
}

// TestKernelDigest: two independent builds of each workload digest
// alike, whatever their names, and changing any one field of one op, one
// output or the width changes the digest.
func TestKernelDigest(t *testing.T) {
	first, second := kernels(t), kernels(t)
	seen := map[[32]byte]string{}
	for _, w := range jobspec.Workloads {
		g := first[w]
		d := dse.KernelDigest(g)
		if dse.KernelDigest(second[w]) != d {
			t.Errorf("%s: two builds digest differently", w)
		}
		if other, ok := seen[d]; ok {
			t.Errorf("%s and %s share a digest", w, other)
		}
		seen[d] = w
		renamed := *g
		renamed.Name = "renamed"
		if dse.KernelDigest(&renamed) != d {
			t.Errorf("%s: the name changed the digest", w)
		}

		mutants := map[string]func(g *program.Graph){
			"width":   func(g *program.Graph) { g.Width++ },
			"output":  func(g *program.Graph) { g.Outputs[0]++ },
			"op":      func(g *program.Graph) { g.Ops[len(g.Ops)-1].Op ^= 1 },
			"a":       func(g *program.Graph) { g.Ops[len(g.Ops)-1].A++ },
			"b":       func(g *program.Graph) { g.Ops[len(g.Ops)-1].B++ },
			"imm":     func(g *program.Graph) { g.Ops[0].Imm++ },
			"mempred": func(g *program.Graph) { g.Ops[len(g.Ops)-1].MemPred++ },
		}
		for field, mutate := range mutants {
			m := *g
			m.Ops = append([]program.Operation(nil), g.Ops...)
			m.Outputs = append([]program.ValueID(nil), g.Outputs...)
			mutate(&m)
			if dse.KernelDigest(&m) == d {
				t.Errorf("%s: changing the %s left the digest", w, field)
			}
		}
	}
}

// cutCtx is a context that ends after its Err has been asked a given
// number of times. The scheduler polls Err as it runs, so a one-worker
// exploration under it is cut short at a deterministic point.
type cutCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCutCtx(polls int64) *cutCtx {
	c := &cutCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(polls)
	return c
}

func (c *cutCtx) Done() <-chan struct{} { return c.done }

func (c *cutCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestScheduleCacheStoresNoContextError cuts a one-worker sweep short
// inside a schedule: it tries later and later cut points until a run
// makes one more lookup than the cache holds, so the cut schedule was
// not stored. The same sweep afterwards on that cache must report what
// an uncached sweep reports.
func TestScheduleCacheStoresNoContextError(t *testing.T) {
	ann := testcost.NewAnnotator(16, 7)
	spec := jobspec.Spec{Parallelism: 1}
	want, _, err := cacheRun(t, context.Background(), spec, ann, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cache *dse.ScheduleCache
	for polls := int64(20); cache == nil; polls += 7 {
		if polls > 2000 {
			t.Fatal("no cut point fell inside a schedule")
		}
		c := new(dse.ScheduleCache)
		_, reg, err := cacheRun(t, newCutCtx(polls), spec, ann, c)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut after %d polls: error %v, want context.Canceled", polls, err)
		}
		if reg.Counter("dse.sched.shared.miss").Value() == int64(c.Len())+1 {
			cache = c
		}
	}
	stored := cache.Len()
	got, reg, err := cacheRun(t, context.Background(), spec, ann, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the sweep after a cut run on its cache: report differs from the uncached run")
	}
	if hit := reg.Counter("dse.sched.shared.hit").Value(); hit != int64(stored) {
		t.Errorf("%d shared hits, want the %d outcomes the cut run stored", hit, stored)
	}
}

// TestScheduleCacheStopsAtCap: with a cap of 10, a sweep stores 10
// outcomes and no more, a second sweep hits exactly those, and both
// report what an uncached sweep reports.
func TestScheduleCacheStopsAtCap(t *testing.T) {
	ctx := context.Background()
	ann := testcost.NewAnnotator(16, 7)
	spec := jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1, 2}, CMPs: []int{1}}
	want, _, err := cacheRun(t, ctx, spec, ann, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := new(dse.ScheduleCache)
	dse.SetScheduleCacheCap(cache, 10)
	for pass := 1; pass <= 2; pass++ {
		got, reg, err := cacheRun(t, ctx, spec, ann, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d at the cap: report differs from the uncached run", pass)
		}
		if n := cache.Len(); n != 10 {
			t.Fatalf("pass %d: cache holds %d outcomes, want the cap 10", pass, n)
		}
		if hit := reg.Counter("dse.sched.shared.hit").Value(); pass == 2 && hit != 10 {
			t.Errorf("pass 2: %d shared hits, want 10", hit)
		}
	}
}
