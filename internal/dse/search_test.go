package dse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// searchTestConfig returns a small guided exploration sharing ann (so
// repeated runs in one test reuse the ATPG cache).
func searchTestConfig(ann *testcost.Annotator, parallelism int) (Config, error) {
	cfg, err := DefaultConfig()
	if err != nil {
		return Config{}, err
	}
	cfg.Annotator = ann
	cfg.Parallelism = parallelism
	cfg.Search = &SearchSpec{Population: 12, Generations: 3, Eta: 3, Seed: 99}
	return cfg, nil
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestCheapEvalAllocs bounds what screening one genome allocates once its
// structure is in the memo and its bound annotations are cached: the
// genome's architecture, its structure key and the cost breakdown (the
// component keys index the caches without allocating). Port index lists
// or fmt-built strings per component would exceed the bound. A genome
// whose structure a sealed schedule serves stays under the same bound:
// reuse adds the schedule class key, the memo entry and its latch, and
// no schedule.
func TestCheapEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	g := genome{
		buses: 4, alus: 2, cmps: 1, adder: gatelib.AdderCarrySelect,
		rfs:    []RFSpec{{Regs: 8, In: 1, Out: 2}, {Regs: 12, In: 2, Out: 3}},
		assign: tta.SpreadFirst,
	}
	ctx := context.Background()
	memo := memoFor(t, cfg.Workload)
	if res := cheapEvalOne(ctx, &cfg, &g, memo, nil); !res.feasible || res.err != nil {
		t.Fatalf("genome %s: feasible %t, error %v", g.key(), res.feasible, res.err)
	}
	allocs := testing.AllocsPerRun(50, func() { cheapEvalOne(ctx, &cfg, &g, memo, nil) })
	t.Logf("%s: %.0f allocations per screened genome", g.key(), allocs)
	if allocs > 40 {
		t.Errorf("screening a memoized genome allocates %.0f times, want at most 40", allocs)
	}

	// Reuse: the sealed schedule of g on 12 buses, whose busiest cycle
	// moves 5, serves g on 16 buses with the other adder. Each run drops
	// that genome's entry first, so every run takes the reuse path.
	src := g
	src.buses = 12
	if res := cheapEvalOne(ctx, &cfg, &src, memo, nil); !res.feasible || res.err != nil {
		t.Fatalf("genome %s: feasible %t, error %v", src.key(), res.feasible, res.err)
	}
	memo.seal()
	wide := src
	wide.buses, wide.adder = 16, gatelib.AdderRipple
	key := structKey(wide.arch(cfg.Width, 0))
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if res := cheapEvalOne(ctx, &cfg, &wide, memo, nil); !res.feasible || res.err != nil {
		t.Fatalf("genome %s: feasible %t, error %v", wide.key(), res.feasible, res.err)
	}
	if reuse := reg.Counter("dse.sched.memo.reuse").Value(); reuse != 1 {
		t.Fatalf("%s: dse.sched.memo.reuse = %d, want 1", wide.key(), reuse)
	}
	cfg.Obs = nil
	allocs = testing.AllocsPerRun(50, func() {
		delete(memo.m, key)
		cheapEvalOne(ctx, &cfg, &wide, memo, nil)
	})
	t.Logf("%s: %.0f allocations per genome served by reuse", wide.key(), allocs)
	if allocs > 40 {
		t.Errorf("screening a genome served by reuse allocates %.0f times, want at most 40", allocs)
	}
}

// TestGenomeStringsMatchFormat pins the genome key, the architecture
// name and the component names to their fmt formats: the key orders ties
// in the screen, and names reach reports and checkpoint keys.
func TestGenomeStringsMatchFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		g := randGenome(rng)
		var key strings.Builder
		fmt.Fprintf(&key, "b%02d/a%d/c%d/%s/%s", g.buses, g.alus, g.cmps, g.adder, g.assign)
		for _, rf := range g.rfs {
			fmt.Fprintf(&key, "/rf%02dx%dw%dr", rf.Regs, rf.In, rf.Out)
		}
		if got := g.key(); got != key.String() {
			t.Fatalf("key %q, fmt gives %q", got, key.String())
		}
		index := []int{0, 7, 42, 999, 123456, 1234567}[i%6]
		a := g.arch(16, index)
		if want := fmt.Sprintf("s%06d_b%d_a%d_c%d_%s", index, g.buses, g.alus, g.cmps, g.assign); a.Name != want {
			t.Fatalf("name %q, fmt gives %q", a.Name, want)
		}
		var names []string
		for j := 1; j <= g.alus; j++ {
			names = append(names, fmt.Sprintf("ALU%d", j))
		}
		for j := 1; j <= g.cmps; j++ {
			names = append(names, fmt.Sprintf("CMP%d", j))
		}
		for j := range g.rfs {
			names = append(names, fmt.Sprintf("RF%d", j+1))
		}
		names = append(names, "LD/ST", "PC", "Immediate")
		for ci, c := range a.Components {
			if c.Name != names[ci] {
				t.Fatalf("%s: component %d named %q, want %q", a.Name, ci, c.Name, names[ci])
			}
		}
	}
}

func TestSearchSpaceSize(t *testing.T) {
	// 16 buses x 8 ALUs x 4 CMPs x 2 adders x 3 assigns x 9138 RF
	// multisets (36 shapes, sizes 1..3: 36 + 666 + 8436).
	const want = 28071936
	if got := SearchSpaceSize(); got != want {
		t.Fatalf("SearchSpaceSize() = %d, want %d", got, want)
	}
}

// TestGenomeOperatorsStayInRange: every genome the GA can produce is
// well-formed — genes in range, 1..3 register files, canonical order.
func TestGenomeOperatorsStayInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(g genome) {
		t.Helper()
		if g.buses < 1 || g.buses > searchMaxBuses {
			t.Fatalf("buses %d out of range", g.buses)
		}
		if g.alus < 1 || g.alus > searchMaxALUs {
			t.Fatalf("alus %d out of range", g.alus)
		}
		if g.cmps < 1 || g.cmps > searchMaxCMPs {
			t.Fatalf("cmps %d out of range", g.cmps)
		}
		if len(g.rfs) < 1 || len(g.rfs) > searchMaxRFs {
			t.Fatalf("%d register files", len(g.rfs))
		}
		for i, rf := range g.rfs {
			if rf.In < 1 || rf.In > searchMaxIn || rf.Out < 1 || rf.Out > searchMaxOut {
				t.Fatalf("rf ports %+v out of range", rf)
			}
			if i > 0 {
				p := g.rfs[i-1]
				if p.Regs > rf.Regs || (p.Regs == rf.Regs && (p.In > rf.In || (p.In == rf.In && p.Out > rf.Out))) {
					t.Fatalf("rfs not canonical: %v", g.rfs)
				}
			}
		}
		if a := g.arch(16, 0); a.Validate() != nil || !a.Assigned() {
			t.Fatalf("genome %s builds an invalid architecture", g.key())
		}
	}
	prev := randGenome(rng)
	check(prev)
	for i := 0; i < 500; i++ {
		g := randGenome(rng)
		check(g)
		check(crossover(rng, prev, g))
		check(mutate(rng, g))
		prev = g
	}
	// The canonical key collapses RF permutations.
	a := genome{buses: 2, alus: 1, cmps: 1, rfs: []RFSpec{{8, 1, 1}, {16, 2, 2}}}
	b := genome{buses: 2, alus: 1, cmps: 1, rfs: []RFSpec{{16, 2, 2}, {8, 1, 1}}}
	a.canon()
	b.canon()
	if a.key() != b.key() {
		t.Fatalf("RF permutations have distinct keys: %s vs %s", a.key(), b.key())
	}
}

// TestSearchDeterministicAcrossParallelism is the acceptance property:
// a fixed seed yields identical survivors, measurements, fronts and
// selection at any Parallelism, and schedules, reuses and memo lookups
// alike, which holds only while lookups read sealed schedules alone.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	ann := testcost.NewAnnotator(16, 7)
	type runResult struct {
		names    []string
		coords   [][]float64
		front2   []int
		front3   []int
		sel      int
		counters map[string]int64
	}
	run := func(parallelism int) runResult {
		t.Helper()
		cfg, err := searchTestConfig(ann, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg.Obs = reg
		res, err := ExploreContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := runResult{front2: res.Front2D, front3: res.Front3D, sel: res.Selected, counters: map[string]int64{}}
		for _, name := range []string{"sched.runs", "dse.sched.memo.hit", "dse.sched.memo.miss", "dse.sched.memo.reuse"} {
			out.counters[name] = reg.Counter(name).Value()
		}
		for i := range res.Candidates {
			c := &res.Candidates[i]
			out.names = append(out.names, c.Arch.Name)
			out.coords = append(out.coords, c.Coords())
		}
		return out
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("guided search differs across parallelism:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	if len(serial.names) == 0 {
		t.Fatal("search promoted no candidates")
	}
	t.Logf("counters: %v", serial.counters)
	if serial.counters["dse.sched.memo.reuse"] == 0 {
		t.Error("no schedule reused: the counters cannot show a lookup of an unsealed schedule")
	}
}

// TestScheduleMemoReuseMatchesUnshared runs a guided search at the
// benchmark's shape (population 64, 8 generations, eta 20, seed 11),
// generation by generation as searchCandidates does, and checks the memo
// entry of every structure it screened, reused ones included, against an
// unshared evalStructural of that structure, field for field.
func TestScheduleMemoReuseMatchesUnshared(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	unshared := cfg
	unshared.Obs = nil
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	pop := make([]genome, 64)
	for i := range pop {
		pop[i] = randGenome(rng)
	}
	memo := memoFor(t, cfg.Workload)
	keys := make([]string, len(pop))
	checked := map[string]bool{}
	for gen := 0; gen < 8; gen++ {
		res := evalCheap(ctx, &cfg, pop, memo, nil)
		memo.seal()
		for i := range pop {
			keys[i] = pop[i].key()
			arch := pop[i].arch(cfg.Width, 0)
			sk := structKey(arch)
			if arch.Validate() != nil || checked[sk] {
				continue
			}
			checked[sk] = true
			want, err := memoFor(t, unshared.Workload).evalStructural(ctx, &unshared, arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := memo.m[sk].val; got != want {
				t.Errorf("%s: memo entry %+v, unshared evaluation %+v", sk, got, want)
			}
		}
		order, fitness := rankGeneration(keys, res)
		pop = nextGeneration(rng, pop, order, fitness)
	}
	reuse := reg.Counter("dse.sched.memo.reuse").Value()
	t.Logf("%d structures checked, %d served by reuse, %d scheduled", len(checked), reuse, reg.Counter("sched.runs").Value())
	if reuse == 0 {
		t.Error("the search reused no schedule")
	}
}

// TestSearchCountersAndScreen: the search bookkeeping adds up — one
// generation counter per generation, promoted + pruned covering the full
// genome budget, promoted equaling the full-evaluation candidate list,
// and the cheap screen touching every genome without a single full-tier
// ATPG miss beyond the survivors' components.
func TestSearchCountersAndScreen(t *testing.T) {
	cfg, err := searchTestConfig(testcost.NewAnnotator(16, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	tr := NewFrontTrackerObs(reg)
	cfg.EventSink = tr.Observe
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := *cfg.Search
	if got := reg.Counter("dse.search.generations").Value(); got != int64(spec.Generations) {
		t.Errorf("generations counter = %d, want %d", got, spec.Generations)
	}
	budget := int64(spec.Population * spec.Generations)
	promoted := reg.Counter("dse.search.promoted").Value()
	pruned := reg.Counter("dse.search.pruned").Value()
	if promoted+pruned != budget {
		t.Errorf("promoted %d + pruned %d != genome budget %d", promoted, pruned, budget)
	}
	if int64(len(res.Candidates)) != promoted {
		t.Errorf("%d full-tier candidates, %d promoted", len(res.Candidates), promoted)
	}
	if got := reg.Counter("dse.search.cheap_evals").Value(); got != budget {
		t.Errorf("cheap_evals = %d, want %d", got, budget)
	}
	if reg.Counter("testcost.bound.miss").Value() == 0 {
		t.Error("the screen never used the bound tier")
	}
	// The live tracker followed the full-tier pipeline: survivors only.
	evaluated, total := tr.Progress()
	if evaluated != len(res.Candidates) || total != len(res.Candidates) {
		t.Errorf("tracker progress %d/%d, want %d/%d", evaluated, total, len(res.Candidates), len(res.Candidates))
	}
	snap := tr.Snapshot()
	if len(snap.Front3D) != len(res.Front3D) {
		t.Errorf("live front %d members, batch %d", len(snap.Front3D), len(res.Front3D))
	}
}

// TestSearchRejectsBadSpec: invalid search parameters are configuration
// errors, reported before any evaluation runs.
func TestSearchRejectsBadSpec(t *testing.T) {
	for _, spec := range []SearchSpec{
		{Population: -1},
		{Generations: -2},
		{Eta: -3},
		{Eta: 1},
	} {
		cfg, err := DefaultConfig()
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		cfg.Search = &s
		if _, err := ExploreContext(context.Background(), cfg); err == nil {
			t.Errorf("spec %+v: want configuration error", spec)
		}
	}
}

// TestSearchUtilizationGauge: a search publishes the screen's worker
// utilization, busy worker time over workers × the screen's wall time,
// in (0, 1] when it completes and on every other exit path too; a sweep
// leaves the gauge unset.
func TestSearchUtilizationGauge(t *testing.T) {
	const name = "dse.search.worker.utilization"
	explore := func(ctx context.Context, cfg Config) (map[string]float64, error) {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		_, err := ExploreContext(ctx, cfg)
		return reg.Snapshot().Gauges, err
	}
	ann := testcost.NewAnnotator(16, 7)
	for _, parallelism := range []int{1, 2} {
		cfg, err := searchTestConfig(ann, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		gauges, err := explore(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := gauges[name]
		if !ok || u <= 0 || u > 1 {
			t.Errorf("parallelism %d: %s = %v (set %v), want in (0, 1]", parallelism, name, u, ok)
		}
		t.Logf("parallelism %d: %s = %.3f", parallelism, name, u)
	}

	cfg, err := searchTestConfig(ann, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Search.Eta = 1
	if gauges, err := explore(context.Background(), cfg); err == nil {
		t.Error("eta 1 accepted")
	} else if _, ok := gauges[name]; !ok {
		t.Errorf("%s unset after a configuration error", name)
	}
	cfg.Search.Eta = 3
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if gauges, err := explore(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search: err = %v, want context.Canceled", err)
	} else if _, ok := gauges[name]; !ok {
		t.Errorf("%s unset after a cancelled search", name)
	}

	gauges, err := explore(context.Background(), smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := gauges[name]; ok {
		t.Errorf("a sweep set %s to %v", name, g)
	}
}
