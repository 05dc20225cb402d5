package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/testcost"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	setup     func(ctx context.Context, o *options, dir string) (*instance, error)
}

// instance is a workload after set-up: ready to run timed operations.
type instance struct {
	// clients is the closed loop's client count; nextSeq is each
	// client's next operation number, kept across loops so the traced
	// pass continues a client's sequence instead of repeating it.
	clients int
	nextSeq []int
	// roundOps, when positive, splits the loop into rounds of that many
	// operations; beginRound and endRound run untimed around each.
	roundOps   int
	beginRound func(ctx context.Context) error
	endRound   func(ctx context.Context, chk *checker) error
	// refs are report digests known before timing, by output key.
	refs map[string]string
	// op runs operation seq of client and returns its output key and
	// report bytes; operations with equal keys must report equal bytes.
	op func(ctx context.Context, client, seq int, sp spanRef) (key string, out []byte, err error)
	// verify runs the untimed output checks that follow the loop, given
	// the digest of every key the loop saw.
	verify func(ctx context.Context, sums map[string]string) error
	// cases are the representative operations the traced pass replays.
	cases []replayCase
	// extra returns traced numbers only this workload has (nil allowed).
	extra func(tr *tracer) map[string]metric
	close func()
	// dir is the run's scratch directory, removed by close.
	dir string
}

var workloads = []workload{
	{
		name: "sweep_cold",
		why:  "paper default 288-candidate sweep on a fresh annotator: gate-level ATPG (PODEM on the ripple ALU) is the long pole",
		setup: func(ctx context.Context, o *options, dir string) (*instance, error) {
			return setupSweep(ctx, o, false, coldSweepSeeds)
		},
	},
	{
		name: "sweep_warm",
		why:  "the same sweep on an annotator loaded from a warm cache: ATPG is bypassed, list scheduling dominates",
		setup: func(ctx context.Context, o *options, dir string) (*instance, error) {
			return setupSweep(ctx, o, true, warmSweepSeeds)
		},
	},
	{
		name:  "search",
		why:   "guided GA search over the widened 28M-genome space on a warm annotator: the bound-tier screen and scheduling of wide architectures",
		setup: setupSearch,
	},
	{
		name:  "daemon_mix",
		why:   "mixed jobs over loopback HTTP from 2 clients: service, JSON, per-job checkpoint writes and restores, shared warm annotator",
		setup: setupDaemon,
	},
}

// Anchor seeds: the paper's ATPG seed and the GA seed of the repository's
// recorded 100k-genome guided search (BENCH_front.json). Every run
// includes them, so the pinned digests are checked at any workload seed.
const (
	paperSeed  = 7
	searchSeed = 11
)

// A run cycles through a few program seeds: the anchor plus seeds drawn
// from the workload seed. Cost depends on the seed (PODEM's search, the
// GA's trajectory: a warm search costs up to ±20% more or less from seed
// to seed), so a run reports a mix, and runs at different workload seeds
// measure comparable mixes. A warm sweep's cost barely depends on the
// ATPG seed, and each of its seeds costs a cold sweep in set-up, so it
// uses two.
const (
	coldSweepSeeds = 4
	warmSweepSeeds = 2
	searchSeeds    = 8
)

// splitmix is the SplitMix64 finalizer, a fixed seed-to-seed mapping.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeeds returns anchor followed by k-1 positive seeds drawn from the
// workload seed.
func subSeeds(seed, anchor int64, k int) []int64 {
	out := []int64{anchor}
	for i := 1; i < k; i++ {
		out = append(out, 1+int64(splitmix(uint64(seed)<<8|uint64(i))%999_999))
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newAnnotator returns an empty annotator for spec's width and seed.
func newAnnotator(spec jobspec.Spec) *testcost.Annotator {
	w, s := spec.Width, spec.Seed
	if w == 0 {
		w = 16
	}
	if s == 0 {
		s = paperSeed
	}
	return testcost.NewAnnotator(w, s)
}

// loadAnnotator returns an annotator for spec warmed from blob.
func loadAnnotator(spec jobspec.Spec, blob []byte) (*testcost.Annotator, error) {
	ann := newAnnotator(spec)
	if err := ann.Load(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("loading warm annotator: %w", err)
	}
	return ann, nil
}

func saveAnnotator(ann *testcost.Annotator) ([]byte, error) {
	var buf bytes.Buffer
	if err := ann.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runSpec explores spec on ann along the path ttadse and ttadsed share —
// dse.FromSpec, a core.Study, Reselect for a custom selection, the JSON
// report — with the exploration inside a "dse.explore" span.
func runSpec(ctx context.Context, spec jobspec.Spec, ann *testcost.Annotator, reg *obs.Registry, sp spanRef) ([]byte, *core.Study, error) {
	cfg, sel, err := dse.FromSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	cfg.Annotator = ann
	cfg.Obs = reg
	study := core.NewStudyWithConfig(cfg)
	if _, err := sp.do("dse.explore", func() error { return study.ExploreContext(ctx) }); err != nil {
		return nil, nil, err
	}
	if sel != (dse.SelectionSpec{}) {
		if err := study.Reselect(sel); err != nil {
			return nil, nil, err
		}
	}
	jr, err := study.JSONResult(sel)
	if err != nil {
		return nil, nil, err
	}
	out, err := jr.Encode()
	return out, study, err
}

// validReport checks that out is a complete report: not partial, with a
// selection.
func validReport(out []byte) error {
	var r report.JSONResult
	if err := json.Unmarshal(out, &r); err != nil {
		return fmt.Errorf("report does not decode: %w", err)
	}
	if r.Partial || r.Missing > 0 || r.Selection == nil || len(r.Candidates) == 0 {
		return fmt.Errorf("incomplete report (partial %v, missing %d, %d candidates, selection %v)",
			r.Partial, r.Missing, len(r.Candidates), r.Selection != nil)
	}
	return nil
}

// reference runs spec once, untimed, checks the report is complete and
// returns its digest.
func reference(ctx context.Context, spec jobspec.Spec, ann *testcost.Annotator) (string, error) {
	out, _, err := runSpec(ctx, spec, ann, nil, spanRef{})
	if err != nil {
		return "", err
	}
	if err := validReport(out); err != nil {
		return "", err
	}
	return digest(out), nil
}

// checkPin compares a digest with its pin; a pin the table does not
// hold is not checked.
func checkPin(pins map[string]string, name, got string) error {
	want, ok := pins[name]
	if !ok || got == "" {
		return nil
	}
	if got != want {
		return fmt.Errorf("pin %s: report sha256 %s, pinned %s", name, got, want)
	}
	return nil
}

// checker holds the digest of every output key: the first report of a
// key (or its reference from set-up) fixes the bytes every later report
// of that key must reproduce.
type checker struct {
	mu   sync.Mutex
	sums map[string]string
	errs []error
}

func newChecker(refs map[string]string) *checker {
	c := &checker{sums: make(map[string]string, len(refs))}
	for k, v := range refs {
		c.sums[k] = v
	}
	return c
}

func (c *checker) check(key string, out []byte) error {
	sum := digest(out)
	c.mu.Lock()
	want, seen := c.sums[key]
	if !seen {
		c.sums[key] = sum
	}
	c.mu.Unlock()
	if !seen {
		return validReport(out)
	}
	if sum != want {
		return fmt.Errorf("%s: report sha256 %s differs from the first report's %s", key, sum, want)
	}
	return nil
}

// note keeps the first few failures for the log.
func (c *checker) note(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err)
	}
}

// sum returns the digest recorded for key.
func (c *checker) sum(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sums[key]
	return s, ok
}

func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.sums))
	for k, v := range c.sums {
		out[k] = v
	}
	return out
}

// setupSweep prepares the default crypt sweep at k ATPG seeds.
// Cold operations start from an empty annotator; warm ones Load the
// seed's annotator state first, as ttadse -cache does. The set-up runs
// one untimed sweep per seed a warm run needs (its reference report and
// warm state) and one warm-up sweep for a cold run.
func setupSweep(ctx context.Context, o *options, warm bool, k int) (*instance, error) {
	seeds := subSeeds(o.seed, paperSeed, k)
	specs := make([]jobspec.Spec, len(seeds))
	blobs := make([][]byte, len(seeds))
	refs := make(map[string]string)
	key := func(i int) string { return fmt.Sprintf("sweep/seed%d", seeds[i]) }
	for i, s := range seeds {
		specs[i] = jobspec.Spec{Seed: s}
		if !warm && i > 0 {
			continue
		}
		ann := newAnnotator(specs[i])
		sum, err := reference(ctx, specs[i], ann)
		if err != nil {
			return nil, err
		}
		refs[key(i)] = sum
		if blobs[i], err = saveAnnotator(ann); err != nil {
			return nil, err
		}
	}
	inst := &instance{
		clients: 1,
		nextSeq: make([]int, 1),
		refs:    refs,
		cases:   []replayCase{{spec: specs[0], blob: blobs[0], cold: !warm}},
	}
	inst.op = func(ctx context.Context, _, seq int, sp spanRef) (string, []byte, error) {
		i := seq % len(specs)
		ann := newAnnotator(specs[i])
		if warm {
			var err error
			if ann, err = loadAnnotator(specs[i], blobs[i]); err != nil {
				return "", nil, err
			}
		}
		out, _, err := runSpec(ctx, specs[i], ann, nil, sp)
		return key(i), out, err
	}
	inst.verify = func(ctx context.Context, sums map[string]string) error {
		if err := checkPin(o.pins, "sweep/seed7", sums[key(0)]); err != nil {
			return err
		}
		if warm {
			// Every warm report was compared with the cold reference.
			return nil
		}
		// A cold report is re-derived serially: it must not depend on
		// the parallelism it ran at.
		for i := 1; i < len(specs); i++ {
			want, ok := sums[key(i)]
			if !ok {
				continue
			}
			spec := specs[i]
			spec.Parallelism = 1
			got, err := reference(ctx, spec, newAnnotator(spec))
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s: serial re-derivation sha256 %s, timed runs %s", key(i), got, want)
			}
		}
		return nil
	}
	return inst, nil
}

// setupSearch prepares guided searches at searchSeeds GA seeds over one
// shared annotator. The set-up runs each search once, untimed: that warms
// the annotator for every survivor class and yields the reference
// report, which the timed searches on the warm annotator must reproduce
// byte for byte (the screen never reads the exact cache).
func setupSearch(ctx context.Context, o *options, dir string) (*instance, error) {
	pop, gens := 64, 8
	if o.short {
		pop, gens = 50, 2
	}
	seeds := subSeeds(o.seed, searchSeed, searchSeeds)
	specs := make([]jobspec.Spec, len(seeds))
	refs := make(map[string]string)
	key := func(i int) string { return fmt.Sprintf("search/p%dg%de20s%d", pop, gens, seeds[i]) }
	ann := testcost.NewAnnotator(16, paperSeed)
	for i, s := range seeds {
		specs[i] = jobspec.Spec{Search: &jobspec.SearchSpec{Population: pop, Generations: gens, Eta: 20, Seed: s}}
		sum, err := reference(ctx, specs[i], ann)
		if err != nil {
			return nil, err
		}
		refs[key(i)] = sum
	}
	blob, err := saveAnnotator(ann)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		clients: 1,
		nextSeq: make([]int, 1),
		refs:    refs,
		cases:   []replayCase{{spec: specs[0], blob: blob}},
	}
	inst.op = func(ctx context.Context, _, seq int, sp spanRef) (string, []byte, error) {
		i := seq % len(specs)
		out, _, err := runSpec(ctx, specs[i], ann, nil, sp)
		return key(i), out, err
	}
	inst.verify = func(ctx context.Context, sums map[string]string) error {
		return checkPin(o.pins, key(0), sums[key(0)])
	}
	return inst, nil
}
