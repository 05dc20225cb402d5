package dse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// This file implements the guided exploration that replaces the
// exhaustive cross-product when Config.Search is set. The widened
// parameter ranges below span tens of millions of candidate templates —
// far past what the sweep can enumerate — so the space is searched
// instead: a seeded genetic algorithm (tournament selection, uniform
// crossover, per-gene mutation) proposes genomes, a successive-halving
// screen evaluates every genome on the cheap fidelity tier (deterministic
// scheduling plus the annotator's analytical SCOAP bound — no gate-level
// ATPG), and only the top ceil(Population/Eta) of each generation are
// promoted to the full evaluation pipeline (converged PODEM ATPG,
// checkpointing, live fronts, selection — identical to sweep mode).
//
// Determinism: the random number generator is consumed exclusively on the
// single-threaded control path (initial population, selection, crossover,
// mutation). Cheap evaluations run on a worker pool but are pure
// functions of the genome collected by index, and fitness normalization
// happens after the generation barrier — so a fixed Seed yields the same
// survivors, in the same order, at any Config.Parallelism.

// SearchSpec configures the guided GA + successive-halving exploration.
// The zero value of each field takes the default noted on it.
type SearchSpec struct {
	// Population is the number of genomes per generation (default 64).
	Population int
	// Generations is the number of GA generations (default 8). The cheap
	// tier screens Population×Generations genomes in total.
	Generations int
	// Eta is the successive-halving ratio: the best ceil(Population/Eta)
	// genomes of each generation are promoted to full evaluation
	// (default 4).
	Eta int
	// Seed seeds the GA's random number generator (default Config.Seed).
	// It is independent of the ATPG seed: the same design space searched
	// with a different Seed walks a different trajectory.
	Seed int64
}

func (s *SearchSpec) fillDefaults(cfgSeed int64) error {
	if s.Population < 0 || s.Generations < 0 || s.Eta < 0 {
		return fmt.Errorf("dse: negative search parameter (pop %d, gens %d, eta %d)", s.Population, s.Generations, s.Eta)
	}
	if s.Population == 0 {
		s.Population = 64
	}
	if s.Generations == 0 {
		s.Generations = 8
	}
	if s.Eta == 0 {
		s.Eta = 4
	}
	if s.Eta == 1 {
		return fmt.Errorf("dse: search eta must be >= 2 (1 promotes everything and screens nothing)")
	}
	if s.Seed == 0 {
		s.Seed = cfgSeed
	}
	return nil
}

// Widened gene ranges — the guided space. The exhaustive sweep covers
// 4 bus counts x 3 ALU counts x 2 CMP counts x 6 RF sets x 2 assignment
// strategies = 144 points; this space spans ~28 million.
var (
	searchMaxBuses = 16
	searchMaxALUs  = 8
	searchMaxCMPs  = 4
	searchMaxRFs   = 3
	searchRegs     = []int{4, 8, 12, 16, 24, 32}
	searchMaxIn    = 2
	searchMaxOut   = 3
	searchAdders   = []gatelib.AdderKind{gatelib.AdderRipple, gatelib.AdderCarrySelect}
	searchAssigns  = []tta.AssignStrategy{tta.RoundRobin, tta.SpreadFirst, tta.Packed}
)

// SearchSpaceSize returns the number of distinct genomes in the guided
// space: the scalar gene product times the number of RF multisets (RF
// order inside a candidate is canonicalized away) of size 1..searchMaxRFs
// over the |regs|·|in|·|out| shape alphabet.
func SearchSpaceSize() int64 {
	shapes := int64(len(searchRegs) * searchMaxIn * searchMaxOut)
	// Multisets of size k from n shapes: C(n+k-1, k).
	multisets := int64(0)
	for k := int64(1); k <= int64(searchMaxRFs); k++ {
		c := int64(1)
		for j := int64(0); j < k; j++ {
			c = c * (shapes + j) / (j + 1)
		}
		multisets += c
	}
	return int64(searchMaxBuses) * int64(searchMaxALUs) * int64(searchMaxCMPs) *
		int64(len(searchAdders)) * int64(len(searchAssigns)) * multisets
}

// genome is one point of the guided space.
type genome struct {
	buses  int
	alus   int
	cmps   int
	adder  gatelib.AdderKind
	rfs    []RFSpec // canonicalized: sorted by (Regs, In, Out)
	assign tta.AssignStrategy
}

// canon sorts the register files so that permutations of one multiset
// collapse to a single genome (the architecture is order-insensitive).
func (g *genome) canon() {
	sort.Slice(g.rfs, func(a, b int) bool {
		x, y := g.rfs[a], g.rfs[b]
		if x.Regs != y.Regs {
			return x.Regs < y.Regs
		}
		if x.In != y.In {
			return x.In < y.In
		}
		return x.Out < y.Out
	})
}

// key is the genome's canonical identity — the dedupe and deterministic
// tie-break key: "b%02d/a%d/c%d/<adder>/<assign>" and "/rf%02dx%dw%dr"
// per register file, built with strconv.
func (g *genome) key() string {
	b := make([]byte, 0, 96)
	b = append(b, 'b')
	b = appendPadded(b, g.buses, 2)
	b = append(b, "/a"...)
	b = strconv.AppendInt(b, int64(g.alus), 10)
	b = append(b, "/c"...)
	b = strconv.AppendInt(b, int64(g.cmps), 10)
	b = append(b, '/')
	b = append(b, g.adder.String()...)
	b = append(b, '/')
	b = append(b, g.assign.String()...)
	for _, rf := range g.rfs {
		b = append(b, "/rf"...)
		b = appendPadded(b, rf.Regs, 2)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(rf.In), 10)
		b = append(b, 'w')
		b = strconv.AppendInt(b, int64(rf.Out), 10)
		b = append(b, 'r')
	}
	return string(b)
}

// appendPadded appends n in decimal, zero-padded to width digits as
// fmt's %0<width>d pads a non-negative number.
func appendPadded(b []byte, n, width int) []byte {
	for p := 1; width > 1; width-- {
		p *= 10
		if n >= 0 && n < p {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// arch builds the genome's architecture, named
// "s%06d_b%d_a%d_c%d_<assign>". The name embeds the stable promotion
// index, so checkpointKey (structKey + name) survives a resume: for a
// fixed seed the survivor sequence — and hence the index assignment — is
// identical on every run.
func (g *genome) arch(width, index int) *tta.Architecture {
	name := make([]byte, 0, 48)
	name = append(name, 's')
	name = appendPadded(name, index, 6)
	name = append(name, "_b"...)
	name = strconv.AppendInt(name, int64(g.buses), 10)
	name = append(name, "_a"...)
	name = strconv.AppendInt(name, int64(g.alus), 10)
	name = append(name, "_c"...)
	name = strconv.AppendInt(name, int64(g.cmps), 10)
	name = append(name, '_')
	name = append(name, g.assign.String()...)
	return assembleArch(string(name), width, g.buses, g.alus, g.cmps, g.adder, g.rfs, g.assign)
}

// randGenome draws a uniform genome. Every rng consumption below is on
// the single-threaded control path.
func randGenome(rng *rand.Rand) genome {
	g := genome{
		buses:  1 + rng.Intn(searchMaxBuses),
		alus:   1 + rng.Intn(searchMaxALUs),
		cmps:   1 + rng.Intn(searchMaxCMPs),
		adder:  searchAdders[rng.Intn(len(searchAdders))],
		assign: searchAssigns[rng.Intn(len(searchAssigns))],
	}
	n := 1 + rng.Intn(searchMaxRFs)
	for i := 0; i < n; i++ {
		g.rfs = append(g.rfs, randRF(rng))
	}
	g.canon()
	return g
}

func randRF(rng *rand.Rand) RFSpec {
	return RFSpec{
		Regs: searchRegs[rng.Intn(len(searchRegs))],
		In:   1 + rng.Intn(searchMaxIn),
		Out:  1 + rng.Intn(searchMaxOut),
	}
}

// crossover mixes two parents gene-wise (uniform crossover); the RF list
// is inherited whole from one parent to keep it well-formed.
func crossover(rng *rand.Rand, a, b genome) genome {
	pick := func(x, y int) int {
		if rng.Intn(2) == 0 {
			return x
		}
		return y
	}
	child := genome{
		buses: pick(a.buses, b.buses),
		alus:  pick(a.alus, b.alus),
		cmps:  pick(a.cmps, b.cmps),
	}
	if rng.Intn(2) == 0 {
		child.adder = a.adder
	} else {
		child.adder = b.adder
	}
	if rng.Intn(2) == 0 {
		child.assign = a.assign
	} else {
		child.assign = b.assign
	}
	src := a
	if rng.Intn(2) == 0 {
		src = b
	}
	child.rfs = append([]RFSpec(nil), src.rfs...)
	child.canon()
	return child
}

// mutate rerandomizes each gene with probability 1/8 and occasionally
// grows or shrinks the RF list — enough drift to escape local optima
// without destroying the tournament winners.
func mutate(rng *rand.Rand, g genome) genome {
	const p = 8 // 1-in-p per gene
	if rng.Intn(p) == 0 {
		g.buses = 1 + rng.Intn(searchMaxBuses)
	}
	if rng.Intn(p) == 0 {
		g.alus = 1 + rng.Intn(searchMaxALUs)
	}
	if rng.Intn(p) == 0 {
		g.cmps = 1 + rng.Intn(searchMaxCMPs)
	}
	if rng.Intn(p) == 0 {
		g.adder = searchAdders[rng.Intn(len(searchAdders))]
	}
	if rng.Intn(p) == 0 {
		g.assign = searchAssigns[rng.Intn(len(searchAssigns))]
	}
	g.rfs = append([]RFSpec(nil), g.rfs...)
	for i := range g.rfs {
		if rng.Intn(p) == 0 {
			g.rfs[i] = randRF(rng)
		}
	}
	if rng.Intn(p) == 0 {
		if len(g.rfs) < searchMaxRFs && rng.Intn(2) == 0 {
			g.rfs = append(g.rfs, randRF(rng))
		} else if len(g.rfs) > 1 {
			g.rfs = g.rfs[:len(g.rfs)-1]
		}
	}
	g.canon()
	return g
}

// cheapResult is one genome's cheap-tier measurement.
type cheapResult struct {
	feasible bool
	coords   [3]float64 // area, exec time, bound-tier test cost
	err      error
	busy     time.Duration // the measurement's time on its worker
}

// evalCheap screens one generation on the cheap tier: schedule (shared
// structural memo, so duplicated structures cost one schedule) plus the
// annotator's SCOAP-bound cost model. Workers claim genomes by index and
// results are collected by index — deterministic at any parallelism.
func evalCheap(ctx context.Context, cfg *Config, pop []genome, memo *schedMemo, sp *obs.Span) []cheapResult {
	out := make([]cheapResult, len(pop))
	forEachIndex(ctx, len(pop), workerCount(cfg, len(pop)), func(i int) {
		t0 := time.Now()
		out[i] = cheapEvalOne(ctx, cfg, &pop[i], memo, sp)
		out[i].busy = time.Since(t0)
	})
	return out
}

// cheapEvalOne evaluates one genome on the cheap tier. A panic anywhere
// under it (scheduler, library generator) is isolated to this genome —
// it screens as an error, the search continues.
func cheapEvalOne(ctx context.Context, cfg *Config, g *genome, memo *schedMemo, sp *obs.Span) (res cheapResult) {
	defer func() {
		if r := recover(); r != nil {
			cfg.Obs.Counter("dse.eval.panics").Inc()
			res = cheapResult{err: fmt.Errorf("dse: cheap evaluation panicked: %v", r)}
		}
	}()
	cfg.Obs.Counter("dse.search.cheap_evals").Inc()
	arch := g.arch(cfg.Width, 0) // screening identity; the real index is assigned at promotion
	if err := arch.Validate(); err != nil {
		return cheapResult{feasible: false}
	}
	se, err := memo.get(ctx, cfg, arch, sp)
	if err != nil {
		return cheapResult{err: err}
	}
	if !se.feasible {
		return cheapResult{feasible: false}
	}
	cost, err := cfg.Annotator.EvaluateBoundContext(ctx, arch)
	if err != nil {
		return cheapResult{err: err}
	}
	return cheapResult{
		feasible: true,
		coords: [3]float64{
			se.area,
			float64(se.cycles) * float64(cfg.WorkloadReps) * se.clock,
			float64(cost.Total),
		},
	}
}

// rankGeneration orders the generation for promotion: feasible genomes by
// ascending scalarized fitness (equal-weight L1 over min-max normalized
// coordinates — cheap, and monotone enough for a screen), ties and the
// infeasible tail by canonical key. keys, res and the returned fitness
// are parallel to the population.
func rankGeneration(keys []string, res []cheapResult) (order []int, fitness []float64) {
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := range res {
		if !res[i].feasible || res[i].err != nil {
			continue
		}
		for d, v := range res[i].coords {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	fitness = make([]float64, len(res))
	for i := range res {
		if !res[i].feasible || res[i].err != nil {
			fitness[i] = math.Inf(1)
			continue
		}
		f := 0.0
		for d, v := range res[i].coords {
			if hi[d] > lo[d] {
				f += (v - lo[d]) / (hi[d] - lo[d])
			}
		}
		fitness[i] = f
	}
	order = make([]int, len(res))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := fitness[order[a]], fitness[order[b]]
		if fa != fb {
			return fa < fb
		}
		return keys[order[a]] < keys[order[b]]
	})
	return order, fitness
}

// nextGeneration breeds the following population: the two fittest
// genomes carry over unchanged (elitism), the rest come from
// tournament-of-3 selection, uniform crossover and mutation. Runs on the
// control thread — the only rng consumer.
func nextGeneration(rng *rand.Rand, pop []genome, order []int, fitness []float64) []genome {
	out := make([]genome, 0, len(pop))
	for _, i := range order {
		if len(out) >= 2 || len(out) >= len(pop) {
			break
		}
		out = append(out, pop[i])
	}
	tournament := func() genome {
		best := rng.Intn(len(pop))
		for k := 1; k < 3; k++ {
			c := rng.Intn(len(pop))
			if fitness[c] < fitness[best] {
				best = c
			}
		}
		return pop[best]
	}
	for len(out) < len(pop) {
		child := crossover(rng, tournament(), tournament())
		out = append(out, mutate(rng, child))
	}
	return out
}

// searchCandidates runs the GA + successive-halving screen over memo and
// returns the promoted architectures, in promotion order (generation,
// then cheap-tier rank), deduplicated by genome. The list feeds the
// unchanged full-evaluation pipeline (converged ATPG, checkpoints, live
// fronts, selection), which reads every survivor's structure from the
// memo: the screen computed it with the same configuration, and a
// structural evaluation ignores names and port assignment.
func searchCandidates(ctx context.Context, cfg *Config, sp *obs.Span, spec SearchSpec, memo *schedMemo) ([]*tta.Architecture, error) {
	reg := cfg.Obs
	// The screen's worker utilization: busy worker time over workers ×
	// the screen's wall time, both summed over generations, published on
	// every exit path of the screen.
	var busy, capacity time.Duration
	defer func() {
		util := 0.0
		if capacity > 0 {
			util = float64(busy) / float64(capacity)
		}
		reg.Gauge("dse.search.worker.utilization").Set(util)
	}()
	rng := rand.New(rand.NewSource(spec.Seed))
	pop := make([]genome, spec.Population)
	for i := range pop {
		pop[i] = randGenome(rng)
	}
	promote := ceilDiv(spec.Population, spec.Eta)
	var survivors []genome
	seen := make(map[string]bool)
	keys := make([]string, spec.Population)
	for gen := 0; gen < spec.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		genSp := sp.Child("generation")
		t0 := time.Now()
		res := evalCheap(ctx, cfg, pop, memo, genSp)
		capacity += time.Since(t0) * time.Duration(workerCount(cfg, len(pop)))
		for i := range res {
			busy += res[i].busy
		}
		if err := ctx.Err(); err != nil {
			genSp.End()
			return nil, err
		}
		// Later generations may reuse this one's schedules.
		memo.seal()
		for i := range pop {
			keys[i] = pop[i].key()
		}
		order, fitness := rankGeneration(keys, res)
		promoted := 0
		for _, i := range order[:promote] {
			if !res[i].feasible || res[i].err != nil {
				continue // never promote what the screen could not place
			}
			if seen[keys[i]] {
				continue
			}
			seen[keys[i]] = true
			survivors = append(survivors, pop[i])
			promoted++
		}
		reg.Counter("dse.search.generations").Inc()
		reg.Counter("dse.search.promoted").Add(int64(promoted))
		reg.Counter("dse.search.pruned").Add(int64(spec.Population - promoted))
		genSp.End()
		if gen < spec.Generations-1 {
			pop = nextGeneration(rng, pop, order, fitness)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("dse: guided search promoted no feasible candidate (pop %d, gens %d)", spec.Population, spec.Generations)
	}
	archs := make([]*tta.Architecture, len(survivors))
	for i := range survivors {
		archs[i] = survivors[i].arch(cfg.Width, i)
	}
	return archs, nil
}

// ceilDiv is also defined in testcost; dse keeps its own to avoid the
// dependency inversion.
func ceilDiv(x, y int) int {
	if y <= 0 {
		return x
	}
	return (x + y - 1) / y
}
