package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/obs"
)

// TestDetectsZeroAllocOnWarmedSimulator pins the zero-alloc contract of
// the fault-simulation hot path: once the simulator's cone scratch has
// grown to its working size, Detects must not allocate.
func TestDetectsZeroAllocOnWarmedSimulator(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	u := NewUniverse(n)
	sim := NewSimulator(n)
	rng := newRand(7)
	block := make([]Pattern, 64)
	for k := range block {
		p := make(Pattern, sim.NumControls())
		for i := range p {
			p[i] = uint8(rng.Intn(2))
		}
		block[k] = p
	}
	sim.LoadBlock(block)
	for _, f := range u.Faults {
		sim.Detects(f) // warm-up: grows the cone scratch buffers
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, f := range u.Faults {
			sim.Detects(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Detects allocated %.1f times per full fault sweep on a warmed simulator; want 0", allocs)
	}
}

// TestBatchDropperMatchesPerPatternDrop replays the pre-batching serial
// drop loop (one LoadBlock per generated pattern, forward-only drops) as
// a reference and checks the batched top-up reproduces its detected set
// and counters exactly.
func TestBatchDropperMatchesPerPatternDrop(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	cfg := Config{Seed: 7}.withDefaults()

	// Reference: the serial algorithm exactly as it was before batching.
	var refDetected []bool
	var refPatterns []Pattern
	refRes := &Result{}
	{
		u := NewUniverse(n)
		sim := NewSimulator(n)
		rng := newRand(cfg.Seed)
		detected := make([]bool, len(u.Faults))
		res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
		m := &runMetrics{}
		patterns := randomPhase(context.Background(), sim, u, cfg, detected, res, m, budget{})
		eng := newPodem(sim.t, backtrackLimit)
		for fi := range u.Faults {
			if detected[fi] {
				continue
			}
			asg, outcome := eng.generate(u.Faults[fi])
			switch outcome {
			case podemRedundant:
				res.Redundant++
			case podemAborted:
				res.Aborted++
			case podemFound:
				pat := fillPattern(asg, rng)
				patterns = append(patterns, pat)
				res.PodemPatterns++
				sim.LoadBlock([]Pattern{pat})
				for fj := fi; fj < len(u.Faults); fj++ {
					if !detected[fj] && sim.Detects(u.Faults[fj]) != 0 {
						detected[fj] = true
						res.Detected++
					}
				}
				if !detected[fi] {
					res.Aborted++
				}
			}
		}
		refDetected = detected
		refPatterns = patterns
		refRes = res
	}

	// Batched top-up over an identical starting state.
	u := NewUniverse(n)
	sim := NewSimulator(n)
	rng := newRand(cfg.Seed)
	detected := make([]bool, len(u.Faults))
	res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	m := &runMetrics{}
	patterns := randomPhase(context.Background(), sim, u, cfg, detected, res, m, budget{})
	patterns, err = podemTopUp(context.Background(), sim, u, cfg, rng, detected, res, patterns, m, budget{})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(refDetected, detected) {
		t.Error("batched drop yields a different detected set than the per-pattern reference")
	}
	if !reflect.DeepEqual(refPatterns, patterns) {
		t.Errorf("batched drop yields different patterns: %d vs %d", len(patterns), len(refPatterns))
	}
	if refRes.Detected != res.Detected || refRes.Redundant != res.Redundant ||
		refRes.Aborted != res.Aborted || refRes.PodemPatterns != res.PodemPatterns {
		t.Errorf("batched drop counters differ: got %+v want %+v", res, refRes)
	}
}

// TestSharedTopoRaceStress drives many simulators — plus PODEM engines —
// off one shared simTopo concurrently. Its value is under the tier-1
// -race leg: every field of simTopo and netlist.Flat is read-shared
// across goroutines while per-engine value state is written.
func TestSharedTopoRaceStress(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	u := NewUniverse(n)
	topo := newSimTopo(n)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sim := newSimulator(topo)
			block := make([]Pattern, 64)
			for k := range block {
				p := make(Pattern, sim.NumControls())
				for i := range p {
					p[i] = uint8(rng.Intn(2))
				}
				block[k] = p
			}
			sim.LoadBlock(block)
			eng := newPodem(topo, 1000)
			for fi := w; fi < len(u.Faults); fi += 3 {
				sim.Detects(u.Faults[fi])
				eng.generate(u.Faults[fi])
			}
		}(w)
	}
	wg.Wait()
}

// TestLaneMetricsUseActiveWidth pins the lane metrics a run publishes:
// the atpg.faultsim.lane_width gauge reads the simulator's 64 lanes, and
// lane_util is lanes/(64*blocks), the ratio benchmark harnesses rebuild
// from the gauge and the two counters.
func TestLaneMetricsUseActiveWidth(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := RunContext(context.Background(), alu.Seq, Config{Seed: 7, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("atpg.faultsim.lane_width").Value(); got != 64 {
		t.Fatalf("lane_width gauge %v, want 64", got)
	}
	util := reg.Gauge("atpg.faultsim.lane_util").Value()
	if util <= 0 || util > 1 {
		t.Fatalf("lane_util %v outside (0, 1]", util)
	}
	blocks := reg.Counter("atpg.faultsim.blocks").Value()
	used := reg.Counter("atpg.faultsim.lanes").Value()
	if want := float64(used) / float64(64*blocks); util != want {
		t.Fatalf("lane_util %v, want lanes/(64*blocks) = %v", util, want)
	}
}
