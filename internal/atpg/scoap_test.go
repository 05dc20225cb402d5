package atpg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/netlist"
)

func TestScoapAndGateTextbookValues(t *testing.T) {
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	y := b.And(a, x)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeScoap(n)
	// PI controllabilities are 1; AND output: CC1 = 1+1+1 = 3, CC0 = 1+1 = 2.
	if s.CC1[y] != 3 || s.CC0[y] != 2 {
		t.Errorf("AND output CC=(%d,%d), want (2,3) as (CC0,CC1)", s.CC0[y], s.CC1[y])
	}
	// Observing input a: CO(y)=0, side input must be 1: CO(a) = 0+1+1 = 2.
	if s.CO[a] != 2 {
		t.Errorf("CO(a)=%d, want 2", s.CO[a])
	}
}

func TestScoapChainDepthMonotone(t *testing.T) {
	mk := func(depth int) int32 {
		b := netlist.NewBuilder("chain")
		v := b.Input("x")
		w := b.Input("y")
		for i := 0; i < depth; i++ {
			v = b.And(v, w)
		}
		b.Output("o", v)
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := ComputeScoap(n)
		return s.CC1[n.POs[0]]
	}
	if c2, c6 := mk(2), mk(6); c6 <= c2 {
		t.Errorf("CC1 not monotone in depth: %d vs %d", c2, c6)
	}
}

func TestScoapXorParity(t *testing.T) {
	b := netlist.NewBuilder("x3")
	in := b.InputBus("x", 3)
	y := b.Xor(in...)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeScoap(n)
	// Any single input at 1 (others 0) gives odd parity: CC1 = 3+1; even
	// parity costs all-zero or two ones: CC0 = 3+1.
	if s.CC1[y] != 4 || s.CC0[y] != 4 {
		t.Errorf("XOR3 CC=(%d,%d), want (4,4)", s.CC0[y], s.CC1[y])
	}
}

func TestScoapConstantsUncontrollable(t *testing.T) {
	b := netlist.NewBuilder("c")
	a := b.Input("a")
	one := b.Const(true)
	y := b.And(a, one)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeScoap(n)
	var constNet netlist.Net = -1
	for _, g := range n.Gates {
		if g.Type == netlist.Const1 {
			constNet = g.Out
		}
	}
	if s.CC0[constNet] < scoapInf {
		t.Errorf("const-1 net has finite CC0 %d", s.CC0[constNet])
	}
	// The corresponding untestable fault gets an enormous cost.
	var f Fault
	for gi, g := range n.Gates {
		if g.Type == netlist.And {
			for pin, in := range g.In {
				if in == constNet {
					f = Fault{Gate: int32(gi), Pin: int8(pin), SA: 1}
				}
			}
		}
	}
	if s.FaultCost(f) < scoapInf {
		t.Errorf("untestable fault cost %d not saturated", s.FaultCost(f))
	}
}

func TestScoapFullScanViewTreatsFFsAsPorts(t *testing.T) {
	b := netlist.NewBuilder("seq")
	d := b.Input("d")
	q := b.DFF("r", b.And(d, d), false)
	b.Output("y", b.Not(q))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeScoap(n)
	ff := n.FFs[0]
	if s.CC0[ff.Q] != 1 || s.CC1[ff.Q] != 1 {
		t.Error("FF Q not treated as controllable")
	}
	if s.CO[ff.D] != 0 {
		t.Errorf("FF D observability %d, want 0", s.CO[ff.D])
	}
}

func TestScoapSummaryOnALU(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeScoap(alu.Seq)
	sum := s.Summarize()
	if sum.MaxCC <= 0 || sum.MaxCO <= 0 || sum.MeanCC <= 0 || sum.MeanCO <= 0 {
		t.Fatalf("degenerate summary %+v", sum)
	}
	if sum.MaxCC >= scoapInf || sum.MaxCO >= scoapInf {
		t.Fatalf("saturated summary %+v — scan view should make everything reachable", sum)
	}
	t.Logf("ALU16 SCOAP: maxCC=%d meanCC=%.1f maxCO=%d meanCO=%.1f",
		sum.MaxCC, sum.MeanCC, sum.MaxCO, sum.MeanCO)
}

func TestScoapGuidedPodemSameCoverage(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	plain := mustRun(t, alu.Comb, Config{Seed: 7, MaxRandomPatterns: -1})
	guided := mustRun(t, alu.Comb, Config{Seed: 7, MaxRandomPatterns: -1, SCOAPGuidance: true})
	if guided.Coverage() < plain.Coverage()-0.005 {
		t.Fatalf("SCOAP guidance lost coverage: %.4f vs %.4f", guided.Coverage(), plain.Coverage())
	}
	if guided.Aborted > plain.Aborted+2 {
		t.Errorf("SCOAP guidance aborted more: %d vs %d", guided.Aborted, plain.Aborted)
	}
	t.Logf("PODEM-only ALU8: plain np=%d aborted=%d; SCOAP-guided np=%d aborted=%d",
		plain.NumPatterns(), plain.Aborted, guided.NumPatterns(), guided.Aborted)
}

// TestScoapPredictsRandomPatternResistance echoes reference [9]'s goal:
// a testability measure should separate easy faults from hard ones. The
// faults the random phase misses must have a higher mean SCOAP cost than
// the ones it catches.
func TestScoapPredictsRandomPatternResistance(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Comb
	u := NewUniverse(n)
	s := ComputeScoap(n)
	sim := NewSimulator(n)
	detected := make([]bool, len(u.Faults))
	res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	randomPhase(context.Background(), sim, u, Config{Seed: 7, MaxRandomPatterns: 256}, detected, res, &runMetrics{}, budget{})

	var easySum, hardSum float64
	var easyN, hardN int
	for fi, f := range u.Faults {
		cost := float64(s.FaultCost(f))
		if cost >= float64(scoapInf) {
			continue // untestable; excluded from the comparison
		}
		if detected[fi] {
			easySum += cost
			easyN++
		} else {
			hardSum += cost
			hardN++
		}
	}
	if easyN == 0 || hardN == 0 {
		t.Skip("random phase detected everything (or nothing); no contrast available")
	}
	easy := easySum / float64(easyN)
	hard := hardSum / float64(hardN)
	t.Logf("mean SCOAP cost: random-detected %.1f (n=%d), random-resistant %.1f (n=%d)", easy, easyN, hard, hardN)
	if hard <= easy {
		t.Errorf("testability measure failed to separate hard faults: %.1f <= %.1f", hard, easy)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
