package testcost

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/gatelib"

	"repro/internal/tta"
)

// sharedAnn amortizes the one-time ATPG back-annotation across tests.
var sharedAnn = NewAnnotator(16, 7)

func evalFigure9(t *testing.T) *ArchCost {
	t.Helper()
	cost, err := sharedAnn.EvaluateContext(context.Background(), tta.Figure9())
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

func TestTable1StructureOnFigure9(t *testing.T) {
	cost := evalFigure9(t)
	if len(cost.Components) != 7 {
		t.Fatalf("%d component rows, want 7", len(cost.Components))
	}
	var sum, scanSum int
	for _, c := range cost.Components {
		switch c.Kind {
		case tta.ALU, tta.CMP:
			if c.FTfu <= 0 || c.FTrf != 0 {
				t.Errorf("%s: FTfu=%d FTrf=%d", c.Name, c.FTfu, c.FTrf)
			}
			if c.Excluded {
				t.Errorf("%s wrongly excluded", c.Name)
			}
		case tta.RF:
			if c.FTrf <= 0 || c.FTfu != 0 {
				t.Errorf("%s: FTrf=%d FTfu=%d", c.Name, c.FTrf, c.FTfu)
			}
		default:
			if !c.Excluded {
				t.Errorf("%s (always-present) not excluded from the total", c.Name)
			}
		}
		if !c.Excluded {
			sum += c.OurCycles()
			scanSum += c.FullScanCycles
		}
	}
	if cost.Total != sum {
		t.Errorf("Total=%d, component sum=%d", cost.Total, sum)
	}
	if cost.FullScanTotal != scanSum {
		t.Errorf("FullScanTotal=%d, component sum=%d", cost.FullScanTotal, scanSum)
	}
}

func TestOurApproachBeatsFullScanPerComponent(t *testing.T) {
	// The paper's headline comparison (Table 1): the functional
	// application of the structural patterns needs significantly fewer
	// cycles than full scan for every datapath component.
	cost := evalFigure9(t)
	for _, c := range cost.Components {
		if c.Excluded {
			continue
		}
		if c.OurCycles() >= c.FullScanCycles {
			t.Errorf("%s: our %d cycles not below full scan %d", c.Name, c.OurCycles(), c.FullScanCycles)
		}
		ratio := float64(c.FullScanCycles) / float64(c.OurCycles())
		if ratio < 1.2 {
			t.Errorf("%s: advantage ratio %.2f too small to be significant", c.Name, ratio)
		}
		t.Logf("%-5s full-scan=%6d ours=%5d (%.1fx) nl=%d np=%d CD=%d FC=%.2f%%",
			c.Name, c.FullScanCycles, c.OurCycles(), ratio, c.NL, c.NP, c.CD, 100*c.FaultCoverage)
	}
}

func TestFaultCoverageHigh(t *testing.T) {
	cost := evalFigure9(t)
	for _, c := range cost.Components {
		if c.Kind == tta.RF || c.Excluded {
			continue // RF functional coverage comes from march, not ATPG
		}
		if c.FaultCoverage < 0.99 {
			t.Errorf("%s coverage %.4f < 0.99", c.Name, c.FaultCoverage)
		}
	}
}

func TestCDWithinPaperBounds(t *testing.T) {
	cost := evalFigure9(t)
	for _, c := range cost.Components {
		if c.Excluded {
			continue
		}
		if c.CD < tta.MinCD || c.CD > tta.MinCD+2 {
			t.Errorf("%s: CD=%d outside [3,5]", c.Name, c.CD)
		}
	}
}

func TestFewerBusesRaiseCost(t *testing.T) {
	// Equation (11): the serialization factor ceil(n_conn/n_b) grows as
	// buses shrink; so does CD. Total cost must be monotonically
	// non-increasing in the bus count.
	prev := -1
	for buses := 1; buses <= 4; buses++ {
		a := tta.Figure9().Clone()
		a.Buses = buses
		tta.AssignPorts(a, tta.SpreadFirst)
		cost, err := sharedAnn.EvaluateContext(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && cost.Total > prev {
			t.Errorf("buses=%d total %d exceeds %d at fewer buses", buses, cost.Total, prev)
		}
		if prev >= 0 && buses == 2 && cost.Total == prev {
			t.Log("note: 1->2 buses made no difference")
		}
		prev = cost.Total
	}
	// And strictly: 1 bus must be more expensive than 4 buses.
	a1 := tta.Figure9().Clone()
	a1.Buses = 1
	tta.AssignPorts(a1, tta.SpreadFirst)
	a4 := tta.Figure9().Clone()
	a4.Buses = 4
	tta.AssignPorts(a4, tta.SpreadFirst)
	c1, _ := sharedAnn.EvaluateContext(context.Background(), a1)
	c4, _ := sharedAnn.EvaluateContext(context.Background(), a4)
	if c1.Total <= c4.Total {
		t.Errorf("1-bus total %d not above 4-bus total %d", c1.Total, c4.Total)
	}
}

func TestFigure6PortAssignmentChangesCost(t *testing.T) {
	// Two identical FUs whose ports connect differently have different
	// test costs (the paper's figure 6): force the contrast via CD.
	a := &tta.Architecture{
		Name: "fig6", Width: 16, Buses: 3,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "FU1"),
			tta.NewFU(tta.ALU, "FU2"),
			tta.NewRF("RF", 8, 1, 1),
			tta.NewIMM("IMM"),
		},
	}
	// FU1: every port on its own bus. FU2: operand+trigger share bus 0.
	a.Components[0].Ports[0].Bus = 0
	a.Components[0].Ports[1].Bus = 1
	a.Components[0].Ports[2].Bus = 2
	a.Components[1].Ports[0].Bus = 0
	a.Components[1].Ports[1].Bus = 0
	a.Components[1].Ports[2].Bus = 2
	a.Components[2].Ports[0].Bus = 1
	a.Components[2].Ports[1].Bus = 2
	a.Components[3].Ports[0].Bus = 0
	cost, err := sharedAnn.EvaluateContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !(cost.Components[0].FTfu < cost.Components[1].FTfu) {
		t.Errorf("identical FUs: FTfu(fu1)=%d not below FTfu(fu2)=%d",
			cost.Components[0].FTfu, cost.Components[1].FTfu)
	}
}

func TestRFCostEquation12(t *testing.T) {
	// Parallel ports help while they fit the buses...
	base := rfCost(100, 3, 1, 1, 2)
	par := rfCost(100, 3, 2, 2, 2)
	if par >= base {
		t.Errorf("2w2r cost %d not below 1w1r cost %d at 2 buses", par, base)
	}
	// ...but once both port counts exceed the buses the cost climbs (the
	// marching elements serialize).
	over := rfCost(100, 3, 3, 3, 2)
	if over <= par {
		t.Errorf("3w3r on 2 buses cost %d not above 2w2r %d", over, par)
	}
}

func TestAnnotationCaching(t *testing.T) {
	a := tta.Figure9()
	c1, err := sharedAnn.EvaluateContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sharedAnn.EvaluateContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Total != c2.Total {
		t.Fatalf("non-deterministic evaluation: %d vs %d", c1.Total, c2.Total)
	}
}

func TestEvaluateRejectsUnassigned(t *testing.T) {
	a := &tta.Architecture{
		Name: "raw", Width: 16, Buses: 2,
		Components: []tta.Component{tta.NewFU(tta.ALU, "ALU")},
	}
	if _, err := sharedAnn.EvaluateContext(context.Background(), a); err == nil {
		t.Fatal("unassigned architecture accepted")
	}
}

func TestAreaDelayAnnotation(t *testing.T) {
	ctx := context.Background()
	a := tta.Figure9()
	for ci := range a.Components {
		c := &a.Components[ci]
		if _, err := sharedAnn.AnnotateContext(ctx, c); err != nil {
			t.Fatal(err)
		}
		area, delay, err := sharedAnn.AreaDelayContext(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if area <= 0 || delay <= 0 {
			t.Errorf("%s: area=%.1f delay=%.1f", c.Name, area, delay)
		}
	}
	// RF2 (12 regs) must be larger than RF1 (8 regs).
	rfs := a.ComponentsOf(tta.RF)
	a1, _, _ := sharedAnn.AreaDelayContext(ctx, &a.Components[rfs[0]])
	a2, _, _ := sharedAnn.AreaDelayContext(ctx, &a.Components[rfs[1]])
	if a2 <= a1 {
		t.Errorf("RF2 area %.1f not above RF1 area %.1f", a2, a1)
	}
	in, out, err := sharedAnn.SocketArea()
	if err != nil || in <= 0 || out <= 0 {
		t.Errorf("socket areas in=%.1f out=%.1f err=%v", in, out, err)
	}
	// Every annotated component reaches the warm-start file.
	var file bytes.Buffer
	if err := sharedAnn.Save(&file); err != nil {
		t.Fatal(err)
	}
	saved := loadedKeys(t, sharedAnn.Width, sharedAnn.Seed, file.Bytes())
	for ci := range a.Components {
		key, err := sharedAnn.ComponentKey(&a.Components[ci])
		if err != nil {
			t.Fatal(err)
		}
		if !saved[key] {
			t.Errorf("%s: saved cache lacks %s", a.Components[ci].Name, key)
		}
	}
}

// TestComponentKeyStrings pins the annotation-cache key of every
// component kind to the format warm-start cache files were written with.
func TestComponentKeyStrings(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		a := &Annotator{Width: width}
		alu := tta.NewFU(tta.ALU, "ALU1")
		want := map[*tta.Component]string{
			&alu: fmt.Sprintf("alu/%d/%s", width, gatelib.AdderRipple),
		}
		csel := tta.NewFU(tta.ALU, "ALU2")
		csel.Adder = gatelib.AdderCarrySelect
		want[&csel] = fmt.Sprintf("alu/%d/%s", width, gatelib.AdderCarrySelect)
		for _, sh := range [][3]int{{4, 1, 1}, {12, 2, 3}, {32, 2, 1}} {
			rf := tta.NewRF("RF1", sh[0], sh[1], sh[2])
			want[&rf] = fmt.Sprintf("rf/RF%dx%d_%dw%dr", sh[0], width, sh[1], sh[2])
		}
		for kind, prefix := range map[tta.Kind]string{tta.CMP: "cmp", tta.LDST: "ldst"} {
			fu := tta.NewFU(kind, prefix)
			want[&fu] = fmt.Sprintf("%s/%d", prefix, width)
		}
		pc, imm := tta.NewPC("PC"), tta.NewIMM("Immediate")
		want[&pc] = fmt.Sprintf("pc/%d", width)
		want[&imm] = fmt.Sprintf("imm/%d", width)
		for c, w := range want {
			if got, err := a.ComponentKey(c); err != nil || got != w {
				t.Errorf("%s at width %d: key %q (%v), want %q", c.Name, width, got, err, w)
			}
		}
	}
	if _, err := (&Annotator{Width: 16}).ComponentKey(&tta.Component{Kind: tta.Kind(99)}); err == nil {
		t.Error("unknown component kind resolved to a key")
	}
}

func TestScanChainLengthsInPaperRange(t *testing.T) {
	// The paper reports n_l = 58 for the 16-bit ALU/CMP (component + its
	// sockets); our generated structures should land nearby.
	cost := evalFigure9(t)
	for _, c := range cost.Components {
		if c.Kind == tta.ALU || c.Kind == tta.CMP {
			if c.NL < 50 || c.NL > 75 {
				t.Errorf("%s: nl=%d outside the expected 50-75 window", c.Name, c.NL)
			}
		}
	}
}
