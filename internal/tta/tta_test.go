package tta

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFigure9Shape(t *testing.T) {
	a := Figure9()
	if err := a.Validate(); err != nil {
		t.Fatalf("figure-9 architecture invalid: %v", err)
	}
	if a.Width != 16 {
		t.Errorf("width %d, want 16", a.Width)
	}
	counts := map[Kind]int{}
	for i := range a.Components {
		counts[a.Components[i].Kind]++
	}
	want := map[Kind]int{ALU: 1, CMP: 1, RF: 2, LDST: 1, PC: 1, IMM: 1}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s count = %d, want %d", k, counts[k], n)
		}
	}
	rfs := a.ComponentsOf(RF)
	if a.Components[rfs[0]].NumRegs != 8 || a.Components[rfs[1]].NumRegs != 12 {
		t.Errorf("RF sizes %d,%d want 8,12", a.Components[rfs[0]].NumRegs, a.Components[rfs[1]].NumRegs)
	}
	if !a.Assigned() {
		t.Error("figure-9 ports not assigned to buses")
	}
	if !strings.Contains(a.String(), "RF1") {
		t.Errorf("architecture string %q lacks component names", a.String())
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	a := &Architecture{Name: "bad", Width: 1, Buses: 1}
	if err := a.Validate(); err == nil {
		t.Error("width 1 accepted")
	}
	a = &Architecture{Name: "bad", Width: 16, Buses: 0}
	if err := a.Validate(); err == nil {
		t.Error("0 buses accepted")
	}
	a = &Architecture{Name: "bad", Width: 16, Buses: 1, Components: []Component{
		{Kind: ALU, Name: "alu", Ports: []Port{{Role: Operand, Bus: -1}}},
	}}
	if err := a.Validate(); err == nil {
		t.Error("ALU with one port accepted")
	}
	a = &Architecture{Name: "bad", Width: 16, Buses: 1, Components: []Component{NewFU(ALU, "alu")}}
	a.Components[0].Ports[0].Bus = 5
	if err := a.Validate(); err == nil {
		t.Error("out-of-range bus accepted")
	}
	a = &Architecture{Name: "bad", Width: 16, Buses: 1, Components: []Component{NewRF("rf", 1, 1, 1)}}
	if err := a.Validate(); err == nil {
		t.Error("1-register RF accepted")
	}
}

func TestCDMatchesEquations9And10(t *testing.T) {
	// Equation (9): operand and trigger on distinct buses -> CD = 3.
	fu := NewFU(ALU, "alu")
	fu.Ports[0].Bus = 0 // O
	fu.Ports[1].Bus = 1 // T
	fu.Ports[2].Bus = 2 // R
	if got := fu.CD(); got != 3 {
		t.Errorf("distinct buses: CD=%d, want 3 (eq. 9)", got)
	}
	// Equation (10): operand and trigger share a bus -> CD = 4.
	fu.Ports[1].Bus = 0
	fu.Ports[2].Bus = 2
	if got := fu.CD(); got != 4 {
		t.Errorf("shared O/T bus: CD=%d, want 4 (eq. 10)", got)
	}
	// All registers tied to the same bus -> further increase (5).
	fu.Ports[2].Bus = 0
	if got := fu.CD(); got != 5 {
		t.Errorf("all ports one bus: CD=%d, want 5", got)
	}
	// Result sharing with only one input still adds the turnaround slot.
	fu.Ports[0].Bus = 0
	fu.Ports[1].Bus = 1
	fu.Ports[2].Bus = 1
	if got := fu.CD(); got != 4 {
		t.Errorf("result on trigger bus: CD=%d, want 4", got)
	}
}

// cdByPortLists is CD as equations (9)-(10) read over the port index
// lists: the largest number of input ports on one bus, plus two, plus one
// when an output port shares a bus with an input port.
func cdByPortLists(c *Component) int {
	perBus := map[int]int{}
	maxShare := 1
	for _, pi := range c.InputPorts() {
		perBus[c.Ports[pi].Bus]++
		maxShare = max(maxShare, perBus[c.Ports[pi].Bus])
	}
	cd := maxShare + 2
	for _, po := range c.OutputPorts() {
		if perBus[c.Ports[po].Bus] > 0 {
			return cd + 1
		}
	}
	return cd
}

// TestCDAndPortCountsMatchPortLists checks CD and PortCounts against the
// port index lists on every component kind under random bus assignments,
// unassigned ports (bus -1) included.
func TestCDAndPortCountsMatchPortLists(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 5000; i++ {
		var c Component
		switch rng.Intn(4) {
		case 0:
			c = NewFU(Kind(rng.Intn(2)), "fu")
		case 1:
			c = NewRF("rf", 8, 1+rng.Intn(3), 1+rng.Intn(4))
		case 2:
			c = NewPC("pc")
		default:
			c = NewIMM("imm")
		}
		buses := 1 + rng.Intn(5)
		for pi := range c.Ports {
			c.Ports[pi].Bus = rng.Intn(buses+1) - 1
		}
		if got, want := c.CD(), cdByPortLists(&c); got != want {
			t.Fatalf("%s ports %v: CD %d, port lists give %d", c.Kind, c.Ports, got, want)
		}
		in, out := c.PortCounts()
		if in != len(c.InputPorts()) || out != len(c.OutputPorts()) {
			t.Fatalf("%s ports %v: PortCounts %d/%d, port lists %d/%d",
				c.Kind, c.Ports, in, out, len(c.InputPorts()), len(c.OutputPorts()))
		}
	}
}

func TestFigure6TwoIdenticalFUsDifferentCost(t *testing.T) {
	// The paper's figure 6: two identical FUs, one with both inputs on the
	// same bus — its transport takes longer, so its test cost is higher.
	fu1 := NewFU(ALU, "fu1")
	fu1.Ports[0].Bus = 0
	fu1.Ports[1].Bus = 1
	fu1.Ports[2].Bus = 2
	fu2 := NewFU(ALU, "fu2")
	fu2.Ports[0].Bus = 0
	fu2.Ports[1].Bus = 0
	fu2.Ports[2].Bus = 2
	if !(fu1.CD() < fu2.CD()) {
		t.Errorf("CD(fu1)=%d not below CD(fu2)=%d", fu1.CD(), fu2.CD())
	}
}

func TestCheckRelationsAcceptsMinimalSchedule(t *testing.T) {
	// The canonical 3-cycle operation of equation (9).
	ops := []OpTiming{{Fin: 0, O: 1, T: 1, R: 2, Fout: 3}}
	if err := CheckRelations(ops); err != nil {
		t.Fatalf("minimal legal schedule rejected: %v", err)
	}
	if CDOfTiming(ops[0]) != 3 {
		t.Errorf("CD of minimal schedule = %d, want 3", CDOfTiming(ops[0]))
	}
	// Equation (10): serialized operand fetch.
	ops = []OpTiming{{Fin: 0, O: 1, T: 2, R: 3, Fout: 4}}
	if err := CheckRelations(ops); err != nil {
		t.Fatalf("serialized schedule rejected: %v", err)
	}
	if CDOfTiming(ops[0]) != 4 {
		t.Errorf("CD = %d, want 4", CDOfTiming(ops[0]))
	}
}

func TestCheckRelationsRejectsEachViolation(t *testing.T) {
	cases := []struct {
		name string
		ops  []OpTiming
		frag string
	}{
		{"(2) trigger before operand", []OpTiming{{Fin: 0, O: 3, T: 2, R: 4, Fout: 5}}, "(2)"},
		{"(3) zero-latency result", []OpTiming{{Fin: 0, O: 1, T: 1, R: 1, Fout: 2}}, "(3)"},
		{"(6) operand with decode", []OpTiming{{Fin: 1, O: 1, T: 2, R: 3, Fout: 4}}, "(6)"},
		{"(7) trigger with decode", []OpTiming{{Fin: 2, O: -1, T: 2, R: 3, Fout: 4}}, "(7)"},
		{"(8) readout with result", []OpTiming{{Fin: 0, O: 1, T: 1, R: 2, Fout: 2}}, "(8)"},
		{"(4) result order swap", []OpTiming{
			{Fin: 0, O: 1, T: 1, R: 5, Fout: 6},
			{Fin: 1, O: 2, T: 2, R: 3, Fout: 7},
		}, "(4)"},
		{"(5) operand overwrite", []OpTiming{
			{Fin: 0, O: 1, T: 4, R: 5, Fout: 6},
			{Fin: 1, O: 2, T: 5, R: 6, Fout: 7},
		}, "(5)"},
	}
	for _, c := range cases {
		err := CheckRelations(c.ops)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: wrong relation reported: %v", c.name, err)
		}
	}
}

func TestSingleOperandOpSkipsOperandRelations(t *testing.T) {
	ops := []OpTiming{{Fin: 0, O: -1, T: 1, R: 2, Fout: 3}}
	if err := CheckRelations(ops); err != nil {
		t.Fatalf("single-operand op rejected: %v", err)
	}
}

func TestAssignRoundRobinCoversAllBuses(t *testing.T) {
	a := Figure9().Clone()
	AssignPorts(a, RoundRobin)
	if !a.Assigned() {
		t.Fatal("round-robin left ports unassigned")
	}
	seen := make([]bool, a.Buses)
	for ci := range a.Components {
		for _, p := range a.Components[ci].Ports {
			seen[p.Bus] = true
		}
	}
	for b, ok := range seen {
		if !ok {
			t.Errorf("bus %d unused by round-robin", b)
		}
	}
}

func TestSpreadFirstMinimizesCDWithEnoughBuses(t *testing.T) {
	a := &Architecture{
		Name: "x", Width: 16, Buses: 3,
		Components: []Component{NewFU(ALU, "alu"), NewFU(CMP, "cmp")},
	}
	AssignPorts(a, SpreadFirst)
	for ci := range a.Components {
		if got := a.Components[ci].CD(); got != MinCD {
			t.Errorf("%s CD=%d, want %d with 3 buses", a.Components[ci].Name, got, MinCD)
		}
	}
}

func TestSpreadFirstNeverWorseThanRoundRobinOnCD(t *testing.T) {
	for buses := 1; buses <= 4; buses++ {
		rr := Figure9().Clone()
		rr.Buses = buses
		AssignPorts(rr, RoundRobin)
		sf := Figure9().Clone()
		sf.Buses = buses
		AssignPorts(sf, SpreadFirst)
		for ci := range rr.Components {
			if sf.Components[ci].CD() > rr.Components[ci].CD() {
				t.Errorf("buses=%d %s: spread-first CD %d worse than round-robin %d",
					buses, rr.Components[ci].Name, sf.Components[ci].CD(), rr.Components[ci].CD())
			}
		}
	}
}

func TestNumSockets(t *testing.T) {
	a := Figure9()
	// ALU 3 + CMP 3 + RF1 2 + RF2 2 + LDST 3 + PC 2 + IMM 1 = 16 sockets.
	if got := a.NumSockets(); got != 16 {
		t.Errorf("sockets=%d, want 16", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Figure9()
	b := a.Clone()
	b.Components[0].Ports[0].Bus = 99
	if a.Components[0].Ports[0].Bus == 99 {
		t.Fatal("Clone shares port storage")
	}
}

func TestKindAndRoleStrings(t *testing.T) {
	for k := ALU; k <= IMM; k++ {
		if k.String() == "" {
			t.Fatalf("empty Kind string for %d", k)
		}
	}
	for r := Operand; r <= ReadPort; r++ {
		if r.String() == "" {
			t.Fatalf("empty role string for %d", r)
		}
	}
	if RoundRobin.String() == "" || SpreadFirst.String() == "" {
		t.Fatal("empty strategy strings")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := Figure9()
	a.Components[0].Adder = 1 // carry-select, to exercise the field
	var buf bytes.Buffer
	if err := SaveJSON(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != a.Name || b.Width != a.Width || b.Buses != a.Buses {
		t.Fatalf("header changed: %+v", b)
	}
	if len(b.Components) != len(a.Components) {
		t.Fatalf("component count %d, want %d", len(b.Components), len(a.Components))
	}
	for ci := range a.Components {
		ca, cb := &a.Components[ci], &b.Components[ci]
		if ca.Kind != cb.Kind || ca.Name != cb.Name || ca.NumRegs != cb.NumRegs ||
			ca.NumIn != cb.NumIn || ca.NumOut != cb.NumOut || ca.Adder != cb.Adder {
			t.Fatalf("component %d changed: %+v vs %+v", ci, ca, cb)
		}
		for pi := range ca.Ports {
			if ca.Ports[pi] != cb.Ports[pi] {
				t.Fatalf("component %d port %d changed", ci, pi)
			}
		}
	}
}

func TestLoadJSONRejectsGarbage(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadJSON(strings.NewReader(`{"name":"x","width":16,"buses":1,"components":[{"kind":"WARP","name":"w"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := LoadJSON(strings.NewReader(`{"name":"x","width":16,"buses":1,"components":[{"kind":"ALU","name":"a","ports":[{"role":"Q","bus":0}]}]}`)); err == nil {
		t.Error("unknown role accepted")
	}
	// Structurally invalid architectures fail validation on load.
	if _, err := LoadJSON(strings.NewReader(`{"name":"x","width":1,"buses":1}`)); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestDrawFigure9(t *testing.T) {
	out := Draw(Figure9())
	for _, want := range []string{"ALU", "RF1(8)", "RF2(12)", "bus0", "bus1", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// names + ports + stubs + one rail per bus.
	if len(lines) != 3+Figure9().Buses {
		t.Fatalf("diagram has %d lines, want %d", len(lines), 3+Figure9().Buses)
	}
	// Every port taps exactly one rail.
	taps := strings.Count(out, "o")
	if taps != Figure9().NumSockets() {
		t.Errorf("%d bus taps for %d sockets:\n%s", taps, Figure9().NumSockets(), out)
	}
}
