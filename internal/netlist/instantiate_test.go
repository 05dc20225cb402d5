package netlist

import (
	"strings"
	"testing"
)

func TestWireDriveRoundTrip(t *testing.T) {
	b := NewBuilder("wires")
	a := b.Input("a")
	w := b.Wire("w")
	b.Output("y", b.Not(w))
	b.Drive(w, a)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalFunc(n, map[string]uint64{"a": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["y"] != 0 {
		t.Fatalf("y=%d, want 0", got["y"])
	}
}

func TestUndrivenWireRejected(t *testing.T) {
	b := NewBuilder("undriven")
	a := b.Input("a")
	w := b.Wire("w")
	b.Output("y", b.And(a, w))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "unconnected input") {
		t.Fatalf("undriven wire not reported: %v", err)
	}
}

func TestDoubleDriveRejected(t *testing.T) {
	b := NewBuilder("dd")
	a := b.Input("a")
	w := b.Wire("w")
	b.Drive(w, a)
	b.Drive(w, a)
	if _, err := b.Build(); err == nil {
		t.Fatal("double drive accepted")
	}
}

func TestDriveNonWireRejected(t *testing.T) {
	b := NewBuilder("nw")
	a := b.Input("a")
	x := b.And(a, a)
	b.Drive(x, a)
	b.Output("y", x)
	if _, err := b.Build(); err == nil {
		t.Fatal("driving a non-wire accepted")
	}
}

func TestWireFeedbackThroughFF(t *testing.T) {
	// Wires allow mutually referential structures broken by flip-flops:
	// a toggling bit q' = not(q) expressed through a wire.
	b := NewBuilder("toggle")
	w := b.Wire("w")
	q := b.DFF("q", w, false)
	b.Drive(w, b.Not(q))
	b.Output("y", q)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(n)
	p, _ := n.OutputPort("y")
	want := []uint64{0, 1, 0, 1}
	for i, wv := range want {
		st.Eval()
		if got := st.OutputBusValue(p, 0); got != wv {
			t.Fatalf("cycle %d: %d, want %d", i, got, wv)
		}
		st.Step()
	}
}

func TestWireCombinationalCycleRejected(t *testing.T) {
	// A wire that closes a purely combinational loop must fail
	// levelization.
	b := NewBuilder("loop")
	a := b.Input("a")
	w := b.Wire("w")
	x := b.And(a, w)
	b.Drive(w, x)
	b.Output("y", x)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("combinational cycle not reported: %v", err)
	}
}

func buildAdderSub(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("fa1")
	a := b.Input("a")
	x := b.Input("x")
	ci := b.Input("ci")
	s1 := b.Xor(a, x)
	b.Output("s", b.Xor(s1, ci))
	b.Output("co", b.Or(b.And(a, x), b.And(s1, ci)))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInstantiateComposesRipple(t *testing.T) {
	// Build a 4-bit adder from four instantiated full-adder cells and
	// check it against arithmetic.
	fa := buildAdderSub(t)
	b := NewBuilder("ripple4")
	av := b.InputBus("a", 4)
	xv := b.InputBus("x", 4)
	carry := b.Const(false)
	sum := make([]Net, 4)
	for i := 0; i < 4; i++ {
		outs, err := Instantiate(b, fa, "fa"+string(rune('0'+i)), map[string][]Net{
			"a": {av[i]}, "x": {xv[i]}, "ci": {carry},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum[i] = outs["s"][0]
		carry = outs["co"][0]
	}
	b.OutputBus("sum", sum)
	b.Output("cout", carry)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		for x := uint64(0); x < 16; x++ {
			got, err := EvalFunc(n, map[string]uint64{"a": a, "x": x}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got["sum"] != (a+x)&15 || got["cout"] != (a+x)>>4 {
				t.Fatalf("%d+%d: sum=%d cout=%d", a, x, got["sum"], got["cout"])
			}
		}
	}
}

func TestInstantiateChecksConnections(t *testing.T) {
	fa := buildAdderSub(t)
	b := NewBuilder("bad")
	a := b.Input("a")
	if _, err := Instantiate(b, fa, "i", map[string][]Net{"a": {a}}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, err := Instantiate(b, fa, "i", map[string][]Net{
		"a": {a}, "x": {a, a}, "ci": {a},
	}); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestInstantiatePreservesFFInit(t *testing.T) {
	sb := NewBuilder("sub")
	in := sb.Input("d")
	q := sb.DFF("r", in, true)
	sb.Output("q", q)
	sub, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("top")
	d := b.Input("d")
	outs, err := Instantiate(b, sub, "u0", map[string][]Net{"d": {d}})
	if err != nil {
		t.Fatal(err)
	}
	b.Output("q", outs["q"][0])
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.FFs) != 1 || !n.FFs[0].Init {
		t.Fatal("flip-flop init value lost in instantiation")
	}
	if _, ok := n.FFByName("u0/r"); !ok {
		t.Fatal("flip-flop name not prefixed")
	}
}

// TestGateCopiesEveryType copies a netlist holding one gate of every type
// through Instantiate, which emits each gate with Builder.Gate: the copy
// drives each output bit y[i] with a gate of type i, as the source does,
// and has the same truth table.
func TestGateCopiesEveryType(t *testing.T) {
	b := NewBuilder("all")
	x := b.InputBus("x", 3)
	b.OutputBus("y", []Net{
		b.Const(false), b.Const(true), b.Buf(x[0]), b.Not(x[0]),
		b.And(x...), b.Or(x...), b.Nand(x...), b.Nor(x...), b.Xor(x...), b.Xnor(x...),
		b.Mux(x[0], x[1], x[2]),
	})
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cb := NewBuilder("copy")
	outs, err := Instantiate(cb, src, "u", map[string][]Net{"x": cb.InputBus("x", 3)})
	if err != nil {
		t.Fatal(err)
	}
	cb.OutputBus("y", outs["y"])
	cp, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Gates) != int(numGateTypes) {
		t.Fatalf("copy has %d gates, want one of each of %d types", len(cp.Gates), numGateTypes)
	}
	gateOf := func(n *Netlist, i int) GateType {
		return n.Gates[n.Driver(n.OutputPorts[0].Nets[i]).Index].Type
	}
	for i := 0; i < int(numGateTypes); i++ {
		if got, want := gateOf(cp, i), GateType(i); got != want || gateOf(src, i) != want {
			t.Errorf("y[%d] driven by %s in the copy, want %s", i, got, want)
		}
	}
	for v := uint64(0); v < 8; v++ {
		want, err := EvalFunc(src, map[string]uint64{"x": v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalFunc(cp, map[string]uint64{"x": v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got["y"] != want["y"] {
			t.Errorf("x=%03b: copy gives y=%#x, source %#x", v, got["y"], want["y"])
		}
	}
}
