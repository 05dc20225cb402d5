package sim

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
)

func arch(buses int) *tta.Architecture {
	a := &tta.Architecture{
		Name: "simarch", Width: 16, Buses: buses,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU"),
			tta.NewFU(tta.CMP, "CMP"),
			tta.NewRF("RF1", 8, 1, 2),
			tta.NewRF("RF2", 12, 1, 1),
			tta.NewFU(tta.LDST, "LD/ST"),
			tta.NewPC("PC"),
			tta.NewIMM("Immediate"),
		},
	}
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

func runBoth(t *testing.T, g *program.Graph, a *tta.Architecture, inputs []uint64, mem program.Memory) ([]uint64, []uint64) {
	t.Helper()
	res, err := sched.ScheduleContext(context.Background(), g, a, sched.Options{})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	memRef := program.Memory{}
	memSim := program.Memory{}
	for k, v := range mem {
		memRef[k] = v
		memSim[k] = v
	}
	want, err := program.Evaluate(g, inputs, memRef)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := Run(res, inputs, memSim, Options{Verify: true})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return got, want
}

func TestSimpleAddMatchesReference(t *testing.T) {
	g := program.NewGraph("add", 16)
	a := g.In()
	b := g.In()
	g.Output(g.Add(a, b))
	got, want := runBoth(t, g, arch(2), []uint64{0x1111, 0x2222}, nil)
	if got[0] != want[0] || got[0] != 0x3333 {
		t.Fatalf("got %#x want %#x", got, want)
	}
}

func TestAllBinaryOpsThroughTTA(t *testing.T) {
	ops := []program.OpCode{
		program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor,
		program.Eq, program.Ne, program.Ltu, program.Lts,
		program.Geu, program.Ges, program.Gtu, program.Gts,
	}
	rng := rand.New(rand.NewSource(8))
	for _, op := range ops {
		g := program.NewGraph("op_"+op.String(), 16)
		a := g.In()
		b := g.In()
		g.Output(g.Bin(op, a, b))
		in := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
		got, want := runBoth(t, g, arch(2), in, nil)
		if got[0] != want[0] {
			t.Fatalf("%s(%#x,%#x): tta=%#x ref=%#x", op, in[0], in[1], got[0], want[0])
		}
	}
}

func TestMemoryThroughTTA(t *testing.T) {
	g := program.NewGraph("memprog", 16)
	base := g.ConstV(0x100)
	one := g.ConstV(1)
	v := g.Load(base)      // mem[0x100]
	v2 := g.Add(v, one)    // +1
	a2 := g.Add(base, one) // 0x101
	g.Store(a2, v2)        // mem[0x101] = v+1
	g.Output(g.Load(a2))   // read back
	mem := program.Memory{0x100: 0x00FE}
	got, want := runBoth(t, g, arch(2), nil, mem)
	if got[0] != want[0] || got[0] != 0x00FF {
		t.Fatalf("got %#x want %#x (ref %#x)", got[0], 0x00FF, want[0])
	}
}

func TestDiamondDependency(t *testing.T) {
	g := program.NewGraph("diamond", 16)
	a := g.In()
	b := g.In()
	s := g.Add(a, b)
	l := g.Sll(s, g.ConstV(2))
	r := g.Srl(s, g.ConstV(3))
	g.Output(g.Xor(l, r))
	got, want := runBoth(t, g, arch(2), []uint64{0xABCD, 0x1234}, nil)
	if got[0] != want[0] {
		t.Fatalf("diamond: tta=%#x ref=%#x", got[0], want[0])
	}
}

func TestValueReusedManyTimes(t *testing.T) {
	g := program.NewGraph("reuse", 16)
	a := g.In()
	acc := g.Add(a, a)
	for i := 0; i < 6; i++ {
		acc = g.Xor(acc, a)
	}
	g.Output(acc)
	got, want := runBoth(t, g, arch(2), []uint64{0x5A5A}, nil)
	if got[0] != want[0] {
		t.Fatalf("reuse: tta=%#x ref=%#x", got[0], want[0])
	}
}

func TestFuzzSimulationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	binOps := []program.OpCode{
		program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor,
		program.Eq, program.Ltu, program.Lts, program.Gtu,
	}
	for trial := 0; trial < 30; trial++ {
		g := program.NewGraph("fuzz", 16)
		var vals []program.ValueID
		for i := 0; i < 3; i++ {
			vals = append(vals, g.In())
		}
		for i := 0; i < 2; i++ {
			vals = append(vals, g.ConstV(uint64(rng.Intn(1<<16))))
		}
		n := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			pick := func() program.ValueID { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(10) {
			case 0:
				vals = append(vals, g.Load(pick()))
			case 1:
				g.Store(pick(), pick())
			default:
				vals = append(vals, g.Bin(binOps[rng.Intn(len(binOps))], pick(), pick()))
			}
		}
		g.Output(vals[len(vals)-1])
		g.Output(vals[len(vals)-2])

		a := arch(1 + rng.Intn(3))
		inputs := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
		mem := program.Memory{}
		for i := 0; i < 8; i++ {
			mem[uint64(rng.Intn(64))] = uint64(rng.Intn(1 << 16))
		}
		got, want := runBoth(t, g, a, inputs, mem)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d output %d: tta=%#x ref=%#x", trial, i, got[i], want[i])
			}
		}
	}
}

func TestVerifyCatchesWrongInputs(t *testing.T) {
	g := program.NewGraph("v", 16)
	a := g.In()
	g.Output(g.Add(a, a))
	res, err := sched.ScheduleContext(context.Background(), g, arch(2), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(res, []uint64{1, 2}, nil, Options{}); err == nil {
		t.Fatal("extra input accepted")
	}
	if _, err := Run(res, nil, nil, Options{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestTraceProducesLines(t *testing.T) {
	g := program.NewGraph("t", 16)
	a := g.In()
	g.Output(g.Add(a, g.ConstV(1)))
	res, err := sched.ScheduleContext(context.Background(), g, arch(2), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	if _, err := Run(res, []uint64{5}, nil, Options{Verify: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Lines) != len(res.Moves) {
		t.Fatalf("trace has %d lines for %d moves", len(tr.Lines), len(res.Moves))
	}
}

// TestRunIsOneInstanceIteration checks that Run executes exactly one
// iteration of an instance: the same outputs and stores, and Run's trace
// is the instance's first iteration without its iteration number.
func TestRunIsOneInstanceIteration(t *testing.T) {
	g := program.NewGraph("memprog", 16)
	a := g.In()
	base := g.ConstV(0x100)
	v := g.Load(base)
	g.Store(g.Add(base, g.ConstV(1)), g.Add(v, a))
	g.Output(g.Xor(v, a))
	res, err := sched.ScheduleContext(context.Background(), g, arch(2), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint64{0x1234}

	runTr := &Trace{}
	runMem := program.Memory{0x100: 0x00FE}
	got, err := Run(res, inputs, runMem, Options{Trace: runTr})
	if err != nil {
		t.Fatal(err)
	}

	instTr := &Trace{}
	in, err := NewInstance(res, Options{Trace: instTr})
	if err != nil {
		t.Fatal(err)
	}
	in.Mem[0x100] = 0x00FE
	if err := in.SeedInputs(inputs); err != nil {
		t.Fatal(err)
	}
	if err := in.RunIteration(); err != nil {
		t.Fatal(err)
	}
	want, err := in.ReadOutputs()
	if err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(got, want) || !maps.Equal(runMem, in.Mem) {
		t.Fatalf("Run gave %#x with memory %v, the instance %#x with %v", got, runMem, want, in.Mem)
	}
	if len(runTr.Lines) != len(res.Moves) || len(instTr.Lines) != len(res.Moves) {
		t.Fatalf("traces have %d and %d lines for %d moves", len(runTr.Lines), len(instTr.Lines), len(res.Moves))
	}
	for i, line := range instTr.Lines {
		if !strings.HasPrefix(line, "iter   0 cycle ") || runTr.Lines[i] != strings.TrimPrefix(line, "iter   0 ") {
			t.Fatalf("trace line %d: Run %q, instance %q", i, runTr.Lines[i], line)
		}
	}
}

// TestVerifyCatchesWrongTransport corrupts every ALU result through
// ExecOverride: Verify must stop at the first move that carries it, and
// without Verify the run completes with the wrong output.
func TestVerifyCatchesWrongTransport(t *testing.T) {
	g := program.NewGraph("v", 16)
	a := g.In()
	b := g.In()
	g.Output(g.Xor(g.Add(a, b), b))
	res, err := sched.ScheduleContext(context.Background(), g, arch(2), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flip := func(_ int, op program.OpCode, o, x uint64) (uint64, bool) {
		r, err := program.EvalBinary(op, o, x, 16)
		return r ^ 1, err == nil
	}
	inputs := []uint64{0x1111, 0x2222}
	if _, err := Run(res, inputs, nil, Options{Verify: true, ExecOverride: flip}); err == nil ||
		!strings.Contains(err.Error(), "reference value") {
		t.Fatalf("Verify let a corrupted result through: err = %v", err)
	}
	out, err := Run(res, inputs, nil, Options{ExecOverride: flip})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((0x3333^1)^0x2222) ^ 1; out[0] != want {
		t.Fatalf("unverified run: %#x, want %#x", out[0], want)
	}
}
