package gatelib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/scan"
)

// pinSocketIDBits is the socket ID width the annotator builds its
// sockets at (testcost.SocketIDBits).
const pinSocketIDBits = 6

// TestLibraryNetlistsPinned pins the Verilog of every generator output
// the exhaustive sweep and the guided search reach: the ALU with both
// adders, the comparator, LD/ST, PC and IMM, and every register-file shape
// of the search space (4-32 registers, 1-2 write and 1-3 read ports), each
// at widths 8 and 16, plus both sockets at the annotator's ID width. Each
// component contributes its Seq view, its Comb view when it has one, and
// the scan-inserted Seq view, so a change to a generator, to the builder or
// to scan insertion that moves any netlist byte fails here. One digest per
// generator says which one moved; such a change must also bump LibraryKey.
func TestLibraryNetlistsPinned(t *testing.T) {
	want := map[string]string{
		"alu-carry-select": "06a07b3084fc9454993ac7b9e6d51c626dc6d700329fb152b01a0396f4a05915",
		"alu-ripple":       "d903cbab0a5cefd7be9e7d4fb59a5a784f6307dd5c85fbb60960807a3cd5b931",
		"cmp":              "f1489871449ebade3753e99601dab190c76d3e4fa1f851affb51c2307204f3f5",
		"imm":              "859f35edeea41c39ad648928e81924b32db9cad4fb3bfeefd6a8961b8dc4ff84",
		"input-socket":     "acdfe37252b27d5be1862cf6e38f9ced3a878570088f2b29afa5393c5e473699",
		"ldst":             "83b1b7a25861e9795416e073e7ad9575b760f382844ae62e710bfa78cd5ac407",
		"output-socket":    "cd5349a1c33483a0d287ed3c3b30a59c3d811a273bf1003a7a24fbea5fbeaefa",
		"pc":               "d0ce2b23f579af19cbc11ff5c9d195acc398210dfa2a5b9e85141c9e6a0d5447",
		"rf":               "15d5ac4ddbbad32799d9cf3249d2213cadb765946df33eb1aaa696f97f9b3c9e",
	}
	hs := map[string]hash.Hash{}
	n := 0
	add := func(class string, c *Component, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		ins, err := scan.Insert(c.Seq)
		if err != nil {
			t.Fatalf("%s: scan insert: %v", c.Name, err)
		}
		h := hs[class]
		if h == nil {
			h = sha256.New()
			hs[class] = h
		}
		for _, v := range []struct {
			tag string
			n   *netlist.Netlist
		}{{"seq", c.Seq}, {"comb", c.Comb}, {"scan", ins.N}} {
			if v.n == nil {
				continue
			}
			fmt.Fprintf(h, "// %s %s\n", c.Name, v.tag)
			if err := v.n.WriteVerilog(h, v.n.Name); err != nil {
				t.Fatalf("%s %s: %v", c.Name, v.tag, err)
			}
		}
		n++
	}
	for _, w := range []int{8, 16} {
		c, err := NewALU(ALUConfig{Width: w, Adder: AdderRipple})
		add("alu-ripple", c, err)
		c, err = NewALU(ALUConfig{Width: w, Adder: AdderCarrySelect})
		add("alu-carry-select", c, err)
		c, err = NewCMP(w)
		add("cmp", c, err)
		c, err = NewLDST(w)
		add("ldst", c, err)
		c, err = NewPC(w)
		add("pc", c, err)
		c, err = NewIMM(w)
		add("imm", c, err)
		for _, regs := range []int{4, 8, 12, 16, 24, 32} {
			for in := 1; in <= 2; in++ {
				for out := 1; out <= 3; out++ {
					c, err = NewRF(RFConfig{Width: w, NumRegs: regs, NumIn: in, NumOut: out})
					add("rf", c, err)
				}
			}
		}
	}
	c, err := NewInputSocket(pinSocketIDBits)
	add("input-socket", c, err)
	c, err = NewOutputSocket(pinSocketIDBits)
	add("output-socket", c, err)

	if n != 86 {
		t.Fatalf("pinned %d components, want 86", n)
	}
	classes := make([]string, 0, len(hs))
	for class := range hs {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		if got := hex.EncodeToString(hs[class].Sum(nil)); got != want[class] {
			t.Errorf("%s netlists: sha256 %s, want %s", class, got, want[class])
		}
	}
}
