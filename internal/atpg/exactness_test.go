package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/obs"
)

// libraryClass is one library element the default sweep or the guided
// search annotates with a cold ATPG run.
type libraryClass struct {
	name string
	comp *gatelib.Component
}

// libraryClasses builds the classes the exactness pins and the region
// checks run on, at the paper's 16-bit width: every class the default
// 288-candidate sweep touches (both ALU adders, the comparator, the six
// register-file shapes of the default RF sets, the singleton units and
// both sockets with 6 id bits), then two more of the guided search's 36
// register-file shapes, rf16x24_2w3r (2,746 gates) and rf16x32_1w2r
// (2,053 gates). The other 28 search shapes are not covered. New classes
// go at the end, so that the seeded draws TestRegionSoundness makes for
// the earlier ones stay the same.
func libraryClasses(t testing.TB) []libraryClass {
	t.Helper()
	lib := gatelib.NewLibrary()
	var out []libraryClass
	add := func(name string, c *gatelib.Component, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, libraryClass{name, c})
	}
	c, err := lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	add("alu16_ripple", c, err)
	c, err = lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderCarrySelect})
	add("alu16_cs", c, err)
	c, err = lib.CMP(16)
	add("cmp16", c, err)
	for _, rf := range []struct{ regs, in, out int }{
		{8, 1, 1}, {8, 1, 2}, {12, 1, 1}, {12, 1, 2}, {16, 1, 2}, {16, 2, 2},
	} {
		c, err = lib.RF(gatelib.RFConfig{Width: 16, NumRegs: rf.regs, NumIn: rf.in, NumOut: rf.out})
		add(fmt.Sprintf("rf16x%d_%dw%dr", rf.regs, rf.in, rf.out), c, err)
	}
	c, err = lib.LDST(16)
	add("ldst16", c, err)
	c, err = lib.PC(16)
	add("pc16", c, err)
	c, err = lib.IMM(16)
	add("imm16", c, err)
	c, err = lib.InputSocket(6)
	add("isock6", c, err)
	c, err = lib.OutputSocket(6)
	add("osock6", c, err)
	for _, rf := range []struct{ regs, in, out int }{{24, 2, 3}, {32, 1, 2}} {
		c, err = lib.RF(gatelib.RFConfig{Width: 16, NumRegs: rf.regs, NumIn: rf.in, NumOut: rf.out})
		add(fmt.Sprintf("rf16x%d_%dw%dr", rf.regs, rf.in, rf.out), c, err)
	}
	return out
}

// resultDigest is a sha256 over the final patterns and the
// detected/redundant/aborted split.
func resultDigest(res *Result) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		h.Write(p)
		h.Write([]byte{0xff})
	}
	fmt.Fprintf(h, "D%d/R%d/A%d", res.Detected, res.Redundant, res.Aborted)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPodemExactnessPins holds every class to its exactnessPins entries:
// one full run ("w1") and one PODEM-only run ("p1"), which exercises the
// engine on the classes whose random phase leaves it nothing to do.
func TestPodemExactnessPins(t *testing.T) {
	for _, c := range libraryClasses(t) {
		for _, run := range []struct {
			tag string
			cfg Config
		}{
			{"w1", Config{Seed: 7}},
			{"p1", Config{Seed: 7, MaxRandomPatterns: -1}},
		} {
			key := c.name + "/" + run.tag
			reg := obs.NewRegistry()
			cfg := run.cfg
			cfg.Obs = reg
			res, err := RunContext(context.Background(), c.comp.Seq, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := exactnessPin{
				digest:     resultDigest(res),
				decisions:  reg.Counter("atpg.podem.decisions").Value(),
				backtracks: reg.Counter("atpg.podem.backtracks").Value(),
			}
			if want, ok := exactnessPins[key]; !ok || got != want {
				t.Errorf("%s: got pin\n\t%q: {%q, %d, %d},\nwant %+v", key, key, got.digest, got.decisions, got.backtracks, want)
			}
		}
	}
}

// exactnessPin records one cold run at seed 7: the output digest and the
// PODEM engines' decision and backtrack totals.
type exactnessPin struct {
	digest     string
	decisions  int64
	backtracks int64
}

// exactnessPins were recorded with the unrestricted (whole-fanout)
// implication engine and are checked by TestPodemExactnessPins. Any
// PODEM optimization must reproduce them exactly: not only the same
// patterns, but the same search — every decision and every backtrack.
// "w1" is a full run (the tag dates from when a run took a worker count)
// and "p1" a PODEM-only run. The two register files at the end were
// recorded later, when a density rule still ran them on a 512-lane
// simulator; they hold the 64-lane one to that engine's results.
var exactnessPins = map[string]exactnessPin{
	"alu16_ripple/w1": {"175cd0ddbd8bb36f46e07fb2fe1d93714c7df7609dec9dd9b0558f8bfce954dc", 24194, 24036},
	"alu16_ripple/p1": {"498a6bb9400b09a19e7eed50934f81c09e5085109ef3495d67794e9e41b356b7", 24848, 24039},
	"alu16_cs/w1":     {"75bfa5a85fe80c81ef852236770936cb95bbb024a73a73997bef87ec38b90b81", 17470, 17345},
	"alu16_cs/p1":     {"21e0b95b381391ecd54fa871190535eb7aca69343df02028d1406503925fe9cd", 18466, 17384},
	"cmp16/w1":        {"ae4a04c5b5d1c276213b3d7852777ee51390441e0bd9afa892f538bbbd290c29", 3302, 47},
	"cmp16/p1":        {"05d13692845f4ed07b43a5784cf1c7b4ad3fcc3d796f05d2c40b77164d029cc3", 3899, 57},
	"rf16x8_1w1r/w1":  {"aaeff0b2408b66fa3c24448974ffd5022eac416cfd53e37a9ee995fe8406c5e5", 0, 0},
	"rf16x8_1w1r/p1":  {"9aafe3879a0d175d1c6f2e2d0bc1976ac200b37681b3fbc7d5ab5ea4ae42031d", 436, 0},
	"rf16x8_1w2r/w1":  {"32072d3c2e397772ffe4ecd3371a336513e338143a5a7ab5a2e6e38cd1fdcb69", 0, 0},
	"rf16x8_1w2r/p1":  {"0a6c6e7a45839c089c74b09604d203f7358a44c173365e9ab43c51417498c840", 424, 0},
	"rf16x12_1w1r/w1": {"7df0ab277986addf0340b0900c96e581e393ca0ed3af37585c1a173e65383498", 768, 768},
	"rf16x12_1w1r/p1": {"9395435ac9bde9fb80d5cd0ae01feeb3c93ef06b6ba555c8ec26b0ded7d68e60", 1526, 768},
	"rf16x12_1w2r/w1": {"a5b4d1edc87bcb4cd69ba984fc893cff504c0d8d7f7e76df3d39d5feb90fee7b", 1536, 1536},
	"rf16x12_1w2r/p1": {"3a420f7835e3913b8cae5d722925d7b0dc50d4749c0d5ea7e908dad46c13fbc9", 2350, 1536},
	"rf16x16_1w2r/w1": {"dd94a15fb2647b26b442cd775b8d7789545ac547cf250cf32478c7c67d67871a", 0, 0},
	"rf16x16_1w2r/p1": {"c731a962a1501acc76c9c18147911591a3ef77c44093ea8d7a0a09ebfb7a145b", 1054, 0},
	"rf16x16_2w2r/w1": {"5afa0080fb8e86968aefa91e709e423853939f3774f3623a8a065aabecd97b2b", 0, 0},
	"rf16x16_2w2r/p1": {"dde8349ca68a29795824de6f6be84bd40339ab9323315c633510ba27da3f8a6c", 1471, 0},
	"ldst16/w1":       {"ca5a93cd54e71399efc0e1437f0c00622a1a6ea5f9848c80e2af1df9f1dc0acd", 0, 0},
	"ldst16/p1":       {"95efcb85e189e15a93cad70c03245ad42e3253fb2eed02208567503f6970e49a", 36, 0},
	"pc16/w1":         {"0b9f4d3f8e856d072b0bf79d58cccb41759f408a9bdca7c56ccb26e264d282cf", 181, 48},
	"pc16/p1":         {"963b2130197e3b1e3c07b81c885cc76346cf7802fdd15c336d4479247d656ec0", 285, 48},
	"imm16/w1":        {"3f54522a0f00d2d1752df024e5389998faf49c13ac7179c5f8500b0ebc09dc46", 0, 0},
	"imm16/p1":        {"32e9e14e08f5b8840208ed305ff6a7ea606f842869363e4fc15e3ca88ed98ac3", 24, 0},
	"isock6/w1":       {"b5ac9c9bdb76a8f87ab36562fee837f264ec643d7b235926228d54d9d4ecc1f4", 16, 0},
	"isock6/p1":       {"feed16755f4b08770090c55069a5e69aa550819ae626f83eaa61232e15a44f2e", 87, 0},
	"osock6/w1":       {"fa129cd178f9b6b3db522b5d4f67522efa1ff3dd6626e7b2b386228b8e8cdb53", 0, 0},
	"osock6/p1":       {"9af8f386f2c367f5e8a439b21cb28e1725782fd3e86974f1065e2a1a805b864b", 74, 0},
	"rf16x24_2w3r/w1": {"babd0e4f364179e2bf1038107491878d7bb5563bcc55f2959c5a236e48ac509e", 12288, 12288},
	"rf16x24_2w3r/p1": {"f26afcf0e0ac81c3bf86001c4464cee3043e6196adfbc16ddd0149e00550b96e", 15052, 12288},
	"rf16x32_1w2r/w1": {"32f07f76801058019d22876608829cbfe032ca28d9b061197da6303ac18a4bf6", 7, 0},
	"rf16x32_1w2r/p1": {"41d6b7cf6715068986a2d04aa16c11d7ec4ecd7e786a0630b90377e0af3c588a", 2480, 0},
}
