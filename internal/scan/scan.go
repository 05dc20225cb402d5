// Package scan models full-scan design-for-test: the baseline the paper's
// functional approach is compared against in Table 1. It provides the scan
// test-time cost model and a structural scan-chain insertion transform that
// rebuilds a netlist with muxed-D scan flip-flops, so that scan shifting
// can actually be simulated.
package scan

import (
	"fmt"

	"repro/internal/netlist"
)

// ChainLength returns n_l, the scan-chain length of the circuit: every
// flip-flop joins one chain (the paper's single-chain assumption for
// Table 1).
func ChainLength(n *netlist.Netlist) int { return len(n.FFs) }

// TestCycles returns the number of clock cycles needed to apply np scan
// patterns through a single chain of length nl: each pattern shifts in over
// nl cycles (overlapped with shifting the previous response out), plus one
// capture cycle, plus a final nl-cycle shift-out of the last response.
func TestCycles(np, nl int) int {
	if np <= 0 {
		return 0
	}
	return np*(nl+1) + nl
}

// AreaOverhead returns the extra cell area of replacing every plain
// flip-flop with a scannable one.
func AreaOverhead(n *netlist.Netlist) float64 {
	return n.AreaWithScan() - n.Area()
}

// MultiChainCycles returns the test time with the nl flip-flops balanced
// over k parallel scan chains: the shift depth shrinks to ceil(nl/k) while
// pattern count is unchanged. The paper's Table 1 notes that moving to
// multiple chains changes both its columns equally (the socket test is
// scan-based in the functional approach too), "hence, our method still
// retains the advantage" — MultiChainAdvantage quantifies that.
func MultiChainCycles(np, nl, k int) int {
	if np <= 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	depth := (nl + k - 1) / k
	return np*(depth+1) + depth
}

// MultiChainAdvantage returns the full-scan-to-functional cycle ratio for
// a component when both approaches use k scan chains for their scan
// portions: full scan shifts every pattern through the chains, while the
// functional approach shifts only the socket test (npSocket patterns over
// the same chains) and applies the component patterns at cd cycles each.
func MultiChainAdvantage(np, nl, cd, npSocket, k int) float64 {
	scan := MultiChainCycles(np, nl, k)
	functional := np*cd + MultiChainCycles(npSocket, nl, k)
	if functional <= 0 {
		return 0
	}
	return float64(scan) / float64(functional)
}

// Inserted is a netlist rewritten with a scan chain, plus bookkeeping to
// drive it.
type Inserted struct {
	// N is the rewritten netlist with ports scan_in, scan_en (inputs) and
	// scan_out (output) added.
	N *netlist.Netlist
	// Order lists the original flip-flop indices in scan-chain order
	// (scan_in feeds Order[0]; Order[len-1] drives scan_out).
	Order []int
}

// Insert rebuilds the netlist with a muxed-D scan chain threaded through
// every flip-flop in declaration order.
func Insert(src *netlist.Netlist) (*Inserted, error) {
	b := netlist.NewBuilder(src.Name + "_scan")
	remap := make([]netlist.Net, src.NumNets())
	for i := range remap {
		remap[i] = netlist.InvalidNet
	}

	for _, p := range src.InputPorts {
		nets := b.InputBus(p.Name, p.Width())
		for i, orig := range p.Nets {
			remap[orig] = nets[i]
		}
	}
	scanIn := b.Input("scan_in")
	scanEn := b.Input("scan_en")

	// Declare flip-flops first so feedback nets resolve.
	ffIdx := make([]int, len(src.FFs))
	for i, ff := range src.FFs {
		q, idx := b.FFDecl(ff.Name, ff.Init)
		remap[ff.Q] = q
		ffIdx[i] = idx
	}

	for _, gi := range src.TopoOrder() {
		g := src.Gates[gi]
		ins := make([]netlist.Net, len(g.In))
		for k, in := range g.In {
			if remap[in] == netlist.InvalidNet {
				return nil, fmt.Errorf("scan: net %d used before definition", in)
			}
			ins[k] = remap[in]
		}
		remap[g.Out] = b.Gate(g.Type, ins...)
	}

	// Thread the chain: FF i's scan input is FF i-1's Q (or scan_in).
	prev := scanIn
	order := make([]int, len(src.FFs))
	for i, ff := range src.FFs {
		d := remap[ff.D]
		if d == netlist.InvalidNet {
			return nil, fmt.Errorf("scan: flip-flop %q D net unmapped", ff.Name)
		}
		b.SetD(ffIdx[i], b.Mux(scanEn, d, prev))
		prev = remap[ff.Q]
		order[i] = i
	}
	b.Output("scan_out", prev)

	for _, p := range src.OutputPorts {
		nets := make([]netlist.Net, p.Width())
		for i, orig := range p.Nets {
			if remap[orig] == netlist.InvalidNet {
				return nil, fmt.Errorf("scan: output %q bit %d unmapped", p.Name, i)
			}
			nets[i] = remap[orig]
		}
		b.OutputBus(p.Name, nets)
	}

	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Inserted{N: n, Order: order}, nil
}

// Harness drives a scan-inserted netlist: shift in a state, capture, shift
// out. It exists so tests (and the ATPG demo) can exercise real scan
// operation rather than trusting the cycle formula.
type Harness struct {
	ins   *Inserted
	st    *netlist.State
	pSIn  netlist.Port
	pSEn  netlist.Port
	pSOut netlist.Port
}

// NewHarness prepares a single-lane scan driver.
func NewHarness(ins *Inserted) (*Harness, error) {
	h := &Harness{ins: ins, st: netlist.NewState(ins.N)}
	var ok bool
	if h.pSIn, ok = ins.N.InputPort("scan_in"); !ok {
		return nil, fmt.Errorf("scan: missing scan_in")
	}
	if h.pSEn, ok = ins.N.InputPort("scan_en"); !ok {
		return nil, fmt.Errorf("scan: missing scan_en")
	}
	if h.pSOut, ok = ins.N.OutputPort("scan_out"); !ok {
		return nil, fmt.Errorf("scan: missing scan_out")
	}
	return h, nil
}

// State returns the underlying evaluation state (for setting functional
// inputs between scan operations).
func (h *Harness) State() *netlist.State { return h.st }

// ShiftIn loads bits into the chain MSB-last: bits[0] ends up in the first
// flip-flop of the chain after len(bits) shift cycles. It simultaneously
// returns the bits shifted out.
func (h *Harness) ShiftIn(bits []uint8) []uint8 {
	out := make([]uint8, len(bits))
	h.st.SetInputBus(h.pSEn, 1)
	for i := len(bits) - 1; i >= 0; i-- {
		h.st.SetInputBus(h.pSIn, uint64(bits[i]))
		h.st.Eval()
		out[i] = uint8(h.st.OutputBusValue(h.pSOut, 0))
		h.st.Step()
	}
	return out
}

// Capture performs one functional clock (scan_en low).
func (h *Harness) Capture() {
	h.st.SetInputBus(h.pSEn, 0)
	h.st.Cycle()
}

// ChainState reads the current flip-flop contents destructively by
// shifting them out (zeros are shifted in).
func (h *Harness) ChainState() []uint8 {
	nl := len(h.ins.N.FFs)
	zeros := make([]uint8, nl)
	return h.ShiftIn(zeros)
}
