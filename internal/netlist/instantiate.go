package netlist

import "fmt"

// Instantiate flattens a sub-netlist into the builder: its gates and
// flip-flops are copied with fresh nets, its input ports are connected to
// the supplied nets, and the nets of its output ports are returned. Names
// are prefixed for debuggability. This is the structural-composition
// primitive used to assemble whole datapaths from library components.
func Instantiate(b *Builder, sub *Netlist, prefix string, inputs map[string][]Net) (map[string][]Net, error) {
	remap := make([]Net, sub.NumNets())
	for i := range remap {
		remap[i] = InvalidNet
	}
	for _, p := range sub.InputPorts {
		nets, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("netlist: instantiate %s/%s: input %q not connected", prefix, sub.Name, p.Name)
		}
		if len(nets) != p.Width() {
			return nil, fmt.Errorf("netlist: instantiate %s/%s: input %q width %d, got %d nets",
				prefix, sub.Name, p.Name, p.Width(), len(nets))
		}
		for i, orig := range p.Nets {
			remap[orig] = nets[i]
		}
	}
	// Declare flip-flops first so feedback nets resolve.
	ffIdx := make([]int, len(sub.FFs))
	for i, ff := range sub.FFs {
		q, idx := b.FFDecl(prefix+"/"+ff.Name, ff.Init)
		remap[ff.Q] = q
		ffIdx[i] = idx
	}
	for _, gi := range sub.TopoOrder() {
		g := sub.Gates[gi]
		ins := make([]Net, len(g.In))
		for k, in := range g.In {
			if remap[in] == InvalidNet {
				return nil, fmt.Errorf("netlist: instantiate %s/%s: net %d used before definition",
					prefix, sub.Name, in)
			}
			ins[k] = remap[in]
		}
		remap[g.Out] = b.Gate(g.Type, ins...)
	}
	for i, ff := range sub.FFs {
		d := remap[ff.D]
		if d == InvalidNet {
			return nil, fmt.Errorf("netlist: instantiate %s/%s: flip-flop %q D unmapped", prefix, sub.Name, ff.Name)
		}
		b.SetD(ffIdx[i], d)
	}
	out := make(map[string][]Net, len(sub.OutputPorts))
	for _, p := range sub.OutputPorts {
		nets := make([]Net, p.Width())
		for i, orig := range p.Nets {
			if remap[orig] == InvalidNet {
				return nil, fmt.Errorf("netlist: instantiate %s/%s: output %q bit %d undriven",
					prefix, sub.Name, p.Name, i)
			}
			nets[i] = remap[orig]
		}
		out[p.Name] = nets
	}
	return out, nil
}
