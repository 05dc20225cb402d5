package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dse"
	"repro/internal/gatelib"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// replayCase is one representative operation of a workload; the traced
// pass replays the calls the exploration makes for it into each layer's
// public functions, serially, with a span around every call.
type replayCase struct {
	spec jobspec.Spec
	// blob is a warm annotator state for the spec's width and seed.
	blob []byte
	// cold marks a workload whose operations start from an empty
	// annotator rather than from blob.
	cold bool
}

// layerReps is how often a replayed call is repeated; its metric is the
// median. Calls of a few microseconds are repeated four times as often.
const layerReps = 5

// layerMetrics replays inst's cases, repeating calls reps times, and
// returns the per-layer metrics, plus numbers only the workload's own
// traced operations have.
func layerMetrics(ctx context.Context, inst *instance, tr *tracer, reps int) (map[string]metric, map[string]metric, error) {
	var (
		counts                             = make(map[string]int64) // one operation per case
		produceMS, utilization, selfMS     []float64
		schedUS, evalUS, boundUS, insertNS []float64
		frontUS, simMS, loadMS, hashUS     []float64
		flushMS, syncMS                    []float64
		classes                            []atpgClass
	)
	for ci, rc := range inst.cases {
		trace := -(ci + 1) // replay traces are negative, op traces positive

		// One operation as the workload runs it, with the program's own
		// instrumentation on: counts and ratios.
		reg := obs.NewRegistry()
		ann := newAnnotator(rc.spec)
		if !rc.cold {
			var err error
			if ann, err = loadAnnotator(rc.spec, rc.blob); err != nil {
				return nil, nil, err
			}
		}
		if _, _, err := runSpec(ctx, rc.spec, ann, reg, spanRef{}); err != nil {
			return nil, nil, err
		}
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			counts[k] += v
		}
		produceMS = append(produceMS, produceSpanMS(snap))
		utilization = append(utilization, snap.Gauges["dse.worker.utilization"])

		// dse's own time: a serial exploration on a warm annotator, minus
		// candidate production and minus the replayed layer calls it made.
		var study *core.Study
		for r := 0; r < reps; r++ {
			reg := obs.NewRegistry()
			ann, err := loadAnnotator(rc.spec, rc.blob)
			if err != nil {
				return nil, nil, err
			}
			spec := rc.spec
			spec.Parallelism = 1
			root := tr.start("replay", 0, trace)
			d, err := tr.do("dse.explore", root, trace, func() (err error) {
				_, study, err = runSpec(ctx, spec, ann, reg, spanRef{})
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			calls, err := replayCalls(ctx, study, ann, spanRef{tr, root, trace})
			tr.end(root)
			if err != nil {
				return nil, nil, err
			}
			selfMS = append(selfMS, ms(d)-produceSpanMS(reg.Snapshot())-calls.totalMS)
			if r == 0 {
				schedUS = append(schedUS, calls.schedUS...)
				evalUS = append(evalUS, calls.evalUS...)
				classes = mergeClasses(classes, classesOf(study), study.Config.Seed)
			}
		}

		// Calls with no span of their own above, each repeated.
		res := study.Result
		var pts3 []pareto.Point
		for _, i := range res.Feasible {
			pts3 = append(pts3, pareto.Point{ID: i, Coords: res.Candidates[i].Coords()})
		}
		sp := spanRef{tr, tr.start("replay", 0, trace), trace}
		bound := newAnnotator(rc.spec)
		for _, i := range res.Feasible {
			d, err := sp.do("testcost.bound", func() error {
				_, err := bound.EvaluateBoundContext(ctx, res.Candidates[i].Arch)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			boundUS = append(boundUS, us(d))
		}
		var fronts, inserts []float64
		for r := 0; r < 4*reps; r++ {
			d, _ := sp.do("pareto.front", func() error { pareto.Front(pts3); return nil })
			fronts = append(fronts, us(d))
			f := pareto.NewStreamingFront(3)
			d, err := sp.do("pareto.stream_insert", func() error {
				for _, p := range pts3 {
					if _, _, err := f.Insert(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			inserts = append(inserts, float64(d.Nanoseconds())/float64(len(pts3)))
		}
		frontUS = append(frontUS, percentile(fronts, 50))
		insertNS = append(insertNS, percentile(inserts, 50))

		verify, err := simVerify(ctx, study, sp, reps)
		if err != nil {
			return nil, nil, err
		}
		simMS = append(simMS, verify)

		var loads, hashes []float64
		for r := 0; r < reps; r++ {
			ann := newAnnotator(rc.spec)
			d, err := sp.do("testcost.load", func() error { return ann.Load(bytes.NewReader(rc.blob)) })
			if err != nil {
				return nil, nil, err
			}
			loads = append(loads, ms(d))
			const n = 200
			d, err = sp.do("jobspec.hash", func() error {
				for k := 0; k < n; k++ {
					s := rc.spec
					if err := s.Validate(); err != nil {
						return err
					}
					s.Normalize()
					_ = s.Hash()
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			hashes = append(hashes, us(d)/n)
		}
		loadMS = append(loadMS, percentile(loads, 50))
		hashUS = append(hashUS, percentile(hashes, 50))

		fl, sy, err := checkpointFlushes(ctx, rc, filepath.Join(inst.dir, fmt.Sprintf("replay-%d.ckpt", ci)), sp, reps)
		if err != nil {
			return nil, nil, err
		}
		flushMS = append(flushMS, fl)
		syncMS = append(syncMS, sy)
		tr.end(sp.id)
	}

	atTrace := -(len(inst.cases) + 1)
	atSpan := spanRef{tr, tr.start("replay", 0, atTrace), atTrace}
	at, err := replayATPG(ctx, classes, atSpan, reps)
	tr.end(atSpan.id)
	if err != nil {
		return nil, nil, err
	}
	c := counts
	ratio := func(num, den int64) float64 { return float64(num) / float64(den) }
	m := map[string]metric{
		"atpg.run_ms.alu16_ripple": {at.groupMS["alu16_ripple"], "ms"},
		"atpg.run_ms.cmp16":        {at.groupMS["cmp16"], "ms"},
		"atpg.run_ms.rf_sum":       {at.groupMS["rf"], "ms"},
		"atpg.run_ms.small_sum":    {at.groupMS["small"], "ms"},
		"atpg.run_ms.total":        {at.totalMS, "ms"},
		"atpg.podem.backtracks":    {float64(at.counters["atpg.podem.backtracks"]), "count"},
		"atpg.faults.redundant":    {float64(at.counters["atpg.faults.redundant"]), "count"},
		"atpg.faults.aborted":      {float64(at.counters["atpg.faults.aborted"]), "count"},
		"atpg.patterns.final":      {float64(at.counters["atpg.patterns.final"]), "count"},
		"atpg.faultsim.lane_util":  {at.laneUtil, "ratio"},
		"gatelib.build_ms.total":   {at.buildMS, "ms"},
		"testcost.evaluate_us_p50": {percentile(evalUS, 50), "us"},
		"testcost.bound_us_p50":    {percentile(boundUS, 50), "us"},
		"testcost.load_ms":         {percentile(loadMS, 50), "ms"},
		"testcost.cache.hit_ratio": {ratio(c["testcost.cache.hit"], c["testcost.cache.hit"]+c["testcost.cache.miss"]), "ratio"},
		"sched.call_us_p50":        {percentile(schedUS, 50), "us"},
		"sched.call_us_p90":        {percentile(schedUS, 90), "us"},
		"sched.calls":              {ratio(c["sched.runs"], int64(len(inst.cases))), "count"},
		"dse.sched.memo.hit_ratio": {ratio(c["dse.sched.memo.hit"], c["dse.sched.memo.hit"]+c["dse.sched.memo.miss"]), "ratio"},
		"dse.produce_ms":           {percentile(produceMS, 50), "ms"},
		"dse.self_ms":              {percentile(selfMS, 50), "ms"},
		"dse.worker.utilization":   {percentile(utilization, 50), "ratio"},
		"pareto.front_us":          {percentile(frontUS, 50), "us"},
		"pareto.stream_insert_ns":  {percentile(insertNS, 50), "ns"},
		"sim.verify_ms":            {percentile(simMS, 50), "ms"},
		"durable.flush_ms":         {percentile(flushMS, 50), "ms"},
		"durable.flush_dirsync_ms": {percentile(syncMS, 50), "ms"},
		"jobspec.hash_us":          {percentile(hashUS, 50), "us"},
	}
	var extra map[string]metric
	if inst.extra != nil {
		extra = inst.extra(tr)
	}
	return m, extra, nil
}

// produceSpanMS is the exploration's candidate-production time: the
// "enumerate" span of a sweep or the "search" span of a guided search.
func produceSpanMS(s *obs.Snapshot) float64 {
	total := 0.0
	for _, root := range s.Spans {
		if root.Name != "dse" {
			continue
		}
		for _, ch := range root.Children {
			if ch.Name == "enumerate" || ch.Name == "search" {
				total += ch.TotalSeconds * 1000
			}
		}
	}
	return total
}

// replayed is what one serial replay of an exploration's calls took.
type replayed struct {
	totalMS         float64
	schedUS, evalUS []float64
}

// replayCalls repeats, serially, the calls an exploration made into the
// scheduler, the annotator and the Pareto front: one schedule plus the
// area/delay annotation per distinct structure (dse memoizes the rest),
// one cost evaluation per feasible candidate, and the two front scans.
func replayCalls(ctx context.Context, study *core.Study, ann *testcost.Annotator, sp spanRef) (replayed, error) {
	var out replayed
	res, cfg := study.Result, study.Config
	add := func(d time.Duration) { out.totalMS += ms(d) }
	seen := make(map[string]bool)
	var pts2, pts3 []pareto.Point
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Arch == nil {
			continue
		}
		if k := structKey(c.Arch); !seen[k] {
			seen[k] = true
			var schedErr error
			d, _ := sp.do("sched.schedule", func() error {
				_, schedErr = sched.ScheduleContext(ctx, cfg.Workload, c.Arch, sched.Options{})
				return nil
			})
			add(d)
			out.schedUS = append(out.schedUS, us(d))
			// An architecture the kernel cannot be scheduled on is
			// infeasible; dse then skips its annotation too.
			if schedErr == nil {
				d, err := sp.do("testcost.area_delay", func() error {
					for ci := range c.Arch.Components {
						if _, _, err := ann.AreaDelayContext(ctx, &c.Arch.Components[ci]); err != nil {
							return err
						}
					}
					_, _, err := ann.SocketArea()
					return err
				})
				if err != nil {
					return out, err
				}
				add(d)
			}
		}
		if !c.Feasible {
			continue
		}
		d, err := sp.do("testcost.evaluate", func() error {
			_, err := ann.EvaluateContext(ctx, c.Arch)
			return err
		})
		if err != nil {
			return out, err
		}
		add(d)
		out.evalUS = append(out.evalUS, us(d))
		pts2 = append(pts2, pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime}})
		pts3 = append(pts3, pareto.Point{ID: i, Coords: c.Coords()})
	}
	d, _ := sp.do("pareto.front", func() error {
		pareto.Front(pts2)
		pareto.Front(pts3)
		return nil
	})
	add(d)
	return out, ctx.Err()
}

// structKey is the structural signature dse memoizes schedules by: bus
// count and component mix, not the port assignment.
func structKey(a *tta.Architecture) string {
	k := fmt.Sprintf("w%d/b%d", a.Width, a.Buses)
	for ci := range a.Components {
		c := &a.Components[ci]
		switch c.Kind {
		case tta.ALU:
			k += "/alu:" + c.Adder.String()
		case tta.RF:
			k += fmt.Sprintf("/rf:%dx%dw%dr", c.NumRegs, c.NumIn, c.NumOut)
		default:
			k += "/" + c.Kind.String()
		}
	}
	return k
}

// simVerify re-schedules the selected candidate and runs it on the
// cycle-accurate simulator with reference checking, as dse's
// VerifySelected does; it returns the median simulator time in ms.
func simVerify(ctx context.Context, study *core.Study, sp spanRef, reps int) (float64, error) {
	res, cfg := study.Result, study.Config
	schedRes, err := sched.ScheduleContext(ctx, cfg.Workload, res.Candidates[res.Selected].Arch, sched.Options{})
	if err != nil {
		return 0, err
	}
	inputs := make([]uint64, cfg.Workload.NumInputs())
	var runs []float64
	for r := 0; r < reps; r++ {
		mem := crypt.MemoryImage()
		d, err := sp.do("sim.run", func() error {
			_, err := sim.Run(schedRes, inputs, mem, sim.Options{Verify: true})
			return err
		})
		if err != nil {
			return 0, err
		}
		runs = append(runs, ms(d))
	}
	return percentile(runs, 50), nil
}

// checkpointFlushes explores rc with a checkpoint, as ttadse -checkpoint
// and the daemon's job checkpoints do, then times rewriting the populated
// file: the periodic flush and the fully durable one with directory
// fsync. It returns both medians in ms.
func checkpointFlushes(ctx context.Context, rc replayCase, path string, sp spanRef, reps int) (float64, float64, error) {
	cfg, _, err := dse.FromSpec(rc.spec)
	if err != nil {
		return 0, 0, err
	}
	if cfg.Annotator, err = loadAnnotator(rc.spec, rc.blob); err != nil {
		return 0, 0, err
	}
	ck, err := dse.OpenCheckpoint(path, cfg)
	if err != nil {
		return 0, 0, err
	}
	cfg.Checkpoint = ck
	if _, err := dse.ExploreContext(ctx, cfg); err != nil {
		return 0, 0, err
	}
	var flushes, syncs []float64
	for r := 0; r < reps; r++ {
		d, _ := sp.do("durable.flush", func() error { ck.Flush(); return nil })
		flushes = append(flushes, ms(d))
		d, err := sp.do("durable.flush_dirsync", ck.FlushErr)
		if err != nil {
			return 0, 0, err
		}
		syncs = append(syncs, ms(d))
	}
	return percentile(flushes, 50), percentile(syncs, 50), nil
}

// atpgClass is one library component the annotator runs gate-level ATPG
// on, with the metric group it reports under.
type atpgClass struct {
	key, group string
	seed       int64
	gen        func(*gatelib.Library) (*gatelib.Component, error)
}

// classesOf lists the ATPG classes of a study: the default sweep's
// classes (so every workload reports the ripple ALU, the comparator and
// the register files) plus every class its candidates use, plus the two
// sockets.
func classesOf(study *core.Study) []atpgClass {
	w := study.Config.Width
	comps := []tta.Component{
		tta.NewFU(tta.ALU, ""), tta.NewFU(tta.CMP, ""),
		tta.NewFU(tta.LDST, ""), tta.NewPC(""), tta.NewIMM(""),
	}
	if def, err := dse.DefaultConfig(); err == nil {
		for _, rfs := range def.RFSets {
			for _, rf := range rfs {
				comps = append(comps, tta.NewRF("", rf.Regs, rf.In, rf.Out))
			}
		}
	}
	for _, c := range study.Result.Candidates {
		if c.Arch != nil {
			comps = append(comps, c.Arch.Components...)
		}
	}
	out := []atpgClass{
		{key: "socket/in", group: "small", gen: func(l *gatelib.Library) (*gatelib.Component, error) {
			return l.InputSocket(testcost.SocketIDBits)
		}},
		{key: "socket/out", group: "small", gen: func(l *gatelib.Library) (*gatelib.Component, error) {
			return l.OutputSocket(testcost.SocketIDBits)
		}},
	}
	for _, c := range comps {
		switch c.Kind {
		case tta.ALU:
			cfg := gatelib.ALUConfig{Width: w, Adder: c.Adder}
			group := "other"
			if c.Adder == gatelib.AdderRipple {
				group = "alu16_ripple"
			}
			out = append(out, atpgClass{key: fmt.Sprintf("alu/%d/%s", w, c.Adder), group: group,
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.ALU(cfg) }})
		case tta.CMP:
			out = append(out, atpgClass{key: "cmp", group: "cmp16",
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.CMP(w) }})
		case tta.RF:
			cfg := gatelib.RFConfig{Width: w, NumRegs: c.NumRegs, NumIn: c.NumIn, NumOut: c.NumOut}
			out = append(out, atpgClass{key: "rf/" + cfg.String(), group: "rf",
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.RF(cfg) }})
		case tta.LDST:
			out = append(out, atpgClass{key: "ldst", group: "small",
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.LDST(w) }})
		case tta.PC:
			out = append(out, atpgClass{key: "pc", group: "small",
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.PC(w) }})
		case tta.IMM:
			out = append(out, atpgClass{key: "imm", group: "small",
				gen: func(l *gatelib.Library) (*gatelib.Component, error) { return l.IMM(w) }})
		}
	}
	return out
}

// mergeClasses adds the classes not yet in have, stamped with seed.
func mergeClasses(have, add []atpgClass, seed int64) []atpgClass {
	seen := make(map[string]bool, len(have))
	for _, c := range have {
		seen[fmt.Sprint(c.key, c.seed)] = true
	}
	for _, c := range add {
		c.seed = seed
		if k := fmt.Sprint(c.key, c.seed); !seen[k] {
			seen[k] = true
			have = append(have, c)
		}
	}
	return have
}

// atpgReplay is the ATPG layer's share of the traced pass.
type atpgReplay struct {
	groupMS          map[string]float64
	totalMS, buildMS float64
	counters         map[string]int64
	laneUtil         float64
}

// replayATPG generates each class's netlist from a fresh library and
// runs ATPG on it with the annotator's settings, serially (one worker),
// reps times; times are per-class medians, counts come from the
// program's own registry on the first repetition.
func replayATPG(ctx context.Context, classes []atpgClass, sp spanRef, reps int) (atpgReplay, error) {
	out := atpgReplay{groupMS: make(map[string]float64), counters: make(map[string]int64)}
	var lanes, capacity float64
	sort.Slice(classes, func(a, b int) bool { return classes[a].key < classes[b].key })
	for _, cl := range classes {
		var builds, runs []float64
		for r := 0; r < reps; r++ {
			var comp *gatelib.Component
			lib := gatelib.NewLibrary()
			d, err := sp.do("gatelib.build", func() (err error) {
				comp, err = cl.gen(lib)
				return err
			})
			if err != nil {
				return out, fmt.Errorf("generating %s: %w", cl.key, err)
			}
			builds = append(builds, ms(d))
			var reg *obs.Registry
			if r == 0 {
				reg = obs.NewRegistry()
			}
			d, err = sp.do("atpg.run", func() error {
				_, err := atpg.RunContext(ctx, comp.Seq, atpg.Config{Seed: cl.seed, Workers: 1, Obs: reg})
				return err
			})
			if err != nil {
				return out, fmt.Errorf("ATPG on %s: %w", cl.key, err)
			}
			runs = append(runs, ms(d))
			if reg != nil {
				snap := reg.Snapshot()
				for k, v := range snap.Counters {
					out.counters[k] += v
				}
				width := snap.Gauges["atpg.faultsim.lane_width"]
				lanes += float64(snap.Counters["atpg.faultsim.lanes"])
				capacity += width * float64(snap.Counters["atpg.faultsim.blocks"])
			}
		}
		run := percentile(runs, 50)
		out.groupMS[cl.group] += run
		out.totalMS += run
		out.buildMS += percentile(builds, 50)
	}
	if capacity > 0 {
		out.laneUtil = lanes / capacity
	}
	return out, nil
}
