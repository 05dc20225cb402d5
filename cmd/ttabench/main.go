package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one workload
// run measures unless -seconds says otherwise.
const defaultSeconds = 20

// setupProbes is how many child processes time the set-up; setup_s is
// their median.
const setupProbes = 5

// minOps is the fewest operations a run measures, even past its time:
// with 60 samples, the printed p75 has fifteen samples beyond it.
const minOps = 60

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a workload run prints as its last line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configures one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// probes is the number of child processes that time the set-up; 0
	// times the run's own in-process set-up instead (tests, which cannot
	// re-exec themselves as the benchmark).
	probes int
	// maxOps, when positive, ends the measured loop after that many
	// operations even if time remains.
	maxOps int
	// short shrinks the guided search and the traced pass's repetitions
	// (tests).
	short bool
	// pins maps a pin name to the sha256 its report must have.
	pins    map[string]string
	workDir string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttabench: ")
	o := options{pins: defaultPins}
	flag.StringVar(&o.workload, "workload", "", "run one workload (sweep_cold, sweep_warm, search, daemon_mix) and print its result line; empty runs every workload, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long each workload run measures")
	traceFlag := flag.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "ttabench"), "scratch directory for checkpoints, traces and results")
	out := flag.String("out", "", "full pass: result file (default <work>/results.json)")
	runs := flag.Int("runs", 1, "full pass: untraced runs per workload, with seeds seed, seed+1, ...")
	compare := flag.String("compare", "", "compare two result files: -compare base.json new.json")
	bench := flag.String("benchmark", "BENCHMARK.json", "compare mode: the file holding the metric bounds")
	probe := flag.Bool("setup-probe", false, "internal: run only the set-up of -workload, then exit")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.probes = setupProbes
	ctx := context.Background()

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			log.Fatal("usage: ttabench -compare base.json new.json")
		}
		regressed, err := compareFiles(os.Stdout, *compare, flag.Arg(0), *bench)
		if err != nil {
			log.Fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *probe:
		if err := probeSetup(ctx, &o); err != nil {
			log.Fatal(err)
		}
	case o.workload != "":
		res, err := runWorkload(ctx, &o)
		if err != nil {
			log.Fatal(err)
		}
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		path := *out
		if path == "" {
			path = filepath.Join(o.workDir, "results.json")
		}
		ok, err := fullPass(ctx, &o, *runs, path)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// printResult prints every metric by name with its unit, then the result
// object as the final line.
func printResult(res *runResult) {
	printMetrics(res.Metrics, "")
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
}

func printMetrics(m map[string]metric, note string) {
	for _, n := range sortedNames(m) {
		fmt.Printf("%-28s %14.6g %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// probeSetup is the body of a set-up probe child: set up, start and end
// one empty round if the workload has rounds (the daemon's start-up),
// tear down, exit.
func probeSetup(ctx context.Context, o *options) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	inst, err := setUp(ctx, w, o)
	if err != nil {
		return err
	}
	defer inst.close()
	if inst.beginRound == nil {
		return nil
	}
	if err := inst.beginRound(ctx); err != nil {
		return err
	}
	return inst.endRound(ctx, newChecker(inst.refs))
}

// setUp creates the run's scratch directory and sets the workload up in it.
func setUp(ctx context.Context, w *workload, o *options) (*instance, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	inst, err := w.setup(ctx, o, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	inst.dir = dir
	closeInst := inst.close
	inst.close = func() {
		if closeInst != nil {
			closeInst()
		}
		os.RemoveAll(dir)
	}
	return inst, nil
}

// measureSetup times o.probes child processes that each start this
// binary, set the workload up and exit, and returns their median wall
// time in seconds: the set-up cost a user pays, process start and
// package initialisation included.
func measureSetup(ctx context.Context, o *options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < o.probes; i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-work", o.workDir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return percentile(secs, 50), nil
}

// runWorkload sets the workload up, runs its closed loop for o.seconds,
// checks every output and returns the result object: end-to-end metrics
// untraced, per-layer metrics traced.
func runWorkload(ctx context.Context, o *options) (*runResult, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	var setupRaw float64
	if o.probes > 0 {
		if setupRaw, err = measureSetup(ctx, o); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	inst, err := setUp(ctx, w, o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if o.probes == 0 {
		setupRaw = time.Since(t0).Seconds()
	}
	chk := newChecker(inst.refs)
	var res *runResult
	if o.trace {
		res, err = tracedPass(ctx, o, inst, chk)
	} else {
		res, err = untracedPass(ctx, o, inst, chk, setupRaw)
	}
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx, chk.digests()); err != nil {
		log.Printf("%s: output check failed: %v", o.workload, err)
		res.Failed++
	}
	for _, e := range chk.errs {
		log.Printf("%s: %v", o.workload, e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// untracedPass measures the end-to-end metrics. Calibration takes out
// most of the machine's drift, not all of it, so only medians are gated;
// the quartiles, the highest tail with ten samples beyond it, the raw
// times, the peak RSS and the throughput are printed.
func untracedPass(ctx context.Context, o *options, inst *instance, chk *checker, setupRaw float64) (*runResult, error) {
	st := inst.loop(ctx, o, o.seconds, nil, chk)
	peak, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	lat := st.lat()
	calMS := percentile(st.opCal, 50)
	printMetrics(map[string]metric{
		"op_p25_ms":     {percentile(lat, 25), "ms"},
		"op_p75_ms":     {percentile(lat, 75), "ms"},
		"op_p50_raw_ms": {percentile(st.raw, 50), "ms"},
		"setup_raw_s":   {setupRaw, "s"},
		"cal_kernel_ms": {calMS, "ms"},
		"peak_rss_mb":   {peak, "MB"},
		"ops_per_s":     {float64(len(lat)) / st.busy.Seconds(), "1/s"},
	}, " (not gated)")
	if p := tailPercentile(len(lat)); p > 0 {
		fmt.Printf("tail: p%g = %.4g ms over %d operations (not gated)\n", p, percentile(lat, p), len(lat))
	}
	return &runResult{
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":   {calibrated(setupRaw, calMS), "s"},
			"op_p50_ms": {percentile(lat, 50), "ms"},
			"rss_mb":    {percentile(st.rss, 50), "MB"},
		},
	}, nil
}

// tracedPass traces every other operation, so the tracing overhead is
// read off one process free of drift between two halves, then replays
// the workload's layer calls serially for the per-layer metrics, and
// writes the spans to the trace file.
func tracedPass(ctx context.Context, o *options, inst *instance, chk *checker) (*runResult, error) {
	tr := newTracer()
	st := inst.loop(ctx, o, o.seconds, tr, chk)
	if len(st.raw) == 0 || len(st.traced) == 0 {
		return nil, fmt.Errorf("%s: the traced pass needs traced and untraced operations (%d and %d succeeded)",
			o.workload, len(st.traced), len(st.raw))
	}
	reps := layerReps
	if o.short {
		reps = 1
	}
	layers, extra, err := layerMetrics(ctx, inst, tr, reps)
	if err != nil {
		return nil, err
	}
	p50u, p50t := percentile(st.lat(), 50), percentile(st.traced, 50)
	layers["trace.overhead_pct"] = metric{100 * (p50t - p50u) / p50u, "%"}
	if err := tr.write(tracePath(o.workDir, o.workload), extra); err != nil {
		return nil, err
	}
	printMetrics(extra, " (trace file only)")
	return &runResult{Attempted: st.attempted, Failed: st.failed, Metrics: layers}, nil
}

// tracePath is where the traced pass of workload writes its spans.
func tracePath(workDir, workload string) string {
	return filepath.Join(workDir, "trace-"+workload+".json")
}

// loopStats is what one closed-loop measurement observed.
type loopStats struct {
	// raw holds the latencies of successful untraced operations as
	// measured, ms, and opCal the kernel time of the calibration before
	// each; rss the resident set after each, MB.
	raw, opCal, rss []float64
	// traced holds the calibrated latencies of successful traced
	// operations.
	traced []float64
	// attempted and failed count operations.
	attempted int
	failed    int
	// busy is the measured time: per batch, the longest any client spent
	// inside its operation; untimed checks and collections are left out.
	busy time.Duration
}

// lat returns the calibrated latencies of the successful untraced
// operations.
func (st *loopStats) lat() []float64 {
	out := make([]float64, len(st.raw))
	for i, d := range st.raw {
		out[i] = calibrated(d, st.opCal[i])
	}
	return out
}

// loop runs inst's clients in a closed loop for secs seconds (or o.maxOps
// operations; at least minOps), timing each operation and checking its
// output untimed. With a tracer, every other operation is traced. The
// loop runs in batches of one operation per client, started together;
// the next batch starts when the whole batch has completed. Before each
// batch, while no operation runs, the loop collects garbage and then
// calibrates, untimed: an operation pays for the collections its own
// allocation triggers, not for the garbage its predecessors left, and
// its latency is scaled by a calibration no collection disturbed. A
// workload with rounds runs them back to back, roundOps operations each.
func (inst *instance) loop(ctx context.Context, o *options, secs float64, tr *tracer, chk *checker) loopStats {
	until := time.Now().Add(time.Duration(secs * float64(time.Second)))
	var st loopStats
	started := 0
	more := func() bool {
		if o.maxOps > 0 {
			return started < o.maxOps && ctx.Err() == nil
		}
		return (time.Now().Before(until) || started < minOps) && ctx.Err() == nil
	}
	for more() {
		if inst.beginRound != nil {
			if err := inst.beginRound(ctx); err != nil {
				st.attempted++
				st.failed++
				chk.note(err)
				break
			}
		}
		for n := 0; (inst.roundOps == 0 || n < inst.roundOps) && more(); n += inst.clients {
			runtime.GC()
			inst.batch(ctx, tr, chk, &st, started, calibrate())
			started += inst.clients
		}
		if inst.endRound != nil {
			if err := inst.endRound(ctx, chk); err != nil {
				st.failed++
				chk.note(err)
			}
		}
	}
	return st
}

// batch runs one operation on every client at once and records them;
// started is the number of operations before the batch, calMS the
// calibration before it. Operations with an even number are traced.
func (inst *instance) batch(ctx context.Context, tr *tracer, chk *checker, st *loopStats, started int, calMS float64) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		busy = make([]time.Duration, inst.clients)
	)
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := started + c + 1
			seq := inst.nextSeq[c]
			inst.nextSeq[c]++
			var opTr *tracer
			if n%2 == 0 {
				opTr = tr
			}
			id := opTr.start("op", 0, n)
			t0 := time.Now()
			key, out, err := inst.op(ctx, c, seq, spanRef{opTr, id, n})
			d := time.Since(t0)
			opTr.end(id)
			busy[c] = d
			var rss float64
			if err == nil && opTr == nil {
				rss, err = statusMB("VmRSS")
			}
			if err == nil {
				err = chk.check(key, out)
			}
			mu.Lock()
			defer mu.Unlock()
			st.attempted++
			switch {
			case err != nil:
				st.failed++
				chk.note(fmt.Errorf("op %d (client %d): %w", seq, c, err))
			case opTr != nil:
				st.traced = append(st.traced, calibrated(ms(d), calMS))
			default:
				st.raw = append(st.raw, ms(d))
				st.opCal = append(st.opCal, calMS)
				st.rss = append(st.rss, rss)
			}
		}(c)
	}
	wg.Wait()
	st.busy += slices.Max(busy)
}
