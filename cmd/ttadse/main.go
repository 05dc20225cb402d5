// Command ttadse runs the design and test space exploration of the Crypt
// application and regenerates the paper's figures 2, 8 and 9 and Table 1.
//
// Usage:
//
//	ttadse [-fig 2|8] [-table1] [-csv] [-buses 1,2,3,4] [-alus 1,2,3] [-cmps 1,2]
//	       [-norm euclid|manhattan|chebyshev] [-wa A] [-wt T] [-wc C]
//	       [-metrics file|-] [-progress] [-timeout 30s]
//
// Without flags the complete study (both figures, the selection and
// Table 1) is printed.
//
// Observability: -metrics dumps the run's full metrics snapshot (span
// durations per stage, scheduler/ATPG counters, annotator cache hit rate,
// worker utilization) as JSON to the given file, or to stdout with "-"
// (which then replaces the default report so the output stays valid
// JSON). -progress prints the run's typed events to stderr as they
// happen: candidate completions, isolated panics, degraded annotations
// and warnings. Printing is synchronous, so a slow stderr reader slows
// the run rather than losing lines.
//
// Resilience: -timeout bounds the exploration; on expiry the completed
// evaluations are still reported (with a partial-result summary on
// stderr) and the process exits with code 2 — a hard failure mid-sweep
// exits 1, a clean run 0. -atpg-deadline budgets each gate-level ATPG
// run; an exhausted budget degrades that annotation to an analytical
// upper bound (rows marked "degraded" in the report), and
// -degraded-policy decides whether such points may win the selection.
// -checkpoint persists completed evaluations to a file and resumes from
// it after a kill, producing byte-identical output to an uninterrupted
// run. A checkpoint is bound to the run's spec hash, ATPG budget
// included, so a run with another budget ignores it as stale.
//
// Scale: -search switches from the exhaustive sweep to the guided
// GA + successive-halving exploration over the widened parameter space
// (tens of millions of candidate templates): every generation is
// screened on the cheap analytical-bound tier and only the best
// ceil(pop/eta) candidates receive full gate-level evaluation. Tune with
// -search-pop, -search-gens, -search-eta and -search-seed; a fixed seed
// reproduces the identical report at any parallelism.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/testcost"
	"repro/internal/tta"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttadse: ")
	fig := flag.Int("fig", 0, "print only one figure (2 or 8)")
	table1 := flag.Bool("table1", false, "print only Table 1 for the selected architecture")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	busesFlag := flag.String("buses", "", "comma-separated bus counts to explore (default 1,2,3,4)")
	alusFlag := flag.String("alus", "", "comma-separated ALU counts to explore (default 1,2,3)")
	cmpsFlag := flag.String("cmps", "", "comma-separated comparator counts to explore (default 1,2)")
	normFlag := flag.String("norm", "euclid", "selection norm: euclid, manhattan or chebyshev")
	wa := flag.Float64("wa", 1, "area weight for the selection norm")
	wt := flag.Float64("wt", 1, "execution-time weight")
	wc := flag.Float64("wc", 1, "test-cost weight")
	save := flag.String("save", "", "write the selected architecture as JSON to this file")
	workload := flag.String("workload", "crypt", "application kernel: crypt, crc16, vecmax, countbelow or checksum")
	cache := flag.String("cache", "", "warm-start annotation cache file: loaded if present, rewritten after the run")
	metrics := flag.String("metrics", "", "write the metrics snapshot as JSON to this file ('-' = stdout)")
	progress := flag.Bool("progress", false, "stream candidate-completion events to stderr")
	timeout := flag.Duration("timeout", 0, "cancel the exploration after this duration (0 = none); completed evaluations are still reported, exit code 2")
	atpgDeadline := flag.Duration("atpg-deadline", 0, "wall-clock budget per gate-level ATPG run; on exhaustion the annotation degrades to an analytical upper bound (0 = none)")
	degradedPolicy := flag.String("degraded-policy", "allow", "how budget-degraded candidates compete in the selection: allow, penalize or exclude")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: completed evaluations are persisted there and restored on the next run")
	search := flag.Bool("search", false, "replace the exhaustive sweep with the guided GA + successive-halving exploration over the widened space (-buses/-alus/-cmps are then ignored)")
	searchPop := flag.Int("search-pop", 0, "guided search: genomes per generation (0 = default 64)")
	searchGens := flag.Int("search-gens", 0, "guided search: number of generations (0 = default 8)")
	searchEta := flag.Int("search-eta", 0, "guided search: successive-halving ratio, top ceil(pop/eta) of each generation get full evaluation (0 = default 4)")
	searchSeed := flag.Int64("search-seed", 0, "guided search: GA random seed (0 = follow the job seed)")
	flag.Parse()

	// The flags are a thin veneer over a jobspec.Spec — the same
	// serializable description a ttadsed job submission carries — so CLI
	// and daemon explorations are built by the one dse.FromSpec path.
	spec := jobspec.Spec{
		Workload:       *workload,
		Norm:           *normFlag,
		WA:             *wa,
		WT:             *wt,
		WC:             *wc,
		DegradedPolicy: *degradedPolicy,
		// The ATPG budget is part of the result's identity (Spec.Hash),
		// which binds a checkpoint to the run that wrote it.
		ATPGDeadline: jobspec.Duration(*atpgDeadline),
	}
	if *search || *searchPop != 0 || *searchGens != 0 || *searchEta != 0 || *searchSeed != 0 {
		spec.Search = &jobspec.SearchSpec{
			Population:  *searchPop,
			Generations: *searchGens,
			Eta:         *searchEta,
			Seed:        *searchSeed,
		}
	}
	for _, lf := range []struct {
		name string
		raw  string
		dst  *[]int
	}{
		{"buses", *busesFlag, &spec.Buses},
		{"alus", *alusFlag, &spec.ALUs},
		{"cmps", *cmpsFlag, &spec.CMPs},
	} {
		if lf.raw == "" {
			continue
		}
		vals, err := parseIntList(lf.name, lf.raw)
		if err != nil {
			log.Fatal(err)
		}
		*lf.dst = vals
	}
	// FromSpec validates everything — workload, lists, norm, weights,
	// degraded policy and ATPG budget — before the exploration spends any
	// time.
	cfg, selSpec, err := dse.FromSpec(spec)
	if err != nil {
		log.Fatal(err)
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
		// The snapshot should cover every stage, including the final
		// simulator cross-check of the selection.
		cfg.VerifySelected = true
	}

	// Warm-start cache: skip the gate-level ATPG back-annotation when a
	// matching cache file exists. A missing file is an ordinary cold
	// start; a stale file (different format version, library generation,
	// width, seed or march) is ignored with a warning and overwritten
	// after the run; an irrecoverably corrupt file is quarantined to
	// *.corrupt (the warning names the quarantine path) and the run
	// starts cold. A torn tail — a crash mid-save — is not corruption:
	// the intact record prefix still warm-starts.
	if *cache != "" {
		cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
		cfg.Annotator.Obs = cfg.Obs // count loaded entries when instrumented
		var mismatch *testcost.CacheMismatchError
		var corrupt *testcost.CacheCorruptError
		switch err := cfg.Annotator.LoadFile(*cache); {
		case err == nil:
		case errors.Is(err, fs.ErrNotExist):
		case errors.As(err, &mismatch):
			log.Printf("warning: ignoring stale cache %s: %v", *cache, err)
		case errors.As(err, &corrupt):
			log.Printf("warning: ignoring corrupt cache %s: %v", *cache, err)
		default:
			log.Fatal(err)
		}
	}
	if spec.ATPGDeadline > 0 {
		if cfg.Annotator == nil {
			cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
			cfg.Annotator.Obs = cfg.Obs
		}
		cfg.Annotator.ATPGDeadline = spec.ATPGDeadline.Std()
	}

	// Checkpoint/resume: restore completed evaluations from a previous
	// (killed) run of the same exploration. A stale file is ignored with
	// a warning and overwritten; a file with a torn tail (the previous
	// run died mid-flush) resumes from its intact record prefix; an
	// irrecoverably corrupt file is quarantined to *.corrupt and the
	// exploration restarts cold — never a crash, never a silent loss.
	if *checkpoint != "" {
		ck, err := dse.OpenCheckpoint(*checkpoint, cfg)
		if ck == nil {
			log.Fatal(err)
		}
		var mm *dse.CheckpointMismatchError
		var cc *dse.CheckpointCorruptError
		switch {
		case err == nil:
		case errors.As(err, &mm):
			log.Printf("warning: ignoring stale checkpoint %s: %v", *checkpoint, err)
		case errors.As(err, &cc):
			log.Printf("warning: ignoring corrupt checkpoint %s: %v", *checkpoint, err)
		default:
			log.Fatal(err)
		}
		if n := ck.Len(); n > 0 {
			log.Printf("resuming from checkpoint %s: %d completed evaluations", *checkpoint, n)
		}
		cfg.Checkpoint = ck
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -progress prints the typed event stream's candidate, panic,
	// degraded and warning events; restored and done stay internal. The
	// sink runs on the emitting worker, one event at a time, and every
	// event precedes ExploreContext's return, so no line is lost and none
	// interleaves with the report.
	if *progress {
		cfg.EventSink = func(ev dse.Event) {
			switch ev.Kind {
			case dse.EventCandidate, dse.EventPanic, dse.EventDegraded, dse.EventWarning:
				fmt.Fprintf(os.Stderr, "ttadse: [%d/%d] %s\n", ev.N, ev.Total, ev.Msg)
			}
		}
	}

	study := core.NewStudyWithConfig(cfg)
	exitCode := 0
	if err := study.ExploreContext(ctx); err != nil {
		var partial *dse.PartialError
		if !errors.As(err, &partial) {
			log.Fatal(err)
		}
		// A cut-short sweep: report what completed, and say why. The exit
		// code separates "ran out of time" (2, rerun with a bigger budget
		// or -checkpoint) from "hit hard failures" (1).
		log.Printf("partial exploration: %d/%d candidates evaluated (%d errors, %d panics)",
			partial.Evaluated, partial.Total, len(partial.Errs), partial.Panics)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			exitCode = 2
			log.Printf("exploration timed out; reporting the completed subset (exit code 2)")
		} else {
			exitCode = 1
			log.Printf("exploration hit hard failures: %v (exit code 1)", partial.Cause)
		}
		if study.Result == nil {
			log.Printf("no usable result to report")
			os.Exit(exitCode)
		}
	}
	if *cache != "" {
		if err := cfg.Annotator.SaveFile(*cache); err != nil {
			log.Fatal(err)
		}
	}

	// The selection under the flags' norm, weights and degraded policy,
	// on a full or a partial result alike (the default flags pick what
	// the exploration picked).
	if err := study.Reselect(selSpec); err != nil {
		log.Fatal(err)
	}

	// With -metrics to stdout the JSON snapshot replaces the default
	// report (explicit -fig/-table1 requests still print).
	printDefault := !(*metrics == "-") || *fig != 0 || *table1

	switch {
	case *fig == 2:
		printTable(study, *csv, study.Figure2Table)
		if !*csv {
			mustPrint(study.Figure2Plot())
		}
	case *fig == 8:
		printTable(study, *csv, study.Figure8Table)
		if !*csv {
			mustPrint(study.Figure8Plot())
		}
	case *table1:
		printTable(study, *csv, study.Table1)
	case printDefault:
		printTable(study, *csv, study.Figure2Table)
		if !*csv {
			mustPrint(study.Figure2Plot())
		}
		fmt.Println()
		printTable(study, *csv, study.Figure8Table)
		if !*csv {
			mustPrint(study.Figure8Plot())
		}
		fmt.Println()
		printTable(study, *csv, study.Table1)
		fmt.Println()
		mustPrint(study.Summary())
		fmt.Println()
		fmt.Println(tta.Draw(study.SelectedArchitecture()))
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := tta.SaveJSON(f, study.SelectedArchitecture()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved selected architecture to %s\n", *save)
	}
	if *metrics != "" {
		if err := writeMetrics(reg, *metrics); err != nil {
			log.Fatal(err)
		}
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// parseIntList parses a comma-separated list of positive ints for the
// named flag, reporting the offending token on error. The result is
// sorted and deduplicated: repeated or unordered values would otherwise
// enumerate (and evaluate) the same candidates twice.
func parseIntList(name, raw string) ([]int, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("flag -%s: empty list (want a positive integer list like 1,2,3)", name)
	}
	seen := make(map[int]bool)
	var out []int
	for _, tok := range strings.Split(raw, ",") {
		s := strings.TrimSpace(tok)
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("flag -%s: invalid count %q (want a positive integer list like 1,2,3)", name, s)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// writeMetrics emits the registry snapshot as JSON to path ("-" = stdout).
func writeMetrics(reg *obs.Registry, path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return obs.JSONSink{W: w}.Emit(reg.Snapshot())
}

func printTable(study *core.Study, csv bool, gen func() (*report.Table, error)) {
	_ = study
	t, err := gen()
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.Write(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func mustPrint(s string, err error) {
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s)
}
