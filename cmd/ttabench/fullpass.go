package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultsFile is the one schema every full pass writes and compare reads.
type resultsFile struct {
	Schema    string            `json:"schema"`
	Machine   machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []workloadResults `json:"workloads"`
}

const resultsSchema = "ttabench/v1"

// workloadResults holds one workload's untraced runs, their summary and
// the traced run.
type workloadResults struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Runs      []runRecord        `json:"runs"`
	Summary   map[string]summary `json:"summary"`
	Traced    *runRecord         `json:"traced,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// runRecord is one child run's result object and the seed it ran at.
type runRecord struct {
	Seed int64 `json:"seed"`
	runResult
}

// summary is a metric's distribution over runs.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// fullPass runs every workload untraced `runs` times (seeds seed,
// seed+1, ...), then once traced, each run in a fresh child process so
// heap, caches and peak RSS never carry over; it prints each end-to-end
// metric's median and quartiles and writes the results file. It reports
// whether every run was correct.
func fullPass(ctx context.Context, o *options, runs int, path string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	rf := resultsFile{Schema: resultsSchema, Machine: currentMachine(), Seed: o.seed, Seconds: o.seconds}
	ok := true
	for _, w := range workloads {
		wr := workloadResults{Name: w.name, Why: w.why}
		for r := 0; r < runs; r++ {
			rec, err := child(ctx, exe, o, w.name, o.seed+int64(r), false)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
			wr.Runs = append(wr.Runs, rec)
		}
		wr.Summary = summarize(wr.Runs)
		rf.Workloads = append(rf.Workloads, wr)
	}
	for i := range rf.Workloads {
		wr := &rf.Workloads[i]
		wr.TraceFile = tracePath(o.workDir, wr.Name)
		rec, err := child(ctx, exe, o, wr.Name, o.seed, true)
		if err != nil {
			return false, err
		}
		ok = ok && rec.Correct
		wr.Traced = &rec
	}
	printSummary(&rf)
	data, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	log.Printf("wrote %s", path)
	return ok, nil
}

// child runs one workload in a child process and parses its result line.
func child(ctx context.Context, exe string, o *options, name string, seed int64, traced bool) (runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-work", o.workDir}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	rec := runRecord{Seed: seed}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
		fmt.Printf("%s seed %d trace %s | %s\n", name, seed, trace, last)
	}
	if err := json.Unmarshal([]byte(last), &rec.runResult); err != nil {
		return rec, fmt.Errorf("%s seed %d: no result line (run: %v)", name, seed, runErr)
	}
	return rec, nil
}

// summarize computes each metric's median and quartiles over the runs.
func summarize(runs []runRecord) map[string]summary {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		for n, m := range r.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	out := make(map[string]summary, len(vals))
	for n, v := range vals {
		q1, med, q3 := quartiles(v)
		out[n] = summary{Unit: units[n], N: len(v), Median: med, Q1: q1, Q3: q3}
	}
	return out
}

func printSummary(rf *resultsFile) {
	fmt.Printf("\n%-12s %-16s %12s %12s %12s %-6s %s\n", "workload", "metric", "median", "q1", "q3", "unit", "runs")
	for _, wr := range rf.Workloads {
		for _, n := range sortedNames(wr.Summary) {
			s := wr.Summary[n]
			fmt.Printf("%-12s %-16s %12.5g %12.5g %12.5g %-6s %d\n", wr.Name, n, s.Median, s.Q1, s.Q3, s.Unit, s.N)
		}
	}
}
