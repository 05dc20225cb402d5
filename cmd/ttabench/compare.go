package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and reports whether any row regressed.
func compareFiles(w io.Writer, basePath, newPath, benchPath string) (bool, error) {
	var base, cur resultsFile
	var bench benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{basePath, &base}, {newPath, &cur}, {benchPath, &bench}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-12s %26s %26s %8s %6s  %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
	for _, bw := range base.Workloads {
		var nw *workloadResults
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == bw.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Fprintf(w, "%-12s missing from %s\n", bw.Name, newPath)
			continue
		}
		for _, m := range bench.EndToEnd {
			b, n := values(bw.Runs, m.Name), values(nw.Runs, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(b, n, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			bq1, bmed, bq3 := quartiles(b)
			nq1, nmed, nq3 := quartiles(n)
			fmt.Fprintf(w, "%-12s %-12s %10.4g [%6.4g %6.4g] %10.4g [%6.4g %6.4g] %+7.1f%% %5.0f%%  %s\n",
				bw.Name, m.Name, bmed, bq1, bq3, nmed, nq1, nq3, 100*(nmed-bmed)/bmed, 100*m.Bound, v)
		}
	}
	return regressed, nil
}

func values(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict classifies a metric's change from base runs to new runs:
//
//   - "unresolved": either side's run-to-run spread (quartile distance
//     over median) is wider than the bound, so a change within it cannot
//     be told from noise — unless every new run beats every base run;
//   - "regressed": the new median is worse than the base median by more
//     than the bound;
//   - "improved": the new run beats its paired base run (same index, so
//     the same seed) in at least nine of ten pairs, ties counting for
//     neither, and the medians differ by more than the base's spread;
//   - "ok": none of these.
func verdict(base, cur []float64, higherBetter bool, bound float64) string {
	better := func(a, b float64) bool { // a beats b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	bq1, bmed, bq3 := quartiles(base)
	nq1, nmed, nq3 := quartiles(cur)
	allBetter := true
	for _, n := range cur {
		for _, b := range base {
			allBetter = allBetter && better(n, b)
		}
	}
	if (bq3-bq1)/bmed > bound || (nq3-nq1)/nmed > bound {
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	worse := (nmed - bmed) / bmed
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	wins, pairs := 0, min(len(base), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	diff := nmed - bmed
	if diff < 0 {
		diff = -diff
	}
	if better(nmed, bmed) && 10*wins >= 9*pairs && diff > bq3-bq1 {
		return "improved"
	}
	return "ok"
}
