package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	var b benchSpec
	if err := readJSON("../../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchSpec(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestShortSmoke runs every workload briefly, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, in a result line that round-trips through JSON.
func TestShortSmoke(t *testing.T) {
	b := readBenchSpec(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// A traced run needs one traced and one untraced operation.
			o := options{workload: w.name, seed: 1, seconds: 60, trace: traced, maxOps: 1, short: true,
				pins: defaultPins, workDir: t.TempDir()}
			switch {
			case w.name == "daemon_mix":
				o.maxOps = 20
			case traced:
				o.maxOps = 2
			}
			res, err := runWorkload(context.Background(), &o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d/%d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			got := make(map[string]string)
			for n, m := range res.Metrics {
				got[n] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want[traced])
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back runResult
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, res) {
				t.Errorf("%s traced=%v: result does not round-trip:\n%s", w.name, traced, line)
			}
			if traced {
				if _, err := os.Stat(tracePath(o.workDir, w.name)); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

func TestCorruptPinFailsRun(t *testing.T) {
	pins := map[string]string{"sweep/seed7": strings.Repeat("0", 64)}
	o := options{workload: "sweep_cold", seed: 1, seconds: 60, maxOps: 1, short: true, pins: pins, workDir: t.TempDir()}
	res, err := runWorkload(context.Background(), &o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted pin accepted: correct %v, %d failed", res.Correct, res.Failed)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(d, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		cur          []float64
		higherBetter bool
		want         string
	}{
		{"same", shift(1), false, "ok"},
		{"slower", shift(1.2), false, "regressed"},
		{"faster", shift(0.8), false, "improved"},
		{"throughput down", shift(0.8), true, "regressed"},
		{"noisy", noisy, false, "unresolved"},
	} {
		if got := verdict(base, c.cur, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
