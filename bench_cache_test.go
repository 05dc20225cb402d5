// Benchmarks for the evaluation caching layers: the single-flight
// annotation cache (cold, where every distinct component runs gate-level
// ATPG), the warm-start cache (where a persisted annotation file skips
// ATPG entirely) and the structural schedule memo — crossed with serial
// and fully parallel exploration. The cold serial/parallel pair measures
// how much of the ATPG-dominated hot path the single-flight cache lets
// run concurrently; the warm pair isolates the remaining scheduling and
// cost-model work. Numbers are recorded in EXPERIMENTS.md.
package repro

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/dse"
	"repro/internal/testcost"
)

// benchCacheConfig is the paper-scale default space (288 candidates, 144
// structures x 2 assign strategies).
func benchCacheConfig(b *testing.B) dse.Config {
	b.Helper()
	cfg, err := dse.DefaultConfig()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// warmBlob runs one throwaway exploration and serializes its annotator —
// the warm-start file the warm benchmarks load, built outside the timed
// region.
func warmBlob(b *testing.B, cfg dse.Config) []byte {
	b.Helper()
	ann := testcost.NewAnnotator(cfg.Width, cfg.Seed)
	cfg.Annotator = ann
	if _, err := dse.ExploreContext(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ann.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchExplore(b *testing.B, parallelism int, warm bool) {
	cfg := benchCacheConfig(b)
	cfg.Parallelism = parallelism
	var blob []byte
	if warm {
		blob = warmBlob(b, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ann := testcost.NewAnnotator(cfg.Width, cfg.Seed)
		if warm {
			if err := ann.Load(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
		cfg.Annotator = ann
		b.StartTimer()
		res, err := dse.ExploreContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Selected < 0 {
			b.Fatal("no selection")
		}
	}
}

// BenchmarkExploreColdSerial is the seed-equivalent baseline: one worker,
// every annotation runs its ATPG.
func BenchmarkExploreColdSerial(b *testing.B) { benchExplore(b, 1, false) }

// BenchmarkExploreColdParallel is the contended hot path the single-flight
// cache unblocks: GOMAXPROCS workers racing into a cold annotator.
func BenchmarkExploreColdParallel(b *testing.B) { benchExplore(b, runtime.GOMAXPROCS(0), false) }

// BenchmarkExploreWarmSerial explores with a preloaded annotation cache:
// no ATPG at all, serial scheduling.
func BenchmarkExploreWarmSerial(b *testing.B) { benchExplore(b, 1, true) }

// BenchmarkExploreWarmParallel is the fully warmed, fully parallel run —
// the repeated-exploration steady state.
func BenchmarkExploreWarmParallel(b *testing.B) { benchExplore(b, runtime.GOMAXPROCS(0), true) }

// benchSearch times the guided search of ttabench's search workload
// (population 64, 8 generations, eta 20, seed 11) on an annotator warmed
// by one untimed run of it, which the timed runs then share.
func benchSearch(b *testing.B, parallelism int) {
	cfg := benchCacheConfig(b)
	cfg.Parallelism = parallelism
	cfg.Search = &dse.SearchSpec{Population: 64, Generations: 8, Eta: 20, Seed: 11}
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	if _, err := dse.ExploreContext(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.ExploreContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Selected < 0 {
			b.Fatal("no selection")
		}
	}
}

// BenchmarkSearchWarmSerial runs the warm guided search on one worker:
// the screen and the survivors' evaluations in order.
func BenchmarkSearchWarmSerial(b *testing.B) { benchSearch(b, 1) }

// BenchmarkSearchWarmParallel runs it on GOMAXPROCS workers; its ratio
// to the serial run shows how well the workers share the screen.
func BenchmarkSearchWarmParallel(b *testing.B) { benchSearch(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAnnotationColdSingleFlight measures the back-annotation alone
// (no exploration): distinct components annotated concurrently against
// one cold annotator, the workload the per-key latch parallelizes.
func BenchmarkAnnotationColdSingleFlight(b *testing.B) {
	cfg := benchCacheConfig(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ann := testcost.NewAnnotator(cfg.Width, cfg.Seed)
		cfg.Annotator = ann
		cfg.Parallelism = runtime.GOMAXPROCS(0)
		b.StartTimer()
		// Area/delay annotation of every enumerated structure touches each
		// distinct library component exactly once thanks to single-flight.
		if _, err := dse.ExploreContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartLoad measures deserializing a warm-start cache — the
// cost a warm run pays instead of ATPG.
func BenchmarkWarmStartLoad(b *testing.B) {
	cfg := benchCacheConfig(b)
	blob := warmBlob(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ann := testcost.NewAnnotator(cfg.Width, cfg.Seed)
		if err := ann.Load(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
