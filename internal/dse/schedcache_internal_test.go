package dse

import (
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/tta"
)

// KernelDigest and SetScheduleCacheCap give the external cache tests
// (schedcache_test.go) the digest and a small cap.
var KernelDigest = kernelDigest

func SetScheduleCacheCap(c *ScheduleCache, n int) { c.max = n }

// BenchmarkScheduleCacheEntryBytes fills a cache to scheduleCacheCap
// with distinct structures of the paper's template (bus counts beyond
// the sweep's, every ALU, CMP and register-file mix of the default
// space), keyed as the explorer keys them, and reports the heap bytes
// each entry takes: the map slot, the structure key and the summary.
func BenchmarkScheduleCacheEntryBytes(b *testing.B) {
	cfg, err := DefaultConfig()
	if err != nil {
		b.Fatal(err)
	}
	kernel := kernelDigest(cfg.Workload)
	archs := make([]*tta.Architecture, scheduleCacheCap)
	for i := range archs {
		archs[i] = buildArch(16, 1+i/36, 1+i%3, 1+i/3%2, cfg.RFSets[i/6%6], tta.SpreadFirst, i, i/6%6)
	}
	o := scheduleOutcome{sum: sched.Summary{Cycles: 250, Spills: 2}, feasible: true}
	var perEntry float64
	for range b.N {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := new(ScheduleCache)
		for _, a := range archs {
			c.store(scheduleKey{kernel, structKey(a)}, o)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if c.Len() != scheduleCacheCap {
			b.Fatalf("%d entries, want %d", c.Len(), scheduleCacheCap)
		}
		perEntry = float64(after.HeapAlloc-before.HeapAlloc) / scheduleCacheCap
		runtime.KeepAlive(c)
	}
	b.ReportMetric(perEntry, "B/entry")
}
