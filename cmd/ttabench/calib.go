package main

import (
	"time"
)

// The gated times are calibrated: each operation's latency is scaled by
// how fast a fixed kernel ran just before it, and the set-up time by the
// run's median kernel time. On the shared machine the benchmark was
// calibrated on (2 vCPUs of an Intel Xeon host), other tenants slow every
// operation by 10 to 100% for seconds to minutes at a time, and the
// slowdown shows in CPU time, not in steal time. A kernel of hashed
// inserts into a map of about a megabyte slows with the program (cache
// and core contention), while a pure arithmetic loop or a pointer chase
// over a larger array slows less. Over eight runs of each workload at
// different seeds, while the kernel's median ran between 1.2 and 2.4 ms,
// scaling by it cut the quartile spread of the runs' median latencies
// from 13-23% to 4-8% (doc.go has the baseline sets' numbers).
//
// The kernel is part of the benchmark, not of the program, so a change to
// the program cannot move it.

// calRefMS is the kernel's median time on the calibration machine in a
// quiet period: a time measured when the kernel took calRefMS is reported
// as measured, one measured when the machine ran at half speed is halved.
const calRefMS = 1.2

// calReps is how many kernel runs one calibration takes the median of.
const calReps = 3

// calKeys bounds the kernel's key space, and so its table (about a
// megabyte); calInserts is the kernel's fixed amount of work.
const (
	calKeys    = 1 << 17
	calInserts = 40_000
)

var (
	calTable = make(map[uint64]uint64, 1<<16)
	calSink  int
)

// The first kernel runs of a process fault the table's pages in.
func init() { calibrate() }

// calibrate runs the kernel calReps times and returns the median time in
// ms. The kernel reuses one table and allocates nothing, so it neither
// depends on nor disturbs the program's heap. Callers run it while no
// operation runs: it is not safe for concurrent use, and it would time
// the operation's contention instead of the machine's.
func calibrate() float64 {
	var t [calReps]float64
	for r := range t {
		t0 := time.Now()
		clear(calTable)
		x := uint64(7)
		for i := 0; i < calInserts; i++ {
			x = splitmix(x)
			calTable[x&(calKeys-1)] += x
		}
		calSink += len(calTable)
		t[r] = ms(time.Since(t0))
	}
	return percentile(t[:], 50)
}

// calibrated scales a time measured when the kernel took calMS to the
// calibration machine's quiet speed.
func calibrated(v, calMS float64) float64 { return v * calRefMS / calMS }
