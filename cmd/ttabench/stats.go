package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of the samples at or
// below it. samples need not be sorted; an empty slice yields NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps p=99.9 of 10000 samples at rank 9990 despite
	// 99.9 having no exact binary form.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the tail percentiles a report may quote, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailPercentiles that
// still has at least ten of n samples beyond it, so a quoted tail never
// rests on a handful of outliers; 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first quartile, the median and the third
// quartile of values by the exclusive method of Python's
// statistics.quantiles(values, n=4), so spreads computed here match
// those computed by external tools over the same runs. A single value is
// its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		// Python clamps the rank to 1..n-1 before interpolating, so with
		// very few values the edge quartiles extrapolate.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
