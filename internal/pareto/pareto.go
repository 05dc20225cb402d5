// Package pareto provides k-dimensional Pareto-front extraction and the
// weighted-norm selection used to pick the final architecture from the
// area / execution-time / test-cost space (the paper's section 4: "any of
// the standard weighted norm techniques within the vector space R^3").
// All objectives are minimized.
//
// Coordinate policy: NaN is not a legal objective value — NaN
// comparisons are non-transitive, so a single NaN coordinate can make
// dominance intransitive and silently corrupt a front. Callers feeding
// externally produced values must reject NaN at the Point boundary with
// ValidateCoords; StreamingFront enforces the policy itself. ±Inf is
// legal (IEEE comparisons against infinities stay total and
// transitive).
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Point is one candidate in objective space.
type Point struct {
	ID     int
	Coords []float64
}

// Dominates reports whether a dominates b: a is no worse in every
// dimension and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Front returns the indices (into points) of the non-dominated set, in
// input order. Duplicate coordinate vectors are all kept.
//
// Points are presorted lexicographically (first dimension as the primary
// key, stable), which restricts the domination scan: a point can only be
// dominated by points preceding it in that order, so each point compares
// against its sorted prefix instead of the whole set, already-dominated
// prefix members are skipped (domination is transitive, and a dominator
// always sorts earlier), and runs of duplicate coordinate vectors decide
// their status once and share it.
func Front(points []Point) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return lexLess(points[order[a]].Coords, points[order[b]].Coords)
	})
	dominated := make([]bool, n)
	for pos, i := range order {
		if pos > 0 {
			prev := order[pos-1]
			// Equal vectors never dominate each other, so the first of a
			// duplicate run answers for the whole run.
			if equalCoords(points[prev].Coords, points[i].Coords) {
				dominated[i] = dominated[prev]
				continue
			}
		}
		for _, j := range order[:pos] {
			if dominated[j] {
				continue
			}
			if Dominates(points[j].Coords, points[i].Coords) {
				dominated[i] = true
				break
			}
		}
	}
	var out []int
	for i := range points {
		if !dominated[i] {
			out = append(out, i)
		}
	}
	return out
}

// lexLess orders coordinate vectors lexicographically; a shorter vector
// that is a prefix of a longer one sorts first.
func lexLess(a, b []float64) bool {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	for d := 0; d < m; d++ {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return len(a) < len(b)
}

// equalCoords reports exact coordinate-vector equality.
func equalCoords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if a[d] != b[d] {
			return false
		}
	}
	return true
}

// Norm selects the scalarization used for selection.
type Norm uint8

// Selection norms.
const (
	// Euclid is the L2 norm over normalized coordinates (the paper's
	// choice, with equal weights).
	Euclid Norm = iota
	// Manhattan is the L1 norm.
	Manhattan
	// Chebyshev is the L∞ norm.
	Chebyshev
)

func (n Norm) String() string {
	switch n {
	case Euclid:
		return "euclid"
	case Manhattan:
		return "manhattan"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("Norm(%d)", uint8(n))
	}
}

// Select returns the index of the point minimizing the weighted norm over
// min-max normalized coordinates. Weights express "the significance of a
// constraint over other constraints"; equal weights reproduce the paper's
// selection. Ties break toward the lower index (deterministic).
func Select(points []Point, weights []float64, norm Norm) (int, error) {
	if len(points) == 0 {
		return -1, fmt.Errorf("pareto: no points to select from")
	}
	dims := len(points[0].Coords)
	if weights == nil {
		weights = make([]float64, dims)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != dims {
		return -1, fmt.Errorf("pareto: %d weights for %d dimensions", len(weights), dims)
	}
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	copy(lo, points[0].Coords)
	copy(hi, points[0].Coords)
	for _, p := range points {
		if len(p.Coords) != dims {
			return -1, fmt.Errorf("pareto: inconsistent dimensionality")
		}
		for d, v := range p.Coords {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	best := -1
	bestVal := math.Inf(1)
	for i, p := range points {
		acc := 0.0
		worst := 0.0
		for d, v := range p.Coords {
			nv := 0.0
			if hi[d] > lo[d] {
				nv = (v - lo[d]) / (hi[d] - lo[d])
			}
			w := weights[d] * nv
			switch norm {
			case Manhattan:
				acc += math.Abs(w)
			case Chebyshev:
				if math.Abs(w) > worst {
					worst = math.Abs(w)
				}
			default:
				acc += w * w
			}
		}
		val := acc
		if norm == Chebyshev {
			val = worst
		} else if norm == Euclid {
			val = math.Sqrt(acc)
		}
		if val < bestVal {
			bestVal = val
			best = i
		}
	}
	return best, nil
}
