package pareto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pts(coords ...[]float64) []Point {
	out := make([]Point, len(coords))
	for i, c := range coords {
		out[i] = Point{ID: i, Coords: c}
	}
	return out
}

func TestDominates(t *testing.T) {
	if !Dominates([]float64{1, 2}, []float64{2, 2}) {
		t.Error("strictly better in one dim, equal other: should dominate")
	}
	if Dominates([]float64{1, 2}, []float64{1, 2}) {
		t.Error("equal points must not dominate")
	}
	if Dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Error("trade-off points must not dominate")
	}
	if Dominates([]float64{1}, []float64{1, 2}) {
		t.Error("mismatched dims must not dominate")
	}
}

func TestFrontSmall(t *testing.T) {
	p := pts(
		[]float64{1, 5}, // front
		[]float64{2, 4}, // front
		[]float64{3, 3}, // front
		[]float64{3, 5}, // dominated by {3,3}? no: equal in x... {3,3} dominates {3,5}
		[]float64{5, 5}, // dominated
	)
	f := Front(p)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(f) != 3 {
		t.Fatalf("front size %d, want 3 (%v)", len(f), f)
	}
	for _, i := range f {
		if !want[i] {
			t.Fatalf("unexpected front member %d", i)
		}
	}
}

func TestFrontPropertyMutualNonDomination(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p []Point
		for i := 0; i < 40; i++ {
			p = append(p, Point{ID: i, Coords: []float64{
				float64(rng.Intn(20)), float64(rng.Intn(20)), float64(rng.Intn(20)),
			}})
		}
		front := Front(p)
		inFront := make(map[int]bool)
		for _, i := range front {
			inFront[i] = true
		}
		// Front members must not dominate each other.
		for _, i := range front {
			for _, j := range front {
				if i != j && Dominates(p[i].Coords, p[j].Coords) {
					return false
				}
			}
		}
		// Every non-member must be dominated by some member.
		for i := range p {
			if inFront[i] {
				continue
			}
			dominated := false
			for _, j := range front {
				if Dominates(p[j].Coords, p[i].Coords) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEqualWeightsEuclid(t *testing.T) {
	// Normalized coords: {0,1}, {1,0}, {0.5,0.5}: the balanced point wins
	// under Euclid (0.707 < 1).
	p := pts([]float64{0, 10}, []float64{10, 0}, []float64{5, 5})
	i, err := Select(p, nil, Euclid)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Fatalf("selected %d, want balanced point 2", i)
	}
}

func TestSelectWeightsShiftChoice(t *testing.T) {
	p := pts([]float64{0, 10}, []float64{10, 0}, []float64{5, 5})
	// Heavy weight on dimension 0 favors the point with minimum dim-0.
	i, err := Select(p, []float64{10, 0.1}, Euclid)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Fatalf("selected %d, want dim-0-minimal point 0", i)
	}
}

func TestSelectNorms(t *testing.T) {
	p := pts([]float64{0, 10}, []float64{10, 0}, []float64{4, 4})
	for _, n := range []Norm{Euclid, Manhattan, Chebyshev} {
		i, err := Select(p, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if i != 2 {
			t.Fatalf("%v: selected %d, want 2", n, i)
		}
		if n.String() == "" {
			t.Fatal("empty norm name")
		}
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(nil, nil, Euclid); err == nil {
		t.Error("empty selection accepted")
	}
	p := pts([]float64{1, 2})
	if _, err := Select(p, []float64{1}, Euclid); err == nil {
		t.Error("weight/dim mismatch accepted")
	}
}

func TestSelectDegenerateDimension(t *testing.T) {
	// A dimension with zero range must not produce NaNs.
	p := pts([]float64{3, 1}, []float64{3, 2})
	i, err := Select(p, nil, Euclid)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Fatalf("selected %d, want 0", i)
	}
}

// naiveFront is the reference O(n²) all-pairs implementation Front was
// optimized from; the property test below pins the two to identical
// output (members and order) on adversarial inputs.
func naiveFront(points []Point) []int {
	var out []int
	for i := range points {
		dominated := false
		for j := range points {
			if i != j && Dominates(points[j].Coords, points[i].Coords) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func TestFrontMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		dims := 1 + rng.Intn(4)
		// A tiny value alphabet forces heavy first-dimension ties and
		// exact duplicate vectors — the cases the presort and the
		// duplicate-run fast path must get right.
		vals := 1 + rng.Intn(4)
		p := make([]Point, n)
		for i := range p {
			c := make([]float64, dims)
			for d := range c {
				c[d] = float64(rng.Intn(vals))
			}
			p[i] = Point{ID: i, Coords: c}
		}
		got, want := Front(p), naiveFront(p)
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontAllDuplicates(t *testing.T) {
	// Identical vectors never dominate each other: all are kept, in input
	// order, and the duplicate-run fast path must not loop over them.
	var p []Point
	for i := 0; i < 50; i++ {
		p = append(p, Point{ID: i, Coords: []float64{2, 3}})
	}
	f := Front(p)
	if len(f) != 50 {
		t.Fatalf("front size %d, want all 50 duplicates", len(f))
	}
	for k, i := range f {
		if i != k {
			t.Fatalf("front order broken at %d: %v", k, f)
		}
	}
}

func TestFrontEmptyAndSingle(t *testing.T) {
	if f := Front(nil); f != nil {
		t.Fatalf("empty input: %v", f)
	}
	if f := Front(pts([]float64{1, 2})); len(f) != 1 || f[0] != 0 {
		t.Fatalf("single point: %v", f)
	}
}

func TestFrontProjectionRelationship(t *testing.T) {
	// The key structural fact behind the paper's figure 8: lifting points
	// into a higher dimension can only grow the front, never lose a
	// lower-dimensional front member. Projections of the lifted front onto
	// the original plane must contain the original front.
	rng := rand.New(rand.NewSource(5))
	var p2, p3 []Point
	for i := 0; i < 30; i++ {
		a := float64(rng.Intn(50))
		b := float64(rng.Intn(50))
		c := float64(rng.Intn(50))
		p2 = append(p2, Point{ID: i, Coords: []float64{a, b}})
		p3 = append(p3, Point{ID: i, Coords: []float64{a, b, c}})
	}
	f2 := map[int]bool{}
	for _, i := range Front(p2) {
		f2[p2[i].ID] = true
	}
	f3 := map[int]bool{}
	for _, i := range Front(p3) {
		f3[p3[i].ID] = true
	}
	for id := range f2 {
		if !f3[id] {
			t.Fatalf("2-D front member %d missing from 3-D front", id)
		}
	}
}
