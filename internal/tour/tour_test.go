package tour

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// ErrNoStops reports an empty stop list where at least one stop is
// required (BruteForce). Plan treats zero stops as a valid idle tour.
var ErrNoStops = errors.New("tour: no stops")

// BruteForce finds the optimal visiting order by enumeration; factorial,
// for tests and tiny tours only (≤ 10 stops). Unlike Plan it rejects an
// empty stop list (ErrNoStops): an exact optimum over nothing is a caller
// bug, not an idle tour.
func BruteForce(start geom.Point, stops []geom.Point) ([]int, float64, error) {
	n := len(stops)
	if n == 0 {
		return nil, 0, ErrNoStops
	}
	if n > 10 {
		return nil, 0, errors.New("tour: brute force limited to 10 stops")
	}
	if err := validate(start, stops); err != nil {
		return nil, 0, err
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	best := append([]int(nil), cur...)
	bestLen := Length(start, stops, cur)
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if l := Length(start, stops, cur); l < bestLen {
				bestLen = l
				copy(best, cur)
			}
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			permute(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	permute(0)
	return best, bestLen, nil
}

func randStops(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	return pts
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestLength(t *testing.T) {
	start := geom.Pt(0, 0)
	stops := []geom.Point{geom.Pt(3, 0), geom.Pt(3, 4)}
	if got := Length(start, stops, []int{0, 1}); math.Abs(got-(3+4+5)) > 1e-12 {
		t.Errorf("Length = %v, want 12", got)
	}
	if got := Length(start, stops, nil); got != 0 {
		t.Errorf("empty tour length = %v", got)
	}
}

func TestNearestNeighborIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		stops := randStops(r, n)
		order := NearestNeighbor(geom.Pt(0, 0), stops)
		if !isPermutation(order, n) {
			t.Fatalf("trial %d: not a permutation: %v", trial, order)
		}
	}
}

func TestTwoOptNeverWorse(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(15)
		stops := randStops(r, n)
		start := geom.Pt(50, 50)
		nn := NearestNeighbor(start, stops)
		improved := TwoOpt(start, stops, nn)
		if !isPermutation(improved, n) {
			t.Fatalf("trial %d: 2-opt broke the permutation", trial)
		}
		if Length(start, stops, improved) > Length(start, stops, nn)+1e-9 {
			t.Fatalf("trial %d: 2-opt worsened the tour", trial)
		}
	}
}

func TestTwoOptDoesNotMutateInput(t *testing.T) {
	stops := []geom.Point{geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(0, 5)}
	order := []int{3, 0, 2, 1}
	want := append([]int(nil), order...)
	TwoOpt(geom.Pt(0, 0), stops, order)
	for i := range want {
		if order[i] != want[i] {
			t.Fatal("TwoOpt mutated its input")
		}
	}
}

func TestPlanNearOptimalOnSmallTours(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var worst float64 = 1
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(6) // up to 8 stops: brute force feasible
		stops := randStops(r, n)
		start := geom.Pt(0, 0)
		_, planLen, err := Plan(start, stops)
		if err != nil {
			t.Fatal(err)
		}
		_, optLen, err := BruteForce(start, stops)
		if err != nil {
			t.Fatal(err)
		}
		if planLen < optLen-1e-9 {
			t.Fatalf("trial %d: plan %v shorter than optimum %v (impossible)", trial, planLen, optLen)
		}
		if ratio := planLen / optLen; ratio > worst {
			worst = ratio
		}
	}
	// 2-opt on these sizes should be within a few percent of optimal.
	if worst > 1.1 {
		t.Errorf("worst plan/opt ratio %v > 1.1", worst)
	}
}

func TestPlanSingleStop(t *testing.T) {
	order, length, err := Plan(geom.Pt(0, 0), []geom.Point{geom.Pt(3, 4)})
	if err != nil || len(order) != 1 || order[0] != 0 {
		t.Fatalf("Plan single = %v, %v, %v", order, length, err)
	}
	if math.Abs(length-10) > 1e-12 {
		t.Errorf("round trip = %v, want 10", length)
	}
}

func TestPlanValidation(t *testing.T) {
	// Zero stops is a valid idle tour for Plan: schedulers call it for
	// every charger every round, including the ones with nothing to serve.
	order, length, err := Plan(geom.Pt(0, 0), nil)
	if err != nil {
		t.Errorf("Plan with no stops: %v, want idle tour", err)
	}
	if len(order) != 0 || length != 0 {
		t.Errorf("Plan idle tour = %v, %v; want empty order, length 0", order, length)
	}
	// BruteForce keeps the hard error: an exact optimum over nothing is a
	// caller bug.
	if _, _, err := BruteForce(geom.Pt(0, 0), nil); !errors.Is(err, ErrNoStops) {
		t.Errorf("brute force no stops err = %v, want ErrNoStops", err)
	}
	if _, _, err := BruteForce(geom.Pt(0, 0), randStops(rand.New(rand.NewSource(1)), 11)); err == nil {
		t.Error("brute force 11 stops should error")
	}
}

// TestNearestNeighborNonFiniteStops is the regression test for the
// visited[-1] panic: with NaN coordinates every distance comparison is
// false, `best` stayed -1, and NearestNeighbor indexed out of range. The
// fix appends incomparable stops deterministically in ascending index
// order; the pre-fix code fails this test with a panic.
func TestNearestNeighborNonFiniteStops(t *testing.T) {
	stops := []geom.Point{
		geom.Pt(math.NaN(), 1),
		geom.Pt(5, 5),
		geom.Pt(math.NaN(), math.NaN()),
		geom.Pt(1, 1),
	}
	order := NearestNeighbor(geom.Pt(0, 0), stops)
	if !isPermutation(order, len(stops)) {
		t.Fatalf("order %v is not a permutation", order)
	}
	// The finite stops are visited nearest-first, then the NaN stops in
	// ascending index order. (After visiting a NaN stop the current
	// position is NaN too, so everything after it falls back to index
	// order.)
	want := []int{3, 1, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// All-NaN input must not panic either.
	all := []geom.Point{geom.Pt(math.NaN(), 0), geom.Pt(math.NaN(), 0)}
	if got := NearestNeighbor(geom.Pt(0, 0), all); !isPermutation(got, 2) {
		t.Fatalf("all-NaN order %v is not a permutation", got)
	}
}

func TestPlanRejectsNonFiniteCoordinates(t *testing.T) {
	cases := []struct {
		name  string
		start geom.Point
		stops []geom.Point
		index int
	}{
		{"nan stop", geom.Pt(0, 0), []geom.Point{geom.Pt(1, 1), geom.Pt(math.NaN(), 2)}, 1},
		{"inf stop", geom.Pt(0, 0), []geom.Point{geom.Pt(math.Inf(1), 0)}, 0},
		{"nan start", geom.Pt(math.NaN(), 0), []geom.Point{geom.Pt(1, 1)}, -1},
	}
	for _, tc := range cases {
		_, _, err := Plan(tc.start, tc.stops)
		var bad *BadStopError
		if !errors.As(err, &bad) {
			t.Errorf("%s: err = %v, want *BadStopError", tc.name, err)
			continue
		}
		if bad.Index != tc.index {
			t.Errorf("%s: Index = %d, want %d", tc.name, bad.Index, tc.index)
		}
		if _, _, err := BruteForce(tc.start, tc.stops); err == nil {
			t.Errorf("%s: BruteForce accepted non-finite input", tc.name)
		}
	}
}

// twoOptReference is the pre-memoization TwoOpt, kept verbatim as the
// equivalence oracle: the memoized version must reproduce its output
// byte for byte on every input.
func twoOptReference(start geom.Point, stops []geom.Point, order []int) []int {
	out := append([]int(nil), order...)
	if len(out) < 3 {
		return out
	}
	pos := func(i int) geom.Point {
		if i < 0 || i >= len(out) {
			return start
		}
		return stops[out[i]]
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(out)-1; i++ {
			for j := i + 1; j < len(out); j++ {
				before := pos(i-1).Dist(pos(i)) + pos(j).Dist(pos(j+1))
				after := pos(i-1).Dist(pos(j)) + pos(i).Dist(pos(j+1))
				if after < before-1e-12 {
					reverse(out[i : j+1])
					improved = true
				}
			}
		}
	}
	return out
}

func TestTwoOptMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(24)
		stops := randStops(r, n)
		start := geom.Pt(r.Float64()*100, r.Float64()*100)
		nn := NearestNeighbor(start, stops)
		got := TwoOpt(start, stops, nn)
		want := twoOptReference(start, stops, nn)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d vs %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: memoized TwoOpt diverged from reference:\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

func BenchmarkTourPlan(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	stops := randStops(r, 48)
	start := geom.Pt(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Plan(start, stops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTourPlanReference is BenchmarkTourPlan's control: the same
// 48-stop workload through the preserved pre-memoization 2-opt, so the
// distance-table speedup stays visible in every bench run.
func BenchmarkTourPlanReference(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	stops := randStops(r, 48)
	start := geom.Pt(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := NearestNeighbor(start, stops)
		order = twoOptReference(start, stops, order)
		if len(order) != len(stops) {
			b.Fatal("bad order")
		}
	}
}

// TestGeneratedToursVisitEveryStopOnce is the package's core property:
// every tour the planner can produce — nearest-neighbor, 2-opt-refined,
// or the full Plan pipeline — visits each assigned service point exactly
// once.
func TestGeneratedToursVisitEveryStopOnce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(14)
		stops := randStops(r, n)
		start := geom.Pt(r.Float64()*100, r.Float64()*100)

		nn := NearestNeighbor(start, stops)
		opt := TwoOpt(start, stops, nn)
		planned, _, err := Plan(start, stops)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			order []int
		}{
			{"nearest-neighbor", nn},
			{"two-opt", opt},
			{"plan", planned},
		} {
			if !isPermutation(tc.order, n) {
				t.Fatalf("trial %d: %s tour %v does not visit each of %d stops exactly once", trial, tc.name, tc.order, n)
			}
		}
	}
}
