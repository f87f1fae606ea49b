// Package tour plans the route of a mobile charger that must serve
// several charging sessions in one dispatch: classic open/closed tour
// construction with the nearest-neighbor heuristic refined by 2-opt.
// It backs the mobile-charger extension of the CCS model, where a
// charger's travel cost depends on the order it visits its sessions'
// rendezvous points.
package tour

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// BadStopError reports a stop (or the start, Index == -1) with
// non-finite coordinates. NaN poisons every distance comparison, so
// planning over such points cannot produce a meaningful order.
type BadStopError struct {
	// Index is the offending stop's index, or -1 for the start point.
	Index int
	// Point is the offending coordinate pair.
	Point geom.Point
}

func (e *BadStopError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("tour: start has non-finite coordinates (%v, %v)", e.Point.X, e.Point.Y)
	}
	return fmt.Sprintf("tour: stop %d has non-finite coordinates (%v, %v)", e.Index, e.Point.X, e.Point.Y)
}

// finite reports whether both coordinates are finite (no NaN, no ±Inf).
func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// validate checks the start and every stop for finite coordinates,
// returning a *BadStopError for the first offender.
func validate(start geom.Point, stops []geom.Point) error {
	if !finite(start) {
		return &BadStopError{Index: -1, Point: start}
	}
	for i, p := range stops {
		if !finite(p) {
			return &BadStopError{Index: i, Point: p}
		}
	}
	return nil
}

// Length returns the round-trip length of the tour start → stops[order[0]]
// → … → stops[order[k-1]] → start.
func Length(start geom.Point, stops []geom.Point, order []int) float64 {
	if len(order) == 0 {
		return 0
	}
	total := start.Dist(stops[order[0]])
	for i := 1; i < len(order); i++ {
		total += stops[order[i-1]].Dist(stops[order[i]])
	}
	return total + stops[order[len(order)-1]].Dist(start)
}

// NearestNeighbor builds a visiting order greedily: from the current
// position, always go to the nearest unvisited stop. Stops whose distance
// is not comparable (NaN coordinates make every `<` false) are appended
// deterministically in ascending index order rather than panicking; use
// Plan to reject such inputs with a typed error instead.
func NearestNeighbor(start geom.Point, stops []geom.Point) []int {
	n := len(stops)
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := start
	for len(order) < n {
		best, bestD := -1, math.Inf(1)
		for i, p := range stops {
			if visited[i] {
				continue
			}
			if d := cur.Dist2(p); d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			// Every remaining distance was NaN: fall back to the
			// lowest-index unvisited stop so the result stays a
			// permutation.
			for i := range visited {
				if !visited[i] {
					best = i
					break
				}
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = stops[best]
	}
	return order
}

// TwoOpt improves a tour by repeatedly reversing segments while any
// reversal shortens the round trip. The input order is not modified; the
// returned order is a permutation of it with Length no greater.
//
// All pairwise endpoint distances are precomputed once — the sweep loop
// is O(n²) comparisons per pass, and recomputing math.Hypot for every
// candidate swap dominated the planner's profile before memoization.
func TwoOpt(start geom.Point, stops []geom.Point, order []int) []int {
	out := append([]int(nil), order...)
	if len(out) < 3 {
		return out
	}
	// dist[a*(n+1)+b] is the distance between points a and b, where
	// indices 0..n-1 are stops and index n is the start. math.Hypot is
	// symmetric in its (absolute-valued) arguments, so storing one
	// evaluation per unordered pair reproduces the direct Dist calls
	// bit for bit.
	n := len(stops)
	dist := make([]float64, (n+1)*(n+1))
	point := func(a int) geom.Point {
		if a == n {
			return start
		}
		return stops[a]
	}
	for a := 0; a <= n; a++ {
		pa := point(a)
		for b := a + 1; b <= n; b++ {
			d := pa.Dist(point(b))
			dist[a*(n+1)+b] = d
			dist[b*(n+1)+a] = d
		}
	}
	at := func(i int) int {
		if i < 0 || i >= len(out) {
			return n
		}
		return out[i]
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(out)-1; i++ {
			for j := i + 1; j < len(out); j++ {
				// Reversing out[i..j] replaces edges (i-1,i) and (j,j+1)
				// with (i-1,j) and (i,j+1).
				before := dist[at(i-1)*(n+1)+at(i)] + dist[at(j)*(n+1)+at(j+1)]
				after := dist[at(i-1)*(n+1)+at(j)] + dist[at(i)*(n+1)+at(j+1)]
				if after < before-1e-12 {
					reverse(out[i : j+1])
					improved = true
				}
			}
		}
	}
	return out
}

// Plan returns a good round-trip visiting order for the stops: nearest
// neighbor refined by 2-opt, with its length. Zero stops are a valid idle
// tour — an empty order with length 0 — so schedulers may call Plan for
// every charger every round without special-casing the idle ones.
// Non-finite coordinates in the start or any stop yield a *BadStopError.
func Plan(start geom.Point, stops []geom.Point) ([]int, float64, error) {
	if err := validate(start, stops); err != nil {
		return nil, 0, err
	}
	if len(stops) == 0 {
		return []int{}, 0, nil
	}
	order := TwoOpt(start, stops, NearestNeighbor(start, stops))
	return order, Length(start, stops, order), nil
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
