// Package geom provides the 2-D geometric primitives used throughout the
// cooperative-charging simulator: points, rectangles, distance helpers and
// spatial point distributions.
//
// All coordinates are in meters. The package is allocation-light: Point and
// Rect are small value types suited to tight scheduling loops.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the 2-D field, in meters.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons on hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q. t outside
// [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// MoveToward returns the point reached by traveling at most step meters
// from p toward q, stopping at q if it is closer than step.
func (p Point) MoveToward(q Point, step float64) Point {
	d := p.Dist(q)
	if d <= step || d == 0 {
		return q
	}
	return p.Lerp(q, step/d)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [MinX,MaxX]×[MinY,MaxY].
type Rect struct {
	MinX float64
	MinY float64
	MaxX float64
	MaxY float64
}

// Square returns the square [0,side]×[0,side].
func Square(side float64) Rect { return Rect{MaxX: side, MaxY: side} }

// Width returns the rectangle's extent along X.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the rectangle's extent along Y.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// DistTo returns the Euclidean distance from p to the nearest point of r:
// zero when p lies inside r or on its boundary. Spatial sharding uses it
// to decide whether a device sits within a neighboring cell's overlap
// band.
func (r Rect) DistTo(p Point) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return math.Hypot(dx, dy)
}
