package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Centroid returns the arithmetic mean of pts. It returns the origin for an
// empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{X: sx / n, Y: sy / n}
}

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 1), Pt(1, 1), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want, 1e-9) {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	prop := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampFinite(ax), clampFinite(ay))
		b := Pt(clampFinite(bx), clampFinite(by))
		c := Pt(clampFinite(cx), clampFinite(cy))
		if !almostEqual(a.Dist(b), b.Dist(a), 1e-9) {
			return false
		}
		// Triangle inequality with a tolerance for float rounding.
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// clampFinite maps arbitrary quick-generated floats into a sane finite
// range so the property is not vacuously broken by Inf/NaN inputs.
func clampFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestLerpAndMoveToward(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 0)
	if got := p.Lerp(q, 0.25); got != Pt(2.5, 0) {
		t.Errorf("Lerp = %v, want (2.5,0)", got)
	}
	if got := p.MoveToward(q, 4); got != Pt(4, 0) {
		t.Errorf("MoveToward short = %v, want (4,0)", got)
	}
	if got := p.MoveToward(q, 400); got != q {
		t.Errorf("MoveToward overshoot = %v, want q", got)
	}
	if got := p.MoveToward(p, 1); got != p {
		t.Errorf("MoveToward to self = %v, want p", got)
	}
}

func TestRect(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 10}
	if r.Width() != 4 || r.Height() != 8 {
		t.Fatalf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if r.DistTo(Pt(1, 2)) != 0 || r.DistTo(Pt(5, 10)) != 0 || r.DistTo(Pt(0, 0)) != math.Sqrt(5) {
		t.Errorf("DistTo boundary behaviour wrong")
	}
	if got := r.Clamp(Pt(100, -100)); got != Pt(5, 2) {
		t.Errorf("Clamp = %v, want (5,2)", got)
	}
}

func TestSquare(t *testing.T) {
	s := Square(100)
	if s.Width() != 100 || s.Height() != 100 || s.MinX != 0 || s.MinY != 0 {
		t.Errorf("Square(100) = %+v", s)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != Pt(0, 0) {
		t.Errorf("Centroid(nil) = %v", got)
	}
	got := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(0, 2), Pt(2, 2)})
	if got != Pt(1, 1) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func TestUniformPointsInField(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	field := Rect{MinX: -50, MinY: 10, MaxX: 50, MaxY: 400}
	pts := UniformPoints(r, field, 500)
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if field.DistTo(p) != 0 {
			t.Fatalf("point %v outside field", p)
		}
	}
}

func TestGridPoints(t *testing.T) {
	field := Square(100)
	for _, n := range []int{0, 1, 4, 5, 9, 10} {
		pts := GridPoints(field, n)
		if len(pts) != n {
			t.Fatalf("GridPoints(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if field.DistTo(p) != 0 {
				t.Fatalf("grid point %v outside field", p)
			}
		}
	}
	// Distinctness for a modest n.
	pts := GridPoints(field, 9)
	seen := make(map[Point]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[p] = true
	}
}

func TestClusteredPoints(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	field := Square(1000)
	pts := ClusteredPoints(r, field, 300, ClusterSpec{Clusters: 3, Sigma: 30})
	if len(pts) != 300 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if field.DistTo(p) != 0 {
			t.Fatalf("clustered point %v outside field", p)
		}
	}
	// Fallback path.
	uni := ClusteredPoints(r, field, 10, ClusterSpec{})
	if len(uni) != 10 {
		t.Fatalf("fallback len = %d", len(uni))
	}
}

func TestPerimeterPoints(t *testing.T) {
	field := Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}
	pts := PerimeterPoints(field, 12)
	if len(pts) != 12 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		onEdge := almostEqual(p.X, field.MinX, 1e-9) || almostEqual(p.X, field.MaxX, 1e-9) ||
			almostEqual(p.Y, field.MinY, 1e-9) || almostEqual(p.Y, field.MaxY, 1e-9)
		if !onEdge {
			t.Fatalf("perimeter point %v not on an edge", p)
		}
	}
	if got := PerimeterPoints(field, 0); got != nil {
		t.Errorf("PerimeterPoints(0) = %v, want nil", got)
	}
}
