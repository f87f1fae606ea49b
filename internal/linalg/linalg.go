// Package linalg provides the small dense linear-algebra kernels needed by
// the Fujishige–Wolfe minimum-norm-point solver: Gaussian elimination with
// partial pivoting on systems whose dimension is the (small) active set of
// extreme points.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Workspace holds the augmented-matrix and solution buffers Solve needs,
// so repeated solves (the Fujishige–Wolfe minor cycles) allocate nothing
// after warm-up. The zero value is ready to use; a Workspace is not safe
// for concurrent use.
type Workspace struct {
	rows    [][]float64
	backing []float64
	x       []float64
}

// Grow pre-sizes w's buffers for systems of dimension up to n, so later
// Solve calls at or below that size allocate nothing.
func (w *Workspace) Grow(n int) {
	if len(w.backing) < n*(n+1) {
		w.backing = make([]float64, n*(n+1))
	}
	if len(w.rows) < n {
		w.rows = make([][]float64, n)
	}
	if len(w.x) < n {
		w.x = make([]float64, n)
	}
}

// Solve solves the n×n system A·x = b by Gaussian elimination with partial
// pivoting, with the scratch buffers taken from w. A and b are not
// modified. It returns ErrSingular when a pivot underflows. The returned
// slice aliases w and is only valid until the next call on w.
func (w *Workspace) Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("linalg: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d vs %d", n, len(a[0]), len(b))
	}
	// Work on an augmented copy.
	if len(w.backing) < n*(n+1) {
		w.backing = make([]float64, n*(n+1))
	}
	if len(w.rows) < n {
		w.rows = make([][]float64, n)
	}
	m := w.rows[:n]
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = w.backing[i*(n+1) : (i+1)*(n+1)]
		copy(m[i], a[i])
		m[i][n] = b[i]
	}

	const pivotEps = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot.
		best, bestAbs := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if ab := math.Abs(m[r][col]); ab > bestAbs {
				best, bestAbs = r, ab
			}
		}
		if bestAbs < pivotEps {
			return nil, ErrSingular
		}
		m[col], m[best] = m[best], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	// Back substitution.
	if len(w.x) < n {
		w.x = make([]float64, n)
	}
	x := w.x[:n]
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for c := i + 1; c < n; c++ {
			sum -= m[i][c] * x[c]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// Dot returns the dot product of equal-length vectors x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of x.
func Norm2(x []float64) float64 { return Dot(x, x) }

// AXPY computes y ← y + alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
