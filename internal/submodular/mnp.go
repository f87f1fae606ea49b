package submodular

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// Options tunes the minimum-norm-point solver.
type Options struct {
	// Tol is the numerical tolerance on the Wolfe duality gap and on
	// weight pruning. Zero means DefaultTol.
	Tol float64
	// MaxIter caps major cycles. Zero means DefaultMaxIter.
	MaxIter int
}

// Solver defaults.
const (
	DefaultTol     = 1e-9
	DefaultMaxIter = 1000
)

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultMaxIter
	}
	return o
}

// minimizeNormalized runs the solver core on a normalized evaluation
// closure (g(∅) must be 0) with caller-provided scratch, and returns the
// minimizing set and its normalized value. MinimizeRatio reuses one
// workspace across all Dinkelbach steps through this entry point.
func minimizeNormalized(g func(Set) float64, n int, o Options, ws *workspace) (Set, float64, error) {
	x, err := minNormPoint(g, n, o, ws)
	if err != nil {
		return 0, 0, err
	}
	best, bestVal := recoverMinimizer(g, x, ws)
	return best, bestVal, nil
}

// normalize wraps f so that the empty set evaluates to 0.
func normalize(f Function) func(Set) float64 {
	base := f.Eval(EmptySet)
	return func(s Set) float64 { return f.Eval(s) - base }
}

// extremePointInto writes into q the base-polytope vertex of g induced by
// the given element ordering (Edmonds' greedy algorithm).
func extremePointInto(g func(Set) float64, order []int, q []float64) {
	var (
		prefix Set
		prev   float64
	)
	for _, e := range order {
		prefix = prefix.Add(e)
		cur := g(prefix)
		q[e] = cur - prev
		prev = cur
	}
}

// workspace holds every buffer the solver's major and minor cycles touch,
// so one solve — and, via MinimizeRatio, a whole Dinkelbach run —
// performs no per-iteration allocations. Extreme points live in pooled
// rows recycled through take/release as the active set grows and shrinks.
type workspace struct {
	n        int
	order    []int       // element ordering scratch (minVertex, recovery)
	x        []float64   // current iterate
	y        []float64   // affine minimizer point
	lam      []float64   // affine coefficients
	wts      []float64   // convex weights of the active set
	pts      [][]float64 // active extreme points (pooled rows)
	free     [][]float64 // row pool
	dropped  [][]float64 // rows dropped by the current minor-cycle filter
	gram     [][]float64 // KKT system rows (backed by gramBack)
	gramBack []float64
	rhs      []float64
	lin      linalg.Workspace
}

func newWorkspace(n int) *workspace {
	ws := &workspace{
		n:       n,
		order:   make([]int, n),
		x:       make([]float64, n),
		y:       make([]float64, n),
		lam:     make([]float64, 0, n+2),
		wts:     make([]float64, 0, n+2),
		pts:     make([][]float64, 0, n+2),
		free:    make([][]float64, 0, n+2),
		dropped: make([][]float64, 0, n+2),
	}
	// Pre-size the KKT-system buffers for the largest affinely
	// independent active set (n+1 points, transiently one more), so the
	// minor cycles never grow them mid-solve.
	ws.gramMatrix(n + 3)
	ws.rhs = make([]float64, n+3)
	ws.lin.Grow(n + 3)
	return ws
}

func (ws *workspace) takeRow() []float64 {
	if k := len(ws.free); k > 0 {
		r := ws.free[k-1]
		ws.free = ws.free[:k-1]
		return r
	}
	return make([]float64, ws.n)
}

func (ws *workspace) releaseRow(r []float64) { ws.free = append(ws.free, r) }

// reclaim returns every active-set row to the pool; called when a new
// solve starts on a reused workspace.
func (ws *workspace) reclaim() {
	for _, r := range ws.pts {
		ws.free = append(ws.free, r)
	}
	ws.pts = ws.pts[:0]
	ws.wts = ws.wts[:0]
}

// gramMatrix returns a d×d matrix of reused rows (contents unspecified;
// the caller overwrites every cell).
func (ws *workspace) gramMatrix(d int) [][]float64 {
	if len(ws.gramBack) < d*d {
		ws.gramBack = make([]float64, d*d)
	}
	if len(ws.gram) < d {
		ws.gram = make([][]float64, d)
	}
	g := ws.gram[:d]
	for i := 0; i < d; i++ {
		g[i] = ws.gramBack[i*d : (i+1)*d]
	}
	return g
}

// stableSortByKey sorts order in place so that x[order[k]] ascends, with
// ties keeping earlier entries first. Insertion sort is stable, so this
// is the exact permutation sort.SliceStable would produce — without its
// per-call reflect allocations — and the solver's orders are mostly
// sorted already from the previous iteration's x, making it near-linear
// in practice.
func stableSortByKey(order []int, x []float64) {
	for i := 1; i < len(order); i++ {
		e := order[i]
		v := x[e]
		j := i - 1
		for j >= 0 && x[order[j]] > v {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = e
	}
}

// minVertex returns (in a pooled row) the base-polytope vertex minimizing
// <x, q>, obtained by ordering elements by ascending x.
func (ws *workspace) minVertex(g func(Set) float64, x []float64) []float64 {
	order := ws.order[:len(x)]
	for i := range order {
		order[i] = i
	}
	stableSortByKey(order, x)
	q := ws.takeRow()
	extremePointInto(g, order, q)
	return q
}

// minNormPoint runs Wolfe's algorithm and returns the (approximate)
// minimum-norm point of the base polytope of g. The returned slice
// aliases ws and is valid until the next solve on ws.
func minNormPoint(g func(Set) float64, n int, o Options, ws *workspace) ([]float64, error) {
	ws.reclaim()
	identity := ws.order[:n]
	for i := range identity {
		identity[i] = i
	}
	first := ws.takeRow()
	extremePointInto(g, identity, first)

	ws.pts = append(ws.pts, first) // active extreme points
	ws.wts = append(ws.wts, 1)     // convex weights, sum to 1
	x := ws.x[:n]
	copy(x, first)

	scale := 1.0
	for _, v := range first {
		scale = math.Max(scale, math.Abs(v))
	}
	gapTol := o.Tol * scale * float64(n)

	for iter := 0; iter < o.MaxIter; iter++ {
		q := ws.minVertex(g, x)
		// Wolfe termination: <x,x> <= <x,q> + tol.
		if linalg.Norm2(x) <= linalg.Dot(x, q)+gapTol {
			ws.releaseRow(q)
			return x, nil
		}
		if containsPoint(ws.pts, q, o.Tol*scale) {
			// Numerical stall: q already active but gap not closed.
			ws.releaseRow(q)
			return x, nil
		}
		ws.pts = append(ws.pts, q)
		ws.wts = append(ws.wts, 0)

		// Minor cycles: move to the affine minimizer, dropping points
		// until it is a convex combination.
		for {
			if err := ws.affineMinimizer(); err != nil {
				// Degenerate active set: drop the zero-weight newest point
				// if possible, else give up with the current x.
				if len(ws.pts) > 1 {
					ws.releaseRow(ws.pts[len(ws.pts)-1])
					ws.pts = ws.pts[:len(ws.pts)-1]
					ws.wts = ws.wts[:len(ws.wts)-1]
					continue
				}
				return x, nil
			}
			lam := ws.lam
			neg := -1
			for i, l := range lam {
				if l < o.Tol {
					neg = i
					break
				}
			}
			if neg < 0 {
				copy(x, ws.y)
				ws.wts = ws.wts[:len(lam)]
				copy(ws.wts, lam)
				break
			}
			// Line search from wts toward lam: largest theta in [0,1]
			// keeping all weights nonnegative.
			theta := 1.0
			for i := range lam {
				if lam[i] < ws.wts[i] {
					if t := ws.wts[i] / (ws.wts[i] - lam[i]); t < theta {
						theta = t
					}
				}
			}
			kept := 0
			ws.dropped = ws.dropped[:0]
			for i := range ws.pts {
				w := (1-theta)*ws.wts[i] + theta*lam[i]
				if w > o.Tol {
					ws.pts[kept] = ws.pts[i]
					ws.wts[kept] = w
					kept++
				} else {
					ws.dropped = append(ws.dropped, ws.pts[i])
				}
			}
			if kept == 0 {
				// Shouldn't happen; keep the best single point.
				ws.pts[0] = ws.dropped[0]
				ws.wts[0] = 1
				kept = 1
				ws.dropped = ws.dropped[1:]
			}
			for _, r := range ws.dropped {
				ws.releaseRow(r)
			}
			ws.pts = ws.pts[:kept]
			ws.wts = ws.wts[:kept]
			renormalize(ws.wts)
			combinationInto(x, ws.pts, ws.wts)
		}
	}
	return x, nil // iteration cap: return best-effort point
}

// affineMinimizer finds the minimum-norm point of the affine hull of the
// active set, leaving the point in ws.y and its affine coefficients in
// ws.lam. It solves the KKT system [G 1; 1ᵀ 0]·[λ; μ] = [0; 1] where G is
// the Gram matrix, adding a small ridge on failure.
func (ws *workspace) affineMinimizer() error {
	pts := ws.pts
	k := len(pts)
	if k == 1 {
		ws.y = ws.y[:len(pts[0])]
		copy(ws.y, pts[0])
		ws.lam = append(ws.lam[:0], 1)
		return nil
	}
	a := ws.gramMatrix(k + 1)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			d := linalg.Dot(pts[i], pts[j])
			a[i][j], a[j][i] = d, d
		}
		a[i][k], a[k][i] = 1, 1
	}
	a[k][k] = 0
	if len(ws.rhs) < k+1 {
		ws.rhs = make([]float64, k+1)
	}
	b := ws.rhs[:k+1]
	for i := range b {
		b[i] = 0
	}
	b[k] = 1

	var sol []float64
	var err error
	for _, ridge := range []float64{0, 1e-12, 1e-9, 1e-6} {
		if ridge > 0 {
			for i := 0; i < k; i++ {
				a[i][i] += ridge
			}
		}
		sol, err = ws.lin.Solve(a, b)
		if err == nil {
			break
		}
	}
	if err != nil {
		return errors.New("submodular: degenerate affine system")
	}
	ws.lam = append(ws.lam[:0], sol[:k]...)
	ws.y = ws.y[:len(pts[0])]
	combinationInto(ws.y, pts, ws.lam)
	return nil
}

// combinationInto writes the convex combination Σ w[i]·pts[i] into x.
func combinationInto(x []float64, pts [][]float64, w []float64) {
	for i := range x {
		x[i] = 0
	}
	for i, p := range pts {
		linalg.AXPY(w[i], p, x)
	}
}

func renormalize(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if s <= 0 {
		return
	}
	linalg.Scale(1/s, w)
}

func containsPoint(pts [][]float64, q []float64, tol float64) bool {
	for _, p := range pts {
		same := true
		for i := range p {
			if math.Abs(p[i]-q[i]) > tol*(1+math.Abs(p[i])) {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// recoverMinimizer extracts the best candidate set from the minimum-norm
// point x: by SFM duality the minimizers of g are level sets of x, so it
// evaluates every prefix of the ascending order of x (plus the strict and
// weak negative level sets) and returns the best.
func recoverMinimizer(g func(Set) float64, x []float64, ws *workspace) (Set, float64) {
	n := len(x)
	order := ws.order[:n]
	for i := range order {
		order[i] = i
	}
	stableSortByKey(order, x)

	best, bestVal := EmptySet, 0.0
	var prefix Set
	for _, e := range order {
		prefix = prefix.Add(e)
		if v := g(prefix); v < bestVal {
			best, bestVal = prefix, v
		}
	}
	for _, weak := range [2]bool{false, true} {
		if cand := negLevelSet(x, 0, weak); cand != best {
			if v := g(cand); v < bestVal {
				best, bestVal = cand, v
			}
		}
	}
	return best, bestVal
}

func negLevelSet(x []float64, thresh float64, weak bool) Set {
	var s Set
	for i, v := range x {
		if v < thresh || (weak && v <= thresh) {
			s = s.Add(i)
		}
	}
	return s
}
