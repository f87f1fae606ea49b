package submodular

// This file preserves the pre-fast-path solver verbatim (per-iteration
// allocations, no memoization) as the reference implementation for the
// equivalence property tests: the optimized solver must return
// bit-identical sets and values, because CCSA's schedules — and the
// golden experiment renderings — are downstream of every float it
// produces.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
)

func referenceMinimize(f Function, opts Options) (Set, float64, error) {
	o := opts.withDefaults()
	n := f.N()
	if n < 0 || n > 64 {
		return 0, 0, fmt.Errorf("submodular: ground set size %d outside [0,64]", n)
	}
	if n == 0 {
		return EmptySet, f.Eval(EmptySet), nil
	}

	g := normalize(f) // g(∅) = 0
	x, err := referenceMinNormPoint(g, n, o)
	if err != nil {
		return 0, 0, err
	}

	best, bestVal := referenceRecoverMinimizer(g, x)
	return best, bestVal + f.Eval(EmptySet), nil
}

func referenceMinVertex(g func(Set) float64, x []float64) []float64 {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
	return extremePoint(g, order)
}

func referenceMinNormPoint(g func(Set) float64, n int, o Options) ([]float64, error) {
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	first := extremePoint(g, identity)

	pts := [][]float64{first}
	wts := []float64{1}
	x := append([]float64(nil), first...)

	scale := 1.0
	for _, v := range first {
		scale = math.Max(scale, math.Abs(v))
	}
	gapTol := o.Tol * scale * float64(n)

	for iter := 0; iter < o.MaxIter; iter++ {
		q := referenceMinVertex(g, x)
		if linalg.Norm2(x) <= linalg.Dot(x, q)+gapTol {
			return x, nil
		}
		if containsPoint(pts, q, o.Tol*scale) {
			return x, nil
		}
		pts = append(pts, q)
		wts = append(wts, 0)

		for {
			y, lam, err := referenceAffineMinimizer(pts)
			if err != nil {
				if len(pts) > 1 {
					pts = pts[:len(pts)-1]
					wts = wts[:len(wts)-1]
					continue
				}
				return x, nil
			}
			neg := -1
			for i, l := range lam {
				if l < o.Tol {
					neg = i
					break
				}
			}
			if neg < 0 {
				x, wts = y, lam
				break
			}
			theta := 1.0
			for i := range lam {
				if lam[i] < wts[i] {
					if t := wts[i] / (wts[i] - lam[i]); t < theta {
						theta = t
					}
				}
			}
			kept := pts[:0]
			keptW := wts[:0]
			for i := range pts {
				w := (1-theta)*wts[i] + theta*lam[i]
				if w > o.Tol {
					kept = append(kept, pts[i])
					keptW = append(keptW, w)
				}
			}
			if len(kept) == 0 {
				kept = append(kept, pts[0])
				keptW = append(keptW, 1)
			}
			pts, wts = kept, keptW
			renormalize(wts)
			x = referenceCombination(pts, wts)
		}
	}
	return x, nil
}

func referenceAffineMinimizer(pts [][]float64) ([]float64, []float64, error) {
	k := len(pts)
	if k == 1 {
		return append([]float64(nil), pts[0]...), []float64{1}, nil
	}
	a := make([][]float64, k+1)
	for i := range a {
		a[i] = make([]float64, k+1)
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			d := linalg.Dot(pts[i], pts[j])
			a[i][j], a[j][i] = d, d
		}
		a[i][k], a[k][i] = 1, 1
	}
	b := make([]float64, k+1)
	b[k] = 1

	var sol []float64
	var err error
	for _, ridge := range []float64{0, 1e-12, 1e-9, 1e-6} {
		if ridge > 0 {
			for i := 0; i < k; i++ {
				a[i][i] += ridge
			}
		}
		sol, err = new(linalg.Workspace).Solve(a, b)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, nil, errors.New("submodular: degenerate affine system")
	}
	lam := sol[:k]
	return referenceCombination(pts, lam), append([]float64(nil), lam...), nil
}

func referenceCombination(pts [][]float64, w []float64) []float64 {
	x := make([]float64, len(pts[0]))
	for i, p := range pts {
		linalg.AXPY(w[i], p, x)
	}
	return x
}

func referenceRecoverMinimizer(g func(Set) float64, x []float64) (Set, float64) {
	n := len(x)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })

	best, bestVal := EmptySet, 0.0
	var prefix Set
	for _, e := range order {
		prefix = prefix.Add(e)
		if v := g(prefix); v < bestVal {
			best, bestVal = prefix, v
		}
	}
	for _, cand := range []Set{negLevelSet(x, 0, false), negLevelSet(x, 0, true)} {
		if cand != best {
			if v := g(cand); v < bestVal {
				best, bestVal = cand, v
			}
		}
	}
	return best, bestVal
}

func referenceMinimizeRatio(f Function, opts Options) (Set, float64, error) {
	o := opts.withDefaults()
	n := f.N()
	if n < 1 || n > 64 {
		return 0, 0, fmt.Errorf("submodular: ratio ground set size %d outside [1,64]", n)
	}

	best, bestRatio := SetOf(0), f.Eval(SetOf(0))
	for i := 1; i < n; i++ {
		if v := f.Eval(SetOf(i)); v < bestRatio {
			best, bestRatio = SetOf(i), v
		}
	}

	scale := math.Max(math.Abs(bestRatio), 1)
	for iter := 0; iter < o.MaxIter; iter++ {
		lambda := bestRatio
		gl := FuncOf(n, func(s Set) float64 {
			return f.Eval(s) - lambda*float64(s.Card())
		})
		s, v, err := referenceMinimize(gl, o)
		if err != nil {
			return 0, 0, fmt.Errorf("dinkelbach step %d: %w", iter, err)
		}
		if s.Empty() || v >= -o.Tol*scale {
			break
		}
		r := f.Eval(s) / float64(s.Card())
		if r >= bestRatio-o.Tol*scale {
			break
		}
		best, bestRatio = s, r
	}

	best, bestRatio = polishRatio(f, best, bestRatio)
	return best, bestRatio, nil
}

// extremePoint is the allocating form of extremePointInto the reference
// solver uses.
func extremePoint(g func(Set) float64, order []int) []float64 {
	q := make([]float64, len(order))
	extremePointInto(g, order, q)
	return q
}
