package submodular

import (
	"fmt"
	"math"
)

// MinimizeRatio finds a nonempty set minimizing f(S)/|S| via Dinkelbach
// iteration: each step solves the SFM min_S f(S) − λ|S| (still submodular,
// since λ|S| is modular) with the minimum-norm-point algorithm, and λ is
// updated to the ratio of the minimizer found. The sequence of λ values is
// strictly decreasing and finite, so the loop terminates at the optimal
// ratio (up to solver tolerance).
//
// One Memo on f is threaded through every Dinkelbach step, the singleton
// sweep, and the final polish, so each distinct set is evaluated at most
// once for the whole call; each step's λ·|S| modular shift is applied
// outside the cache. One solver workspace is likewise shared across
// steps, so the Dinkelbach loop performs no per-iteration allocations.
// Both reuses are value-preserving: results are bit-identical to the
// unmemoized, allocating solver.
//
// f must be submodular with f(∅) = 0 and f(S) ≥ 0; CCSA's per-charger
// session-cost functions satisfy both.
func MinimizeRatio(f Function, opts Options) (Set, float64, error) {
	o := opts.withDefaults()
	n := f.N()
	if n < 1 || n > 64 {
		return 0, 0, fmt.Errorf("submodular: ratio ground set size %d outside [1,64]", n)
	}

	mf := NewMemo(f)

	// Start from the best singleton: a feasible ratio upper bound.
	best, bestRatio := SetOf(0), mf.Eval(SetOf(0))
	for i := 1; i < n; i++ {
		if v := mf.Eval(SetOf(i)); v < bestRatio {
			best, bestRatio = SetOf(i), v
		}
	}

	ws := newWorkspace(n)
	base := mf.Eval(EmptySet) // 0 by contract; subtracted to mirror the plain SFM path (Minimize, in the tests) exactly
	scale := math.Max(math.Abs(bestRatio), 1)
	for iter := 0; iter < o.MaxIter; iter++ {
		lambda := bestRatio
		g := func(s Set) float64 {
			return mf.Eval(s) - lambda*float64(s.Card()) - base
		}
		s, nv, err := minimizeNormalized(g, n, o, ws)
		if err != nil {
			return 0, 0, fmt.Errorf("dinkelbach step %d: %w", iter, err)
		}
		v := nv + base
		if s.Empty() || v >= -o.Tol*scale {
			break // no nonempty set beats the current ratio
		}
		r := mf.Eval(s) / float64(s.Card())
		if r >= bestRatio-o.Tol*scale {
			break // numerical stall
		}
		best, bestRatio = s, r
	}

	best, bestRatio = polishRatio(mf, best, bestRatio)
	return best, bestRatio, nil
}

// polishRatio greedily toggles single elements while doing so lowers the
// ratio. It cleans up solver-tolerance artifacts; on exact solutions it is
// a no-op.
func polishRatio(f Function, s Set, ratio float64) (Set, float64) {
	n := f.N()
	improved := true
	for improved {
		improved = false
		for i := 0; i < n; i++ {
			var cand Set
			if s.Has(i) {
				if s.Card() == 1 {
					continue
				}
				cand = s.Remove(i)
			} else {
				cand = s.Add(i)
			}
			if r := f.Eval(cand) / float64(cand.Card()); r < ratio-1e-12 {
				s, ratio = cand, r
				improved = true
			}
		}
	}
	return s, ratio
}
