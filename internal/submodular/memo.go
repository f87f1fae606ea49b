package submodular

// Memo wraps a Function with a value cache keyed by the subset bitmask,
// so every distinct set is evaluated at most once no matter how many
// times the solver asks for it. MinimizeRatio threads one Memo through
// every Dinkelbach step, the prefix sweeps of the minimum-norm-point
// recovery, and the final polish, which is where the bulk of the SFM
// oracle speedup comes from: the underlying session-cost function is
// expensive, while the λ·|S| modular shift each step needs is applied
// outside the cache and costs one multiply.
//
// A Memo caches first-computed values verbatim, so for a deterministic
// f the memoized results are bit-identical to unmemoized evaluation.
// It is not safe for concurrent use.
type Memo struct {
	f    Function
	vals map[Set]float64
}

// NewMemo wraps f in a fresh cache. Wrapping a *Memo returns it
// unchanged — stacking caches would only double the lookups.
func NewMemo(f Function) *Memo {
	if m, ok := f.(*Memo); ok {
		return m
	}
	return &Memo{f: f, vals: make(map[Set]float64, 4*f.N()+8)}
}

// N implements Function.
func (m *Memo) N() int { return m.f.N() }

// Eval implements Function, consulting the cache first.
func (m *Memo) Eval(s Set) float64 {
	if v, ok := m.vals[s]; ok {
		return v
	}
	v := m.f.Eval(s)
	m.vals[s] = v
	return v
}
