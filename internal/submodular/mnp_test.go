package submodular

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Minimize finds a minimizer of the submodular function f using the
// Fujishige–Wolfe minimum-norm-point algorithm. It returns the minimizing
// set and f's (unnormalized) value on it. The empty set is a valid answer.
//
// f is evaluated through a Memo, so each distinct set costs at most one
// underlying Eval per call. f must be submodular; on non-submodular input
// the result is undefined (but still a valid subset with its true value).
func Minimize(f Function, opts Options) (Set, float64, error) {
	o := opts.withDefaults()
	n := f.N()
	if n < 0 || n > 64 {
		return 0, 0, fmt.Errorf("submodular: ground set size %d outside [0,64]", n)
	}
	if n == 0 {
		return EmptySet, f.Eval(EmptySet), nil
	}

	mf := NewMemo(f)
	base := mf.Eval(EmptySet)
	g := func(s Set) float64 { return mf.Eval(s) - base } // g(∅) = 0
	best, bestVal, err := minimizeNormalized(g, n, o, newWorkspace(n))
	if err != nil {
		return 0, 0, err
	}
	return best, bestVal + base, nil
}

// randSubmodular builds a random submodular function on n elements:
// coeff·sqrt(|S|) + concave tariff of a random demand sum + modular weights
// (possibly negative). This is the shape of CCSA's g_λ functions.
func randSubmodular(r *rand.Rand, n int) Function {
	w := make([]float64, n)
	demand := make([]float64, n)
	for i := range w {
		w[i] = r.NormFloat64() * 5
		demand[i] = r.Float64() * 10
	}
	coeff := r.Float64() * 8
	fee := r.Float64() * 10
	return FuncOf(n, func(s Set) float64 {
		if s.Empty() {
			return 0
		}
		var mod, dem float64
		for _, e := range s.Elems() {
			mod += w[e]
			dem += demand[e]
		}
		return fee + coeff*math.Sqrt(float64(s.Card())) + 3*math.Sqrt(dem) + mod
	})
}

// randCutMinusModular builds cut(S) − Σ_{i∈S} w_i on a random graph,
// a classic SFM stress case with nontrivial minimizers.
func randCutMinusModular(r *rand.Rand, n int) Function {
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.5 {
				wgt := r.Float64() * 4
				adj[i][j], adj[j][i] = wgt, wgt
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Float64() * 3
	}
	return FuncOf(n, func(s Set) float64 {
		var cut, mod float64
		for i := 0; i < n; i++ {
			if !s.Has(i) {
				continue
			}
			mod += w[i]
			for j := 0; j < n; j++ {
				if !s.Has(j) {
					cut += adj[i][j]
				}
			}
		}
		return cut - mod
	})
}

func TestMinimizeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(10)
		var f Function
		if trial%2 == 0 {
			f = randSubmodular(r, n)
		} else {
			f = randCutMinusModular(r, n)
		}
		if err := Check(f, 1e-9); err != nil {
			t.Fatalf("trial %d: fixture not submodular: %v", trial, err)
		}
		_, wantVal := BruteForceMin(f)
		gotSet, gotVal, err := Minimize(f, Options{})
		if err != nil {
			t.Fatalf("trial %d: Minimize: %v", trial, err)
		}
		if math.Abs(gotVal-f.Eval(gotSet)) > 1e-9 {
			t.Fatalf("trial %d: returned value %v inconsistent with set %v (%v)",
				trial, gotVal, gotSet, f.Eval(gotSet))
		}
		if gotVal > wantVal+1e-6*(1+math.Abs(wantVal)) {
			t.Fatalf("trial %d (n=%d): Minimize = %v on %v, brute force = %v",
				trial, n, gotVal, gotSet, wantVal)
		}
	}
}

func TestMinimizeModular(t *testing.T) {
	// For a modular function the minimizer is exactly the negative weights.
	w := []float64{2, -3, 1, -0.5, 0.25}
	f := FuncOf(5, func(s Set) float64 {
		var v float64
		for _, e := range s.Elems() {
			v += w[e]
		}
		return v
	})
	s, v, err := Minimize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s != SetOf(1, 3) || math.Abs(v-(-3.5)) > 1e-9 {
		t.Errorf("Minimize modular = %v, %v; want {1,3}, -3.5", s, v)
	}
}

func TestMinimizeNonnegativeReturnsEmpty(t *testing.T) {
	f := FuncOf(6, func(s Set) float64 { return float64(s.Card()) })
	s, v, err := Minimize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() || v != 0 {
		t.Errorf("Minimize = %v, %v; want empty, 0", s, v)
	}
}

func TestMinimizeHandlesOffset(t *testing.T) {
	// f(∅) = 42 must not confuse the solver and must be reported in value.
	f := FuncOf(3, func(s Set) float64 {
		v := 42.0
		if s.Has(1) {
			v -= 7
		}
		return v
	})
	s, v, err := Minimize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s != SetOf(1) || math.Abs(v-35) > 1e-9 {
		t.Errorf("Minimize = %v, %v; want {1}, 35", s, v)
	}
}

func TestMinimizeEdgeCases(t *testing.T) {
	s, v, err := Minimize(FuncOf(0, func(Set) float64 { return 3 }), Options{})
	if err != nil || !s.Empty() || v != 3 {
		t.Errorf("n=0: %v %v %v", s, v, err)
	}
	if _, _, err := Minimize(FuncOf(65, func(Set) float64 { return 0 }), Options{}); err == nil {
		t.Error("n=65 should error")
	}
	// n = 1 negative singleton.
	s, v, err = Minimize(FuncOf(1, func(s Set) float64 {
		if s.Has(0) {
			return -2
		}
		return 0
	}), Options{})
	if err != nil || s != SetOf(0) || v != -2 {
		t.Errorf("n=1: %v %v %v", s, v, err)
	}
}

func TestMinimizeLargerGroundSet(t *testing.T) {
	// No brute force here — validate internal consistency and that the
	// solver beats all singletons and the full set on n = 40.
	r := rand.New(rand.NewSource(202))
	f := randCutMinusModular(r, 40)
	s, v, err := Minimize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-f.Eval(s)) > 1e-9 {
		t.Fatalf("value mismatch: %v vs %v", v, f.Eval(s))
	}
	if v > 0 {
		t.Errorf("min value %v > f(∅)=0", v)
	}
	if full := f.Eval(FullSet(40)); v > full+1e-9 {
		t.Errorf("min value %v worse than full set %v", v, full)
	}
}

func BenchmarkMinimizeN20(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	f := randSubmodular(r, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Minimize(f, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
