package submodular

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// FullSet returns the set {0, …, n-1}.
func FullSet(n int) Set {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Check verifies submodularity of f by the local exchange characterization:
// for every set S and distinct i, j ∉ S,
// f(S∪{i}) + f(S∪{j}) ≥ f(S∪{i,j}) + f(S) − tol.
// It is exponential in f.N() and intended for tests (n ≤ ~14). It returns
// nil when f is submodular and a descriptive error at the first violation.
func Check(f Function, tol float64) error {
	n := f.N()
	if n > 20 {
		return fmt.Errorf("submodular: Check ground set %d too large", n)
	}
	full := FullSet(n)
	for s := Set(0); s <= full; s++ {
		if !s.SubsetOf(full) {
			continue
		}
		fs := f.Eval(s)
		for i := 0; i < n; i++ {
			if s.Has(i) {
				continue
			}
			fsi := f.Eval(s.Add(i))
			for j := i + 1; j < n; j++ {
				if s.Has(j) {
					continue
				}
				fsj := f.Eval(s.Add(j))
				fsij := f.Eval(s.Add(i).Add(j))
				if fsi+fsj < fsij+fs-tol {
					return fmt.Errorf(
						"submodular: violated at S=%v i=%d j=%d: %.9g + %.9g < %.9g + %.9g",
						s, i, j, fsi, fsj, fsij, fs)
				}
			}
		}
		if s == full {
			break
		}
	}
	return nil
}

// BruteForceMin minimizes f over all subsets by enumeration. It returns
// the minimizing set (ties broken toward smaller masks) and its value.
// Exponential; for tests and tiny instances only.
func BruteForceMin(f Function) (Set, float64) {
	n := f.N()
	best, bestVal := EmptySet, f.Eval(EmptySet)
	full := uint64(FullSet(n))
	for m := uint64(1); m <= full; m++ {
		if v := f.Eval(Set(m)); v < bestVal {
			best, bestVal = Set(m), v
		}
		if m == full {
			break
		}
	}
	return best, bestVal
}

// BruteForceMinRatio minimizes f(S)/|S| over nonempty subsets by
// enumeration. Exponential; for tests and tiny instances only.
func BruteForceMinRatio(f Function) (Set, float64) {
	n := f.N()
	var (
		best    Set
		bestVal = f.Eval(SetOf(0)) // placeholder, overwritten below
		first   = true
	)
	full := uint64(FullSet(n))
	for m := uint64(1); m <= full; m++ {
		s := Set(m)
		v := f.Eval(s) / float64(s.Card())
		if first || v < bestVal {
			best, bestVal, first = s, v, false
		}
		if m == full {
			break
		}
	}
	return best, bestVal
}

func TestSetBasics(t *testing.T) {
	s := SetOf(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Errorf("Has wrong for %v", s)
	}
	if s.Card() != 3 {
		t.Errorf("Card = %d", s.Card())
	}
	if got := s.Add(1).Card(); got != 4 {
		t.Errorf("Add Card = %d", got)
	}
	if got := s.Remove(3); got != SetOf(0, 5) {
		t.Errorf("Remove = %v", got)
	}
	if got := s.Remove(4); got != s {
		t.Errorf("Remove absent = %v", got)
	}
	if s.String() != "{0,3,5}" {
		t.Errorf("String = %q", s.String())
	}
	if EmptySet.String() != "{}" {
		t.Errorf("empty String = %q", EmptySet.String())
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := SetOf(0, 1, 2), SetOf(2, 3)
	if !SetOf(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	if !EmptySet.SubsetOf(a) || !EmptySet.Empty() || a.Empty() {
		t.Error("Empty handling wrong")
	}
}

func TestFullSet(t *testing.T) {
	tests := []struct {
		n    int
		want Set
	}{
		{0, 0}, {-1, 0}, {1, 1}, {3, 7}, {64, ^Set(0)},
	}
	for _, tt := range tests {
		if got := FullSet(tt.n); got != tt.want {
			t.Errorf("FullSet(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestElems(t *testing.T) {
	s := SetOf(7, 2, 63)
	got := s.Elems()
	want := []int{2, 7, 63}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	if len(EmptySet.Elems()) != 0 {
		t.Error("empty Elems should be empty")
	}
}

func TestSetRoundTripProperty(t *testing.T) {
	prop := func(raw uint64) bool {
		s := Set(raw)
		rebuilt := SetOf(s.Elems()...)
		return rebuilt == s && s.Card() == len(s.Elems())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCheckAcceptsSubmodular(t *testing.T) {
	// Concave of cardinality plus modular part.
	w := []float64{1, -2, 0.5, -0.3, 2}
	f := FuncOf(5, func(s Set) float64 {
		v := 3 * math.Sqrt(float64(s.Card()))
		for _, e := range s.Elems() {
			v += w[e]
		}
		return v
	})
	if err := Check(f, 1e-9); err != nil {
		t.Errorf("Check = %v, want nil", err)
	}
}

func TestCheckRejectsSupermodular(t *testing.T) {
	f := FuncOf(4, func(s Set) float64 {
		c := float64(s.Card())
		return c * c
	})
	if err := Check(f, 1e-9); err == nil {
		t.Error("Check accepted a supermodular function")
	}
}

func TestCheckRejectsLargeGroundSet(t *testing.T) {
	f := FuncOf(30, func(s Set) float64 { return 0 })
	if err := Check(f, 0); err == nil {
		t.Error("Check should refuse n > 20")
	}
}

func TestBruteForceMin(t *testing.T) {
	w := []float64{3, -1, -4, 2}
	f := FuncOf(4, func(s Set) float64 {
		var v float64
		for _, e := range s.Elems() {
			v += w[e]
		}
		return v
	})
	s, v := BruteForceMin(f)
	if s != SetOf(1, 2) || v != -5 {
		t.Errorf("BruteForceMin = %v, %v; want {1,2}, -5", s, v)
	}
}

func TestBruteForceMinRatio(t *testing.T) {
	// f(S) = 10 + Σ w_i for nonempty S: a fixed fee amortized over members.
	w := []float64{1, 2, 30}
	f := FuncOf(3, func(s Set) float64 {
		if s.Empty() {
			return 0
		}
		v := 10.0
		for _, e := range s.Elems() {
			v += w[e]
		}
		return v
	})
	s, r := BruteForceMinRatio(f)
	// {0,1}: (10+3)/2 = 6.5 beats {0}: 11, {0,1,2}: 43/3.
	if s != SetOf(0, 1) || math.Abs(r-6.5) > 1e-12 {
		t.Errorf("BruteForceMinRatio = %v, %v; want {0,1}, 6.5", s, r)
	}
}
