package submodular

import (
	"math/rand"
	"testing"
)

// countingFunc wraps a Function and counts underlying evaluations and the
// distinct sets seen.
type countingFunc struct {
	f        Function
	calls    int
	distinct map[Set]bool
}

func newCounting(f Function) *countingFunc {
	return &countingFunc{f: f, distinct: make(map[Set]bool)}
}

func (c *countingFunc) N() int { return c.f.N() }

func (c *countingFunc) Eval(s Set) float64 {
	c.calls++
	c.distinct[s] = true
	return c.f.Eval(s)
}

func TestMemoCachesAndCounts(t *testing.T) {
	base := newCounting(FuncOf(4, func(s Set) float64 { return float64(s.Card()) }))
	m := NewMemo(base)
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
	for round := 0; round < 3; round++ {
		for _, s := range []Set{EmptySet, SetOf(0), SetOf(1, 2), FullSet(4)} {
			if got, want := m.Eval(s), float64(s.Card()); got != want {
				t.Fatalf("Eval(%v) = %v, want %v", s, got, want)
			}
		}
	}
	if base.calls != 4 || len(m.vals) != 4 {
		t.Errorf("underlying calls = %d, cached sets = %d, want 4 and 4", base.calls, len(m.vals))
	}
}

func TestNewMemoDoesNotStack(t *testing.T) {
	m := NewMemo(FuncOf(2, func(s Set) float64 { return 0 }))
	if NewMemo(m) != m {
		t.Error("NewMemo(memo) should return the same memo, not wrap it again")
	}
}

// TestMinimizeRatioMemoDropsEvalCalls is the memo-cache accounting test:
// the optimized MinimizeRatio must (a) evaluate each distinct set exactly
// once at the base layer — the definition of a shared memo — and (b) make
// strictly fewer underlying Eval calls than the unmemoized reference run,
// by an integer factor on real Dinkelbach workloads.
func TestMinimizeRatioMemoDropsEvalCalls(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for trial := 0; trial < 10; trial++ {
		n := 8 + r.Intn(17) // 8..24
		seedFixture := ccsaShaped(r, n)

		opt := newCounting(seedFixture)
		if _, _, err := MinimizeRatio(opt, Options{}); err != nil {
			t.Fatal(err)
		}
		ref := newCounting(seedFixture)
		if _, _, err := referenceMinimizeRatio(ref, Options{}); err != nil {
			t.Fatal(err)
		}

		if opt.calls != len(opt.distinct) {
			t.Errorf("trial %d (n=%d): optimized path evaluated %d times over %d distinct sets; memo should dedup to one call per set",
				trial, n, opt.calls, len(opt.distinct))
		}
		if opt.calls >= ref.calls {
			t.Errorf("trial %d (n=%d): optimized Eval calls %d not below reference %d",
				trial, n, opt.calls, ref.calls)
		}
		t.Logf("n=%d: Eval calls %d (reference %d, %.1f× fewer)",
			n, opt.calls, ref.calls, float64(ref.calls)/float64(opt.calls))
	}
}
