package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !approx(got, tt.want, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got := Variance(xs); !approx(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !approx(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("empty sample should return ErrEmpty")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q > 1 should error")
	}
	single, err := Quantile([]float64{42}, 0.99)
	if err != nil || single != 42 {
		t.Errorf("single-element quantile = %v, %v", single, err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median odd = %v, want 5", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median empty = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	wantCI := 1.96 * s.StdDev / math.Sqrt(5)
	if !approx(s.CI95, wantCI, 1e-12) {
		t.Errorf("CI95 = %v, want %v", s.CI95, wantCI)
	}
	if s.String() == "" {
		t.Error("String should be nonempty")
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Summarize(nil) should return ErrEmpty")
	}
}

func TestRatioOfMeans(t *testing.T) {
	got, err := RatioOfMeans([]float64{2, 4}, []float64{4, 8})
	if err != nil || !approx(got, 0.5, 1e-12) {
		t.Errorf("RatioOfMeans = %v, %v", got, err)
	}
	if _, err := RatioOfMeans(nil, []float64{1}); err == nil {
		t.Error("empty numerator should error")
	}
	if _, err := RatioOfMeans([]float64{1}, []float64{0}); err == nil {
		t.Error("zero denominator mean should error")
	}
}

func TestGini(t *testing.T) {
	got, err := Gini([]float64{5, 5, 5, 5})
	if err != nil || math.Abs(got) > 1e-12 {
		t.Errorf("equal Gini = %v, %v; want 0", got, err)
	}
	// One holder of everything among n: Gini = (n-1)/n.
	got, err = Gini([]float64{0, 0, 0, 100})
	if err != nil || !approx(got, 0.75, 1e-12) {
		t.Errorf("concentrated Gini = %v, %v; want 0.75", got, err)
	}
	// Standard hand example.
	got, err = Gini([]float64{1, 2, 3, 4})
	if err != nil || !approx(got, 0.25, 1e-12) {
		t.Errorf("Gini(1..4) = %v, want 0.25", got)
	}
	if _, err := Gini(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty Gini should return ErrEmpty")
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative values should error")
	}
	if _, err := Gini([]float64{0, 0}); err == nil {
		t.Error("zero-sum sample should error")
	}
	// Order invariance.
	a, _ := Gini([]float64{3, 1, 2})
	b, _ := Gini([]float64{1, 2, 3})
	if !approx(a, b, 1e-12) {
		t.Error("Gini not order-invariant")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
