package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -7}
	x, err := new(Workspace).Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -7 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  => x=2, y=1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := new(Workspace).Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := new(Workspace).Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := new(Workspace).Solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := new(Workspace).Solve(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := new(Workspace).Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := new(Workspace).Solve([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := new(Workspace).Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Error("Solve mutated its inputs")
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		a := make([][]float64, n)
		xTrue := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.NormFloat64()
			}
			a[i][i] += float64(n) // diagonal dominance => well-conditioned
			xTrue[i] = r.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := 0; j < n; j++ {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		x, err := new(Workspace).Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2(x); got != 14 {
		t.Errorf("Norm2 = %v, want 14", got)
	}
	AXPY(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 || y[1] != 4.5 || y[2] != 6 {
		t.Errorf("Scale = %v", y)
	}
}
