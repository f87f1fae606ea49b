package rng

import (
	"math/rand"
	"testing"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "fig3", "rep-0")
	b := Derive(42, "fig3", "rep-0")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical labels must give identical streams")
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	tests := []struct {
		name   string
		l1, l2 []string
	}{
		{"different rep", []string{"fig3", "rep-0"}, []string{"fig3", "rep-1"}},
		{"different experiment", []string{"fig3"}, []string{"fig4"}},
		{"label boundary", []string{"ab", "c"}, []string{"a", "bc"}},
		{"prefix", []string{"a"}, []string{"a", ""}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if DeriveSeed(1, tt.l1...) == DeriveSeed(1, tt.l2...) {
				t.Errorf("seeds collide for %v vs %v", tt.l1, tt.l2)
			}
		})
	}
}

func TestDeriveSeedDependsOnBase(t *testing.T) {
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("different base seeds must give different derived seeds")
	}
}

func TestUniformRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := Uniform(r, -3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}
