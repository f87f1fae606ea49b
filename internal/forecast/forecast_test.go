package forecast

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewHolt(alpha, 0.5); err == nil {
			t.Errorf("NewHolt(alpha=%v) accepted", alpha)
		}
		if _, err := NewHolt(0.5, alpha); err == nil {
			t.Errorf("NewHolt(beta=%v) accepted", alpha)
		}
	}
}

func TestHoltExactOnLinearSeries(t *testing.T) {
	h, err := NewHolt(0.8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// y = 100 - 3t: Holt must learn the slope exactly on noiseless data.
	for tme := 0; tme < 15; tme++ {
		h.Observe(100 - 3*float64(tme))
	}
	want := 100 - 3*15.0
	if got := h.Forecast(1); math.Abs(got-want) > 1e-6 {
		t.Errorf("Forecast(1) = %v, want %v", got, want)
	}
	want3 := 100 - 3*17.0
	if got := h.Forecast(3); math.Abs(got-want3) > 1e-6 {
		t.Errorf("Forecast(3) = %v, want %v", got, want3)
	}
	if got := h.Forecast(-1); math.Abs(got-h.Forecast(0)) > 1e-12 {
		t.Errorf("negative steps should clamp: %v", got)
	}
}
