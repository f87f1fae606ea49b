package pricing

import (
	"math"
	"testing"
)

// FuzzTieredPrice checks the invariants of any constructible tiered
// tariff on any energy: Price(0)=0, nonnegative, nondecreasing and
// subadditive.
func FuzzTieredPrice(f *testing.F) {
	f.Add(100.0, 2.0, 1.0, 50.0, 75.0)
	f.Add(10.0, 0.5, 0.25, 5.0, 500.0)
	f.Fuzz(func(t *testing.T, bound, r1, r2, e1, e2 float64) {
		if !(bound > 0) || !(r1 > 0) || !(r2 > 0) || bound > 1e12 || r1 > 1e6 || r2 > 1e6 {
			return
		}
		if r2 > r1 {
			r1, r2 = r2, r1 // concavity needs nonincreasing rates
		}
		tr, err := NewTiered([]Tier{
			{UpTo: bound, Rate: r1},
			{UpTo: math.Inf(1), Rate: r2},
		})
		if err != nil {
			return
		}
		clamp := func(e float64) float64 {
			if math.IsNaN(e) || e < 0 {
				return 0
			}
			return math.Min(e, 1e12)
		}
		a, b := clamp(e1), clamp(e2)
		pa, pb, pab := tr.Price(a), tr.Price(b), tr.Price(a+b)
		if tr.Price(0) != 0 {
			t.Fatal("Price(0) != 0")
		}
		if pa < 0 || pb < 0 {
			t.Fatal("negative price")
		}
		if a <= b && pa > pb+1e-9*(1+pb) {
			t.Fatalf("decreasing: P(%v)=%v > P(%v)=%v", a, pa, b, pb)
		}
		if pab > pa+pb+1e-9*(1+pa+pb) {
			t.Fatalf("superadditive: P(%v+%v)=%v > %v", a, b, pab, pa+pb)
		}
	})
}

// FuzzTariffValidate pins Validate's analytic fast path to the grid spot
// check it skips: for any tariff, energy range and sample count, the
// analytic-then-spot verdict must equal the spot check alone, error text
// included. kind picks the tariff: 0 Linear with rate a, 1 PowerLaw
// with coefficient a and exponent b, 2 a three-tier Tiered with bounds
// a, d and rates b, c, c/2.
func FuzzTariffValidate(f *testing.F) {
	f.Add(uint8(0), 0.15, 0.0, 0.0, 0.0, 1.5e5, 64)
	f.Add(uint8(0), -0.5, 0.0, 0.0, 0.0, 100.0, 64)
	f.Add(uint8(0), 1e300, 0.0, 0.0, 0.0, 1e10, 64)
	f.Add(uint8(1), 0.33, 0.9, 0.0, 0.0, 1.5e5, 64)
	f.Add(uint8(1), 1.0, 2.0, 0.0, 0.0, 100.0, 64)
	f.Add(uint8(1), 1.0, math.Nextafter(1, 2), 0.0, 0.0, 1e6, 64)
	f.Add(uint8(1), 1.0, math.Nextafter(1, 0), 0.0, 0.0, 1e6, 64)
	f.Add(uint8(1), 1e7, 1e-300, 0.0, 0.0, 1e6, 64)
	f.Add(uint8(1), 1e7, 1e-12, 0.0, 0.0, 1e6, 64)
	f.Add(uint8(1), 1e7, 1.0/1024, 0.0, 0.0, 1e250, 1<<16)
	f.Add(uint8(1), 1e300, 0.5, 0.0, 0.0, 1e10, 64)
	f.Add(uint8(1), 5e-324, 0.5, 0.0, 0.0, 100.0, 64)
	f.Add(uint8(1), 1.0, 0.001, 0.0, 0.0, 5e-324, 64)
	f.Add(uint8(1), 1.0, 0.5, 0.0, 0.0, math.Inf(1), 64)
	f.Add(uint8(1), 1.0, 0.5, 0.0, 0.0, 100.0, 2)
	f.Add(uint8(2), 100.0, 2.0, 1.0, 1e3, 1e4, 64)
	f.Add(uint8(2), math.NaN(), 2.0, 1.0, 5.0, 10.0, 64)
	f.Add(uint8(2), -5.0, 2.0, 1.0, 5.0, 1e4, 64)
	f.Add(uint8(2), 1e3, 1e300, 1e299, 1e4, 1e6, 64)
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, d, maxEnergy float64, samples int) {
		if samples > 1<<17 {
			return // keep the grid small; the analytic cap is 1<<16
		}
		var tariff Tariff
		switch kind % 3 {
		case 0:
			tariff = Tariff{Kind: Linear, Rate: a}
		case 1:
			tariff = Tariff{Kind: PowerLaw, Coeff: a, Exponent: b}
		default:
			tr, err := NewTiered([]Tier{{UpTo: a, Rate: b}, {UpTo: d, Rate: c}, {UpTo: math.Inf(1), Rate: c / 2}})
			if err != nil {
				return
			}
			tariff = tr
		}
		got, want := Validate(tariff, maxEnergy, samples), spotCheck(&tariff, maxEnergy, samples)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Validate(%s, %v, %d) = %v, spot check alone = %v", tariff.Name(), maxEnergy, samples, got, want)
		}
	})
}
