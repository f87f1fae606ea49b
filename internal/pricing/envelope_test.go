package pricing

import (
	"math"
	"math/rand"
	"testing"
)

// envelopeProbes returns energies that stress an envelope over
// [0, maxEnergy]: the grid points themselves, their float neighbours,
// random points inside the grid, points above it and points far below.
func envelopeProbes(r *rand.Rand, maxEnergy float64) []float64 {
	var es []float64
	for k := 1; k <= EnvelopePoints; k++ {
		e := maxEnergy * float64(k) / EnvelopePoints
		es = append(es, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	for k := 0; k < 40; k++ {
		es = append(es, maxEnergy*r.Float64(), maxEnergy*(1+r.Float64()*1e3))
	}
	return append(es, maxEnergy*1e-6, maxEnergy*1e-300, 1e-260, 5e-324)
}

// TestEnvelopeBoundsComputedPrice is the envelope's contract: over the
// whole analytic region — coefficients and rates across the magnitudes
// it admits, exponents down to 2^-10, grids across 1e±250 — Lower never
// exceeds the tariff's computed price, at the grid points, between them,
// above the grid and far below it.
func TestEnvelopeBoundsComputedPrice(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*r.Float64()) }
	built := 0
	for k := 0; k < 6000; k++ {
		maxEnergy := logU(-250, 250)
		if k%3 == 0 {
			maxEnergy = logU(-1, 6) // the service's joule range
		}
		var tariff Tariff
		switch k % 4 {
		case 0:
			tariff = Linear{Rate: logU(-320, 300) / maxEnergy}
		case 1:
			exp := 1 - r.Float64()*(1-formMinExponent)
			if k%7 == 0 {
				exp = 1
			}
			tariff = PowerLaw{Coeff: logU(-320, 300) / math.Pow(maxEnergy, exp), Exponent: exp}
		case 2:
			r0 := logU(-300, 300) / maxEnergy
			tiers := []Tier{{UpTo: maxEnergy * r.Float64(), Rate: r0}, {UpTo: maxEnergy, Rate: r0 * r.Float64()}, {UpTo: math.Inf(1), Rate: r0 * 1e-3}}
			tr, err := NewTiered(tiers)
			if err != nil {
				continue
			}
			tariff = tr
		default:
			tariff = Linear{Rate: 0.01 + r.Float64()}
		}
		v := NewEnvelope(tariff, maxEnergy)
		if v.perJoule == 0 {
			continue
		}
		built++
		for _, e := range envelopeProbes(r, maxEnergy) {
			if lb, p := v.Lower(e), tariff.Price(e); !(lb <= p) {
				t.Fatalf("%#v over %v J: Lower(%v) = %v above the computed price %v", tariff, maxEnergy, e, lb, p)
			}
		}
	}
	if built < 3000 {
		t.Errorf("only %d of 6000 tariffs got an envelope", built)
	}
}

// TestEnvelopeIsTight pins that the envelope bounds from just below, not
// by a wide gap: a linear tariff's chords are the tariff itself, so the
// bound sits within the margin of the price on the whole grid, and a
// power-law bound meets the price at the grid points.
func TestEnvelopeIsTight(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lin := Linear{Rate: 0.12}
	pow := PowerLaw{Coeff: 0.4, Exponent: 0.9}
	const maxEnergy = 750.0
	lv, pv := NewEnvelope(lin, maxEnergy), NewEnvelope(pow, maxEnergy)
	for k := 0; k < 1000; k++ {
		e := 1 + r.Float64()*(maxEnergy-1)
		if lb, p := lv.Lower(e), lin.Price(e); lb < p*(1-2e-9) {
			t.Fatalf("linear: Lower(%v) = %v, price %v: looser than the margin", e, lb, p)
		}
	}
	for k := 1; k <= EnvelopePoints; k++ {
		e := maxEnergy * float64(k) / EnvelopePoints
		if lb, p := pv.Lower(e), pow.Price(e); lb < p*(1-2e-9) {
			t.Errorf("power law: Lower at grid point %d = %v, price %v", k, lb, p)
		}
	}
	if lb, p := pv.Lower(10*maxEnergy), pow.Price(maxEnergy); lb < p*(1-2e-9) || lb > p {
		t.Errorf("power law above the grid: Lower = %v, want the last grid price %v", lb, p)
	}
}

// meter is an Unwrapper decorator that prices exactly as the tariff it
// wraps.
type meter struct{ Tariff }

func (m meter) Unwrap() Tariff { return m.Tariff }

// TestEnvelopeZeroWithoutClosedForm: a tariff with no closed form, or a
// grid outside the analytic region, gets the zero envelope, which bounds
// every price by 0; a decorator that unwraps to a closed form gets the
// closed form's envelope.
func TestEnvelopeZeroWithoutClosedForm(t *testing.T) {
	pow := PowerLaw{Coeff: 0.4, Exponent: 0.9}
	for _, tt := range []struct {
		name      string
		tariff    Tariff
		maxEnergy float64
	}{
		{"hand-rolled tariff", convexTariff{}, 100},
		{"decorator without Unwrap", struct{ Tariff }{pow}, 100},
		{"empty grid", pow, 0},
		{"NaN grid", pow, math.NaN()},
		{"grid above the analytic region", pow, 1e260},
		{"too many tiers", MustTiered(manyTiers(formMaxTiers + 1)), 100},
	} {
		v := NewEnvelope(tt.tariff, tt.maxEnergy)
		if v != (Envelope{}) {
			t.Errorf("%s: got an envelope", tt.name)
		}
		for _, e := range []float64{1e-300, 1, 50, 100, 1e9} {
			if lb := v.Lower(e); lb != 0 {
				t.Errorf("%s: zero envelope Lower(%v) = %v, want 0", tt.name, e, lb)
			}
		}
	}
	if got, want := NewEnvelope(meter{meter{pow}}, 100), NewEnvelope(pow, 100); got != want || got == (Envelope{}) {
		t.Errorf("decorated power law: envelope %+v, want the undecorated %+v", got, want)
	}
}

// manyTiers returns n tiers with halving rates, the last one unbounded.
func manyTiers(n int) []Tier {
	tiers := make([]Tier, n)
	rate := 1.0
	for k := range tiers {
		tiers[k] = Tier{UpTo: float64(k + 1), Rate: rate}
		rate *= 0.99
	}
	tiers[n-1].UpTo = math.Inf(1)
	return tiers
}
