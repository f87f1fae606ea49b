package pricing

import (
	"math"
	"math/rand"
	"testing"
)

// chordProbes returns demands that stress a chord over [lo, hi]: both
// ends and their float neighbours, points spread evenly and
// log-uniformly inside the range, points above it and points far below.
func chordProbes(r *rand.Rand, lo, hi float64) []float64 {
	var ds []float64
	for _, d := range []float64{lo, hi} {
		ds = append(ds, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
	}
	for k := 0; k < 40; k++ {
		logD := math.Log(lo) + (math.Log(hi)-math.Log(lo))*r.Float64()
		ds = append(ds, lo+(hi-lo)*r.Float64(), math.Exp(logD), hi*(1+r.Float64()*1e3))
	}
	return append(ds, lo*(1-1e-12), lo*1e-6, lo*1e-300, 1e-260, 5e-324)
}

// TestChordBoundsComputedPrice is the chord's contract: over the whole
// analytic region — coefficients and rates across the magnitudes it
// admits, exponents down to 2⁻¹⁰, efficiencies across six decades and
// ranges across 1e±250, some of them one point wide as a one-device
// instance's is and some reaching down to subnormal purchases — Lower never exceeds the computed price of d/eff, at
// the range's ends and their neighbours, inside it, above it and far
// below it.
func TestChordBoundsComputedPrice(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*r.Float64()) }
	built, interior := 0, 0
	for k := 0; k < 6000; k++ {
		eff := 1.0
		if k%2 == 0 {
			eff = logU(-6, 0)
		}
		maxEnergy := logU(-250, 250)
		if k%3 == 0 {
			maxEnergy = logU(-1, 6) // the service's joule range
		}
		hi := maxEnergy * eff
		lo := hi * logU(-30, 0)
		switch k % 5 {
		case 0:
			lo = hi // one device
		case 1:
			lo = hi * (1 - 1e-15*r.Float64()) // ends a few ulps apart
		case 2:
			lo = math.Max(hi*logU(-90, -30), 5e-324) // left ends down to subnormal purchases
		}
		var tariff Tariff
		switch k % 4 {
		case 0:
			tariff = Tariff{Kind: Linear, Rate: logU(-320, 300) / maxEnergy}
		case 1:
			exp := 1 - r.Float64()*(1-formMinExponent)
			switch k % 7 {
			case 0:
				exp = 1
			case 1:
				exp = formMinExponent
			}
			tariff = Tariff{Kind: PowerLaw, Coeff: logU(-320, 300) / math.Pow(maxEnergy, exp), Exponent: exp}
		case 2:
			r0 := logU(-300, 300) / maxEnergy
			tiers := []Tier{{UpTo: maxEnergy * r.Float64(), Rate: r0}, {UpTo: maxEnergy, Rate: r0 * r.Float64()}, {UpTo: math.Inf(1), Rate: r0 * 1e-3}}
			tr, err := NewTiered(tiers)
			if err != nil {
				continue
			}
			tariff = tr
		default:
			tariff = Tariff{Kind: Linear, Rate: 0.01 + r.Float64()}
		}
		c := NewChord(tariff, eff, lo, hi)
		if c == (Chord{}) {
			continue
		}
		built++
		for _, d := range chordProbes(r, lo, hi) {
			lb, p := c.Lower(d), tariff.Price(d/eff)
			if !(lb <= p) {
				t.Fatalf("%#v at eff %v over [%v, %v]: Lower(%v) = %v above the computed price %v", tariff, eff, lo, hi, d, lb, p)
			}
			if d > lo && d < hi && lb > 0 {
				interior++
			}
		}
	}
	if built < 3000 || interior < 100000 {
		t.Errorf("%d of 6000 tariffs got a chord, %d nonzero bounds inside a range; want >= 3000 and >= 100000", built, interior)
	}
}

// TestChordIsTight pins that the chord bounds from just below, not by a
// wide gap: a linear tariff's chord is the tariff itself, so the bound
// sits within the margin of the price on the whole range, and a
// power-law bound meets the price at both ends and stays flat at the top
// price above the range.
func TestChordIsTight(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lin := Tariff{Kind: Linear, Rate: 0.12}
	pow := Tariff{Kind: PowerLaw, Coeff: 0.4, Exponent: 0.9}
	const eff, lo, hi = 0.8, 50.0, 750.0
	lc, pc := NewChord(lin, eff, lo, hi), NewChord(pow, eff, lo, hi)
	for k := 0; k < 1000; k++ {
		d := lo + r.Float64()*(hi-lo)
		if lb, p := lc.Lower(d), lin.Price(d/eff); lb < p*(1-2e-9) {
			t.Fatalf("linear: Lower(%v) = %v, price %v: looser than the margin", d, lb, p)
		}
	}
	for _, d := range []float64{lo, hi} {
		if lb, p := pc.Lower(d), pow.Price(d/eff); lb < p*(1-2e-9) {
			t.Errorf("power law: Lower at the range end %v = %v, price %v", d, lb, p)
		}
	}
	if lb, p := pc.Lower(10*hi), pow.Price(hi/eff); lb < p*(1-2e-9) || lb > p {
		t.Errorf("power law above the range: Lower = %v, want the top price %v", lb, p)
	}
	if lb := pc.Lower(lo / 2); lb != 0 {
		t.Errorf("power law below the range: Lower = %v, want 0", lb)
	}
}

// TestChordZeroWithoutClosedForm: no tariff, a tariff outside its
// kind's analytic region, or a range outside it, gets the zero chord,
// which bounds every price by 0.
func TestChordZeroWithoutClosedForm(t *testing.T) {
	pow := Tariff{Kind: PowerLaw, Coeff: 0.4, Exponent: 0.9}
	for _, tt := range []struct {
		name   string
		tariff Tariff
		lo, hi float64
	}{
		{"no tariff", Tariff{}, 1, 100},
		{"exponent below 2^-10", Tariff{Kind: PowerLaw, Coeff: 1, Exponent: 1e-4}, 1, 100},
		{"tiered without tiers", Tariff{Kind: Tiered}, 1, 100},
		{"empty range", pow, 0, 0},
		{"inverted range", pow, 100, 1},
		{"NaN range", pow, math.NaN(), math.NaN()},
		{"range above the analytic region", pow, 1, 1e260},
		{"too many tiers", MustTiered(manyTiers(formMaxTiers + 1)), 1, 100},
	} {
		c := NewChord(tt.tariff, 1, tt.lo, tt.hi)
		if c != (Chord{}) {
			t.Errorf("%s: got a chord", tt.name)
		}
		for _, d := range []float64{1e-300, 1, 50, 100, 1e9} {
			if lb := c.Lower(d); lb != 0 {
				t.Errorf("%s: zero chord Lower(%v) = %v, want 0", tt.name, d, lb)
			}
		}
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

// TestPowerLawOver: only a power law inside the analytic region over
// [0, maxEnergy] qualifies.
func TestPowerLawOver(t *testing.T) {
	pow := Tariff{Kind: PowerLaw, Coeff: 0.4, Exponent: 0.9}
	for _, tt := range []struct {
		name      string
		tariff    Tariff
		maxEnergy float64
		want      bool
	}{
		{"power law", pow, 100, true},
		{"exponent 2^-10", Tariff{Kind: PowerLaw, Coeff: 1, Exponent: formMinExponent}, 1e6, true},
		{"exponent 1", Tariff{Kind: PowerLaw, Coeff: 1, Exponent: 1}, 1e6, true},
		{"exponent below 2^-10", Tariff{Kind: PowerLaw, Coeff: 1, Exponent: formMinExponent / 2}, 1e6, false},
		{"no tariff", Tariff{}, 100, false},
		{"linear", Tariff{Kind: Linear, Rate: 0.02}, 100, false},
		{"tiered", MustTiered(manyTiers(3)), 100, false},
		{"empty range", pow, 0, false},
		{"NaN range", pow, math.NaN(), false},
		{"range above the analytic region", pow, 1e260, false},
		{"top price above 1e300", Tariff{Kind: PowerLaw, Coeff: 1e299, Exponent: 1}, 100, false},
	} {
		if _, got := PowerLawOver(&tt.tariff, tt.maxEnergy); got != tt.want {
			t.Errorf("%s: PowerLawOver = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// TestCheckedTopIsPrice: the top price a power law's form check
// computes, which PowerLawOver returns and NewChord scales, is bit for bit
// t.Price at the right end, over random coefficients, exponents,
// efficiencies and demands.
func TestCheckedTopIsPrice(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	checked := 0
	for k := 0; k < 20000; k++ {
		p := Tariff{
			Kind:     PowerLaw,
			Coeff:    math.Pow(10, -8+16*r.Float64()),
			Exponent: formMinExponent + (1-formMinExponent)*r.Float64(),
		}
		switch k % 8 {
		case 0:
			p.Exponent = 1
		case 1:
			p.Exponent = formMinExponent
		}
		eff := math.Pow(10, -3*r.Float64())
		hi := math.Pow(10, -260+520*r.Float64())
		want := p.Price(hi / eff)
		top, ok := PowerLawOver(&p, hi/eff)
		if !ok {
			continue
		}
		checked++
		if math.Float64bits(top) != math.Float64bits(want) {
			t.Fatalf("%#v at %v J: checked top %v, Price %v", p, hi/eff, top, want)
		}
		c := NewChord(p, eff, hi/2, hi)
		if pHi := want * chordMargin; pHi >= chordMinPrice && math.Float64bits(c.top) != math.Float64bits(pHi) {
			t.Fatalf("%#v over [%v, %v]/%v: chord top %v, want %v", p, hi/2, hi, eff, c.top, pHi)
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d of 20000 draws inside the analytic region", checked)
	}
}
