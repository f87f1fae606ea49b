package pricing

import "math"

const (
	// chordMargin scales both chord prices down by 1e-9 relative, four
	// orders of magnitude above the rounding of Price and of Lower (see
	// NewChord).
	chordMargin = 1 - 1e-9
	// chordMinPrice is the smallest bound Lower returns; anything below
	// it is returned as 0, so a nonzero bound and the prices it bounds
	// are normal floats carrying only relative error.
	chordMinPrice = 1e-290
	// minNormal is the smallest positive normal float64.
	minNormal = 0x1p-1022
)

// Chord is a lower bound, built from two prices, on what a tariff
// charges for storing d joules at transfer efficiency eff — on the
// computed t.Price(d/eff) — valid for every d > 0. Between the ends lo
// and hi of a demand range it is the straight line through the prices
// there; above hi it is flat at the price at hi, and below lo it is 0.
// It is evaluated in stored-energy units, with no division, so a caller
// can rank options by it and price the tariff only where the bound
// cannot rule an option out. The zero value bounds every price by 0.
type Chord struct {
	// lo and hi are the demand range; lo == hi when it is one point.
	lo, hi float64
	// a and b are the margin-scaled prices at lo and hi, each divided by
	// hi − lo, so Lower(d) = a·(hi − d) + b·(d − lo) inside the range;
	// either is 0 where that quotient is not a normal float.
	a, b float64
	// top is the margin-scaled price at hi, 0 when below chordMinPrice.
	top float64
}

// Unwrapper is implemented by a tariff that decorates another one — a
// meter or a logger, say — and prices exactly as the tariff Unwrap
// returns. Validate and NewChord look through it to the closed form
// below.
type Unwrapper interface {
	Unwrap() Tariff
}

// unwrap returns the innermost tariff below t's Unwrapper decorators.
func unwrap(t Tariff) Tariff {
	for {
		u, ok := t.(Unwrapper)
		if !ok {
			return t
		}
		t = u.Unwrap()
	}
}

// PowerLawOver reports whether t prices as a PowerLaw — itself, or
// through Unwrapper decorators — inside concaveByForm's analytic region
// over [0, maxEnergy]: exponent in [2⁻¹⁰, 1], coefficient ≥ 0, maxEnergy
// in [1e-250, 1e250] and a top price ≤ 1e300. There every price up to
// maxEnergy is finite and, where normal, carries only math.Pow's ~1e-13
// relative error.
func PowerLawOver(t Tariff, maxEnergy float64) bool {
	p, ok := unwrap(t).(PowerLaw)
	return ok && concaveByForm(p, maxEnergy, 3)
}

// NewChord prices t at lo/eff and hi/eff — once when lo == hi — and
// returns the chord through those prices for demands in [lo, hi]. Only
// the closed forms concaveByForm accepts over [0, hi/eff] get one
// (looking through Unwrapper decorators); any other tariff, or an empty
// range, gets the zero chord.
//
// Why Lower never exceeds the computed price of d/eff:
//
//   - d ↦ φ(d/eff) is concave, nondecreasing and 0 at 0, so it lies on
//     or above its chord between lo and hi, on or above its value at hi
//     beyond hi, and on or above 0 below lo.
//   - The computed prices differ from φ by a small relative error:
//     Linear by one rounding, Tiered by at most (tiers+2) roundings of
//     its nonnegative terms (at most 1024 tiers, so < 2e-13), PowerLaw
//     by math.Pow's relative error, about 1e-13 for any normal energy.
//     Rounding d/eff first costs one more relative rounding, since a
//     concave φ with φ(0) = 0 has φ(λx) within λ of φ(x).
//   - Inside the range Lower is a·(hi − d) + b·(d − lo): a convex
//     combination of the two end prices whose every operand is
//     nonnegative, so no cancellation can magnify an error, and each
//     factor carries a few roundings relative to itself. The 1e-9
//     margin dominates the sum of all of these.
//   - Relative errors need normal floats. A range whose left end buys
//     under 1e-250 keeps only its flat top (concaveByForm puts hi/eff
//     at or above 1e-250), a quotient a or b that is not normal is
//     dropped (which only lowers the bound), and Lower
//     returns 0 for a bound below 1e-290. Any bound it does return means
//     φ(d/eff) ≥ 1e-290, so the margin is worth at least 1e-299, while a
//     subnormal term is off by under 1e-320.
func NewChord(t Tariff, eff, lo, hi float64) Chord {
	if !(lo <= hi) || !concaveByForm(unwrap(t), hi/eff, 3) {
		return Chord{}
	}
	// Every demand from lo on must buy at least formMinEnergy, where the
	// price carries only relative error (rounding d/eff is monotone);
	// otherwise only the flat top is kept.
	if !(lo/eff >= formMinEnergy) {
		lo = hi
	}
	pHi := t.Price(hi/eff) * chordMargin
	c := Chord{lo: lo, hi: hi}
	if pHi >= chordMinPrice {
		c.top = pHi
	}
	if w := hi - lo; w > 0 {
		c.a = normalOrZero(t.Price(lo/eff) * chordMargin / w)
		c.b = normalOrZero(pHi / w)
	}
	return c
}

// normalOrZero returns x when it is a normal float, else 0.
func normalOrZero(x float64) float64 {
	if x >= minNormal && x <= math.MaxFloat64 {
		return x
	}
	return 0
}

// Lower returns a lower bound on the tariff's computed Price(d/eff),
// d > 0, in O(1): two comparisons, then at most one interpolation.
func (c *Chord) Lower(d float64) float64 {
	if d >= c.hi {
		return c.top
	}
	if !(d >= c.lo) {
		return 0
	}
	if lb := c.a*(c.hi-d) + c.b*(d-c.lo); lb >= chordMinPrice {
		return lb
	}
	return 0
}
