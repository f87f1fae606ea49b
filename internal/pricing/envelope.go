package pricing

// EnvelopePoints is the number of equal intervals on a lower envelope's
// energy grid: NewEnvelope prices its tariff EnvelopePoints times.
const EnvelopePoints = 16

const (
	// envelopeMargin scales every grid price down by 1e-9 relative, four
	// orders of magnitude above the rounding of Price and of the
	// interpolation (see NewEnvelope).
	envelopeMargin = 1 - 1e-9
	// envelopeMinPrice is the smallest bound Lower returns; anything
	// below it is returned as 0, so a nonzero bound and the prices it
	// bounds are normal floats carrying only relative error.
	envelopeMinPrice = 1e-290
)

// Envelope is a piecewise-linear lower bound on a tariff's computed
// prices, valid at every energy: Lower(e) <= t.Price(e) for every e > 0.
// It lets a caller rank options by a cheap bound and price the tariff
// only where the bound cannot rule an option out. The zero value bounds
// every price by 0.
type Envelope struct {
	// perJoule is grid intervals per joule, EnvelopePoints/maxEnergy;
	// zero for the zero envelope.
	perJoule float64
	// lb[k] is the price at grid point k scaled by envelopeMargin;
	// lb[0] = 0 = Price(0).
	lb [EnvelopePoints + 1]float64
}

// Unwrapper is implemented by a tariff that decorates another one — a
// meter or a logger, say — and prices exactly as the tariff Unwrap
// returns. Validate and NewEnvelope look through it to the closed form
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
	return ok && concaveByForm(p, maxEnergy, EnvelopePoints)
}

// NewEnvelope prices t on EnvelopePoints equal steps up to maxEnergy
// and returns the envelope through those points. Only the closed forms
// concaveByForm accepts over [0, maxEnergy] get one (looking through
// Unwrapper decorators); any other tariff gets the zero envelope.
//
// Why Lower never exceeds a computed price:
//
//   - A concave φ with φ(0) = 0 lies on or above every chord between two
//     of its points, so linear interpolation between grid points is a
//     lower bound on the true φ; above the grid, φ is nondecreasing and
//     the last grid price bounds it.
//   - The computed prices differ from φ by a small relative error:
//     Linear by one rounding, Tiered by at most (tiers+2) roundings of
//     its nonnegative terms (at most 1024 tiers, so < 2e-13), PowerLaw
//     by math.Pow's relative error, about 1e-13 for any normal energy
//     (it grows with |log E|, which stays below 745). The grid lookup
//     and interpolation add a few more roundings, each relative to a
//     grid price at most twice φ(e) (φ(2e) <= 2φ(e) for concave φ with
//     φ(0) = 0). The 1e-9 margin dominates the sum.
//   - Relative errors need normal floats. Lower returns 0 below energy
//     1e-250 or for a bound below 1e-290. Any bound it does return
//     means φ(e) >= 1e-290, so the margin is worth at least 1e-299,
//     while a subnormal price or grid price is off by under 1e-320.
func NewEnvelope(t Tariff, maxEnergy float64) Envelope {
	if !concaveByForm(unwrap(t), maxEnergy, EnvelopePoints) {
		return Envelope{}
	}
	v := Envelope{perJoule: EnvelopePoints / maxEnergy}
	for k := 1; k <= EnvelopePoints; k++ {
		v.lb[k] = t.Price(maxEnergy*float64(k)/EnvelopePoints) * envelopeMargin
	}
	return v
}

// Lower returns a lower bound on the tariff's computed Price(e), e > 0,
// in O(1): index arithmetic on the grid, then one interpolation.
func (v *Envelope) Lower(e float64) float64 {
	x := e * v.perJoule
	lb := v.lb[EnvelopePoints]
	if x < EnvelopePoints {
		k := int(x)
		lb = v.lb[k] + (x-float64(k))*(v.lb[k+1]-v.lb[k])
	}
	if lb < envelopeMinPrice || e < formMinEnergy {
		return 0
	}
	return lb
}
