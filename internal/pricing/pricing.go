// Package pricing implements the energy tariffs charged by wireless
// charging service providers.
//
// A tariff maps the total energy purchased in one charging session to a
// price. Tariffs must be nondecreasing and concave (volume discounts):
// concavity is what makes a coalition's session cost submodular in its
// member set, the property the CCSA algorithm exploits, and what makes
// proportional cost shares cross-monotonic, the property that keeps
// coalitions stable.
package pricing

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Kind names which closed form a Tariff is. The zero Kind is no tariff.
type Kind uint8

// The closed forms a Tariff can take.
const (
	// Linear is the flat tariff price = Rate × energy ($/J). It is the
	// degenerate concave tariff: with it, cooperation saves only the
	// per-session fee, not energy cost.
	Linear Kind = iota + 1
	// PowerLaw is the tariff price = Coeff × energy^Exponent with
	// Exponent ∈ (0, 1], a smooth volume discount.
	PowerLaw
	// Tiered is a piecewise-linear tariff with decreasing marginal rates
	// — the familiar "first 100 J at full price, next 400 J discounted"
	// bulk plan. Only NewTiered builds one, after checking concavity.
	Tiered
)

// Tariff prices the total energy (joules) purchased in one session. It
// is one of the closed forms Kind names, held by value; the fields a
// kind does not use are ignored.
//
// A tariff must be nondecreasing and concave on [0, ∞); every kind
// prices energy <= 0 at 0. Validate spot-checks both properties.
type Tariff struct {
	Kind     Kind
	Rate     float64 // Linear: $/J
	Coeff    float64 // PowerLaw: $ at 1 J
	Exponent float64 // PowerLaw: in (0, 1]
	tiers    []Tier  // Tiered: set by NewTiered
}

// Price returns the cost ($) of purchasing energy joules in one session;
// the zero Kind prices positive energy at NaN.
func (t *Tariff) Price(energy float64) float64 {
	if energy <= 0 {
		return 0
	}
	switch t.Kind {
	case Linear:
		return t.Rate * energy
	case PowerLaw:
		return t.Coeff * math.Pow(energy, t.Exponent)
	case Tiered:
		var (
			cost float64
			prev float64
		)
		for _, tr := range t.tiers {
			hi := math.Min(energy, tr.UpTo)
			if hi > prev {
				cost += (hi - prev) * tr.Rate
			}
			if energy <= tr.UpTo {
				break
			}
			prev = tr.UpTo
		}
		return cost
	}
	return math.NaN()
}

// Name returns a short human-readable description for tables.
func (t *Tariff) Name() string {
	switch t.Kind {
	case Linear:
		return fmt.Sprintf("linear(%.4g$/J)", t.Rate)
	case PowerLaw:
		return fmt.Sprintf("powerlaw(%.4g·E^%.2f)", t.Coeff, t.Exponent)
	case Tiered:
		return fmt.Sprintf("tiered(%d tiers)", len(t.tiers))
	}
	return "no tariff"
}

// Tier is one segment of a Tiered tariff: energy above UpTo of the previous
// tier (or 0) and up to UpTo of this tier is billed at Rate $/J.
type Tier struct {
	UpTo float64 // upper energy bound of this tier; +Inf for the last
	Rate float64 // $/J within the tier
}

// NewTiered builds a Tiered tariff. Tiers must have strictly increasing
// UpTo bounds, strictly positive rates in nonincreasing order (concavity),
// and the last tier must be unbounded (UpTo = +Inf).
func NewTiered(tiers []Tier) (Tariff, error) {
	if len(tiers) == 0 {
		return Tariff{}, errors.New("pricing: no tiers")
	}
	for i, tr := range tiers {
		if tr.Rate <= 0 {
			return Tariff{}, fmt.Errorf("pricing: tier %d rate %v <= 0", i, tr.Rate)
		}
		if i > 0 {
			if tr.UpTo <= tiers[i-1].UpTo {
				return Tariff{}, fmt.Errorf("pricing: tier %d bound %v not increasing", i, tr.UpTo)
			}
			if tr.Rate > tiers[i-1].Rate {
				return Tariff{}, fmt.Errorf("pricing: tier %d rate %v increases (not concave)", i, tr.Rate)
			}
		}
	}
	if last := tiers[len(tiers)-1]; !math.IsInf(last.UpTo, 1) {
		return Tariff{}, errors.New("pricing: last tier must be unbounded (UpTo=+Inf)")
	}
	return Tariff{Kind: Tiered, tiers: slices.Clone(tiers)}, nil
}

// Tiers returns a copy of a Tiered tariff's tier table.
func (t *Tariff) Tiers() []Tier { return slices.Clone(t.tiers) }

// Validate spot-checks that tariff is nondecreasing and concave on a
// grid of sample energies up to maxEnergy. It returns nil if all checks
// pass. It is used by tests and by instance validation to catch
// tariffs that would silently break CCSA's guarantees.
//
// A tariff of no known kind, or a Tiered one with no tiers (which only a
// literal, not NewTiered, can build), is rejected outright. A tariff
// inside its kind's analytic region is then accepted analytically (see
// concaveByForm); only a tariff that check does not accept is priced on
// the grid. The analytic region lies inside the region the grid check
// accepts, so the verdict and any error are exactly the grid check's.
func Validate(tariff Tariff, maxEnergy float64, samples int) error {
	switch {
	case tariff.Kind == 0 || tariff.Kind > Tiered:
		return fmt.Errorf("pricing: unknown tariff kind %d", tariff.Kind)
	case tariff.Kind == Tiered && len(tariff.tiers) == 0:
		return errors.New("pricing: tiered tariff has no tiers")
	}
	if samples >= 3 && concaveByForm(&tariff, maxEnergy, samples) {
		return nil
	}
	return spotCheck(&tariff, maxEnergy, samples)
}

// The bounds of concaveByForm's analytic region; its comment says why
// each one is needed. math.Pow's relative error grows with |log E| and
// stays near 1e-13 for energies within 1e±250.
const (
	formMinEnergy   = 1e-250
	formMaxEnergy   = 1e250
	formMaxPrice    = 1e300
	formMinExponent = 1.0 / 1024
	formMaxSamples  = 1 << 16
	formMaxTiers    = 1024
)

// concaveByForm reports whether tariff lies in its kind's region that
// provably passes spotCheck(tariff, maxEnergy, samples) with samples >= 3:
//
//   - Linear with a rate >= 0 and a top price Rate·maxEnergy <= 1e300:
//     IEEE multiplication rounds monotonically, so the grid prices never
//     decrease, and the midpoint gap is zero up to a few ulps of the
//     price, far inside the check's 1e-9·(1+|f|) slack.
//   - PowerLaw with Coeff >= 0, Exponent in [2^-10, 1] and a top price
//     <= 1e300: the function is concave and increasing, so the true
//     midpoint gap is >= 0 and the true step between grid points is at
//     least Exponent/samples >= 2^-26 of the price — five orders of
//     magnitude above math.Pow's ~1e-13 relative error — so neither the
//     monotone nor the concavity test can trip on rounding. A price
//     that underflows is below 1e-300, far below the check's absolute
//     1e-9 slack.
//   - Tiered with 1 to 1024 tiers, finite positive rates (NewTiered
//     keeps them nonincreasing), finite bounds >= 0 and a top price
//     rate₀·maxEnergy <= 1e300: the price is the integral of a
//     nonincreasing step function from 0, so it is concave; the computed
//     price is monotone exactly (each tier's term is a monotone rounded
//     expression, and adding a nonnegative term never lowers a sum), and
//     its relative error of at most (tiers+2) ulps is far inside the
//     concavity slack.
//
// Every bound is checked with comparisons that fail on NaN, and
// maxEnergy must lie in [1e-250, 1e250] so the grid points are normal
// floats carrying their relative error. Outside this region Validate
// falls back to the grid check, so the region only has to be a subset.
func concaveByForm(t *Tariff, maxEnergy float64, samples int) bool {
	if !formEnergy(maxEnergy) || samples > formMaxSamples {
		return false
	}
	switch t.Kind {
	case Linear:
		return t.Rate >= 0 && t.Rate*maxEnergy <= formMaxPrice
	case PowerLaw:
		_, ok := PowerLawOver(t, maxEnergy)
		return ok
	case Tiered:
		if n := len(t.tiers); n == 0 || n > formMaxTiers || !(t.tiers[0].Rate*maxEnergy <= formMaxPrice) {
			return false
		}
		for _, tr := range t.tiers {
			if !(tr.Rate > 0) || !(tr.UpTo >= 0) {
				return false
			}
		}
		return true
	}
	return false
}

// formEnergy reports whether maxEnergy lies in concaveByForm's region.
func formEnergy(maxEnergy float64) bool {
	return maxEnergy >= formMinEnergy && maxEnergy <= formMaxEnergy
}

// PowerLawOver reports whether t is a PowerLaw inside concaveByForm's
// analytic region over [0, maxEnergy]: exponent in [2⁻¹⁰, 1],
// coefficient ≥ 0, maxEnergy in [1e-250, 1e250] and a top price ≤
// 1e300. There every price up to maxEnergy is finite and, where normal,
// carries only math.Pow's ~1e-13 relative error. When it does, top is
// bit for bit t.Price(maxEnergy), so callers need not price the right
// end again.
func PowerLawOver(t *Tariff, maxEnergy float64) (top float64, ok bool) {
	if t.Kind != PowerLaw || !formEnergy(maxEnergy) || !(t.Exponent >= formMinExponent && t.Exponent <= 1 && t.Coeff >= 0) {
		return 0, false
	}
	// Price's own expression (maxEnergy > 0 here).
	top = t.Coeff * math.Pow(maxEnergy, t.Exponent)
	return top, top <= formMaxPrice
}

// spotCheck prices tariff on an even grid of samples energies up to
// maxEnergy and checks it is nondecreasing and midpoint-concave, each
// within a 1e-9 slack. Every kind prices 0 at 0, so that end needs no
// check.
func spotCheck(tariff *Tariff, maxEnergy float64, samples int) error {
	if samples < 3 {
		return errors.New("pricing: need at least 3 samples")
	}
	grid := make([]float64, samples)
	for i := range grid {
		grid[i] = maxEnergy * float64(i+1) / float64(samples)
	}
	sort.Float64s(grid)
	// Each grid price is evaluated exactly once; the monotonicity and
	// concavity checks below read the cached values (tariffs are pure, and
	// Price can be expensive — e.g. math.Pow for power-law tariffs).
	price := make([]float64, samples)
	for i, e := range grid {
		price[i] = tariff.Price(e)
	}
	const eps = 1e-9
	prev := 0.0
	for i := range grid {
		p := price[i]
		if p < prev-eps {
			return fmt.Errorf("pricing: %s decreasing at E=%v", tariff.Name(), grid[i])
		}
		prev = p
		if i >= 2 {
			// Midpoint concavity on consecutive triples:
			// f((a+c)/2) >= (f(a)+f(c))/2 must hold, and grid points are
			// evenly spaced so grid[i-1] is the midpoint of grid[i-2],grid[i].
			fa, fb, fc := price[i-2], price[i-1], price[i]
			if fb < (fa+fc)/2-eps*(1+math.Abs(fb)) {
				return fmt.Errorf("pricing: %s not concave near E=%v", tariff.Name(), grid[i-1])
			}
		}
	}
	return nil
}
