package pricing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MustTiered is NewTiered that panics on invalid input.
func MustTiered(tiers []Tier) Tariff {
	t, err := NewTiered(tiers)
	if err != nil {
		panic(err)
	}
	return t
}

func TestLinear(t *testing.T) {
	l := Tariff{Kind: Linear, Rate: 0.5}
	tests := []struct {
		energy, want float64
	}{
		{0, 0}, {-3, 0}, {1, 0.5}, {100, 50},
	}
	for _, tt := range tests {
		if got := l.Price(tt.energy); got != tt.want {
			t.Errorf("Linear.Price(%v) = %v, want %v", tt.energy, got, tt.want)
		}
	}
	if l.Name() == "" {
		t.Error("Name empty")
	}
}

func TestPowerLaw(t *testing.T) {
	p := Tariff{Kind: PowerLaw, Coeff: 2, Exponent: 0.5}
	if got := p.Price(0); got != 0 {
		t.Errorf("Price(0) = %v", got)
	}
	if got := p.Price(-1); got != 0 {
		t.Errorf("Price(-1) = %v", got)
	}
	if got := p.Price(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("Price(100) = %v, want 20", got)
	}
}

// The reference prices below are the expressions each kind priced with
// when every kind was a type of its own; Price must reproduce them bit
// for bit.

func referenceLinear(rate, energy float64) float64 {
	if energy <= 0 {
		return 0
	}
	return rate * energy
}

func referencePowerLaw(coeff, exponent, energy float64) float64 {
	if energy <= 0 {
		return 0
	}
	return coeff * math.Pow(energy, exponent)
}

func referenceTiered(tiers []Tier, energy float64) float64 {
	if energy <= 0 {
		return 0
	}
	var (
		cost float64
		prev float64
	)
	for _, tr := range tiers {
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

// TestPriceMatchesReference compares Price with the reference
// expressions, bits included, for every kind over edge energies: zero
// of both signs, negatives, subnormals, 1e±250, the tier bounds and
// their neighbours, the largest float, ±Inf and NaN.
func TestPriceMatchesReference(t *testing.T) {
	energies := []float64{
		0, math.Copysign(0, -1), -1, -math.MaxFloat64, 5e-324, 1e-310, 1e-250,
		1e-3, 1, 42.5, math.Nextafter(100, 0), 100, math.Nextafter(100, 200), 250, 1e6,
		1e250, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	tiers := []Tier{{UpTo: 100, Rate: 2}, {UpTo: 250, Rate: 0.75}, {UpTo: math.Inf(1), Rate: 0.3}}
	tiered := MustTiered(tiers)
	for _, e := range energies {
		type pair struct {
			name      string
			got, want float64
		}
		pairs := []pair{{"tiered", tiered.Price(e), referenceTiered(tiers, e)}}
		for _, rate := range []float64{0, 0.12, -1, 1e300} {
			l := Tariff{Kind: Linear, Rate: rate}
			pairs = append(pairs, pair{l.Name(), l.Price(e), referenceLinear(rate, e)})
		}
		for _, pl := range [][2]float64{{0.33, 0.9}, {2, 1}, {1, 2}, {1e7, 1e-4}, {5e-324, 0.5}} {
			p := Tariff{Kind: PowerLaw, Coeff: pl[0], Exponent: pl[1]}
			pairs = append(pairs, pair{p.Name(), p.Price(e), referencePowerLaw(pl[0], pl[1], e)})
		}
		for _, c := range pairs {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s at E=%v: Price %v, reference %v", c.name, e, c.got, c.want)
			}
		}
	}
}

// TestNoTariff: the zero Kind prices nothing at or below zero, NaN
// above it, and names itself.
func TestNoTariff(t *testing.T) {
	var none Tariff
	if got := none.Price(0); got != 0 {
		t.Errorf("Price(0) = %v, want 0", got)
	}
	if got := none.Price(1); !math.IsNaN(got) {
		t.Errorf("Price(1) = %v, want NaN", got)
	}
	if got := none.Name(); got != "no tariff" {
		t.Errorf("Name() = %q", got)
	}
}

func TestNewTieredValidation(t *testing.T) {
	tests := []struct {
		name  string
		tiers []Tier
		ok    bool
	}{
		{"empty", nil, false},
		{"single unbounded", []Tier{{UpTo: math.Inf(1), Rate: 1}}, true},
		{"two ok", []Tier{{UpTo: 100, Rate: 2}, {UpTo: math.Inf(1), Rate: 1}}, true},
		{"rate increases", []Tier{{UpTo: 100, Rate: 1}, {UpTo: math.Inf(1), Rate: 2}}, false},
		{"bound not increasing", []Tier{{UpTo: 100, Rate: 2}, {UpTo: 100, Rate: 1}}, false},
		{"zero rate", []Tier{{UpTo: math.Inf(1), Rate: 0}}, false},
		{"bounded last", []Tier{{UpTo: 100, Rate: 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewTiered(tt.tiers)
			if (err == nil) != tt.ok {
				t.Errorf("NewTiered err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestTieredPrice(t *testing.T) {
	tr := MustTiered([]Tier{
		{UpTo: 100, Rate: 2},
		{UpTo: 300, Rate: 1},
		{UpTo: math.Inf(1), Rate: 0.5},
	})
	tests := []struct {
		energy, want float64
	}{
		{0, 0},
		{-5, 0},
		{50, 100},
		{100, 200},
		{200, 300}, // 100*2 + 100*1
		{300, 400}, // 100*2 + 200*1
		{500, 500}, // + 200*0.5
	}
	for _, tt := range tests {
		if got := tr.Price(tt.energy); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Tiered.Price(%v) = %v, want %v", tt.energy, got, tt.want)
		}
	}
}

func TestTieredTiersReturnsCopy(t *testing.T) {
	tr := MustTiered([]Tier{{UpTo: math.Inf(1), Rate: 1}})
	got := tr.Tiers()
	got[0].Rate = 99
	if tr.Price(1) != 1 {
		t.Error("mutating Tiers() result affected the tariff")
	}
}

func TestMustTieredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTiered with invalid tiers should panic")
		}
	}()
	MustTiered(nil)
}

func TestValidateAcceptsConcaveTariffs(t *testing.T) {
	tariffs := []Tariff{
		Tariff{Kind: Linear, Rate: 0.3},
		Tariff{Kind: PowerLaw, Coeff: 1.5, Exponent: 0.8},
		Tariff{Kind: PowerLaw, Coeff: 1, Exponent: 1},
		MustTiered([]Tier{{UpTo: 50, Rate: 3}, {UpTo: math.Inf(1), Rate: 1}}),
	}
	for _, tf := range tariffs {
		if err := Validate(tf, 1000, 200); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", tf.Name(), err)
		}
	}
}

// TestValidateRejectsBadTariffs: a convex power law and a decreasing
// linear tariff fail the grid check, as do too few samples.
func TestValidateRejectsBadTariffs(t *testing.T) {
	tests := []struct {
		name string
		tf   Tariff
	}{
		{"convex", Tariff{Kind: PowerLaw, Coeff: 1, Exponent: 2}},
		{"decreasing", Tariff{Kind: Linear, Rate: -1}},
		{"no kind", Tariff{}},
		{"unknown kind", Tariff{Kind: Tiered + 1}},
		{"tiered without tiers", Tariff{Kind: Tiered}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Validate(tt.tf, 1000, 100); err == nil {
				t.Errorf("Validate(%s) = nil, want error", tt.tf.Name())
			}
		})
	}
	if err := Validate(Tariff{Kind: Linear, Rate: 1}, 10, 2); err == nil {
		t.Error("too few samples should error")
	}
}

// Subadditivity is the economic driver of cooperation:
// Price(a+b) <= Price(a)+Price(b) for concave tariffs with Price(0)=0.
func TestConcaveTariffsSubadditiveProperty(t *testing.T) {
	tariffs := []Tariff{
		Tariff{Kind: PowerLaw, Coeff: 2, Exponent: 0.7},
		MustTiered([]Tier{
			{UpTo: 100, Rate: 2}, {UpTo: 500, Rate: 1.2}, {UpTo: math.Inf(1), Rate: 0.6},
		}),
		Tariff{Kind: Linear, Rate: 0.8},
	}
	r := rand.New(rand.NewSource(42))
	for _, tf := range tariffs {
		prop := func(rawA, rawB float64) bool {
			a := math.Abs(math.Mod(rawA, 1e4))
			b := math.Abs(math.Mod(rawB, 1e4))
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			lhs := tf.Price(a + b)
			rhs := tf.Price(a) + tf.Price(b)
			return lhs <= rhs+1e-9*(1+rhs)
		}
		cfg := &quick.Config{MaxCount: 300, Rand: r}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s not subadditive: %v", tf.Name(), err)
		}
	}
}

// TestConcaveByFormAcceptsServiceTariffs keeps the analytic fast path
// live for the tariffs the generators and the service actually carry: a
// regression that silently sends them back to the grid check fails here.
func TestConcaveByFormAcceptsServiceTariffs(t *testing.T) {
	for _, tt := range []struct {
		tariff    Tariff
		maxEnergy float64
	}{
		{Tariff{Kind: Linear, Rate: 0.12}, 1.5e5},
		{Tariff{Kind: PowerLaw, Coeff: 0.33, Exponent: 0.9}, 1.5e5},
		{Tariff{Kind: PowerLaw, Coeff: 0.2, Exponent: 1}, 1e9},
		{MustTiered([]Tier{{UpTo: 100, Rate: 2}, {UpTo: math.Inf(1), Rate: 1}}), 1e4},
	} {
		if !concaveByForm(&tt.tariff, tt.maxEnergy, 64) {
			t.Errorf("%s over %v J: not accepted analytically", tt.tariff.Name(), tt.maxEnergy)
		}
		if err := spotCheck(&tt.tariff, tt.maxEnergy, 64); err != nil {
			t.Errorf("%s over %v J: spot check rejects an analytically accepted tariff: %v", tt.tariff.Name(), tt.maxEnergy, err)
		}
	}
}

// TestConcaveByFormInsideSpotCheck samples the analytic region
// log-uniformly — coefficients and rates across the magnitudes the
// region admits, exponents down to 2^-10, energy ranges across 1e±250 —
// and requires the grid check to accept every tariff the analytic check
// accepts (the byte-mutating fuzzer rarely reaches the region's edges).
func TestConcaveByFormInsideSpotCheck(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*r.Float64()) }
	accepted := 0
	for k := 0; k < 20000; k++ {
		maxEnergy := logU(-250, 250)
		samples := 3 + r.Intn(200)
		if k%200 == 0 {
			samples = formMaxSamples
		}
		var tariff Tariff
		switch k % 3 {
		case 0:
			tariff = Tariff{Kind: Linear, Rate: logU(-320, 300) / maxEnergy}
		case 1:
			exp := 1 - r.Float64()*(1-formMinExponent)
			if k%7 == 0 {
				exp = formMinExponent
			}
			tariff = Tariff{Kind: PowerLaw, Coeff: logU(-320, 300) / math.Pow(maxEnergy, exp), Exponent: exp}
		default:
			r0 := logU(-300, 300) / maxEnergy
			tiers := []Tier{{UpTo: maxEnergy * r.Float64(), Rate: r0}, {UpTo: maxEnergy, Rate: r0 * r.Float64()}, {UpTo: math.Inf(1), Rate: r0 * 1e-3}}
			tr, err := NewTiered(tiers)
			if err != nil {
				continue
			}
			tariff = tr
		}
		if !concaveByForm(&tariff, maxEnergy, samples) {
			continue
		}
		accepted++
		if err := spotCheck(&tariff, maxEnergy, samples); err != nil {
			t.Fatalf("%#v over %v J, %d samples: accepted analytically, spot check says %v", tariff, maxEnergy, samples, err)
		}
	}
	if accepted < 10000 {
		t.Errorf("only %d of 20000 samples landed in the analytic region", accepted)
	}
}
