// Package gen generates CCS problem instances: seeded random workloads for
// the simulation experiments and the deterministic 5-charger/8-node
// instance behind the emulated field experiment.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/rng"
)

// Layout selects how points are placed in the field.
type Layout int

const (
	// Uniform scatters points uniformly at random.
	Uniform Layout = iota + 1
	// Clustered draws points from Gaussian hotspots.
	Clustered
	// Grid places points on a regular grid (deterministic).
	Grid
	// Perimeter places points evenly along the field boundary
	// (deterministic).
	Perimeter
)

// Params configures the random-instance generator. The zero value is not
// usable; start from Default().
type Params struct {
	// FieldSide is the square deployment field's side, meters.
	FieldSide float64
	// NumDevices and NumChargers size the instance.
	NumDevices  int
	NumChargers int

	// DeviceLayout and ChargerLayout place the populations.
	DeviceLayout  Layout
	ChargerLayout Layout
	// Clusters/ClusterSigma apply to Clustered layouts.
	Clusters     int
	ClusterSigma float64

	// DemandMin/Max bound device energy demands, joules.
	DemandMin, DemandMax float64
	// DemandScale multiplies demands (Fig 5 sweeps it). 0 means 1.
	DemandScale float64

	// MoveRateMin/Max bound device travel costs, $/m.
	MoveRateMin, MoveRateMax float64
	// MoveRateScale multiplies move rates (Fig 6 sweeps it). 0 means 1.
	MoveRateScale float64

	// FeeMin/Max bound charger per-session fees, $.
	FeeMin, FeeMax float64
	// EnergyRateMin/Max bound the small-volume energy price, $/J.
	EnergyRateMin, EnergyRateMax float64
	// TariffExponent is the power-law volume-discount exponent in (0,1];
	// 1 gives linear tariffs.
	TariffExponent float64
	// EfficiencyMin/Max bound charger WPT efficiencies, (0,1].
	EfficiencyMin, EfficiencyMax float64

	// MobileFrac, when positive, marks each charger mobile with this
	// probability (heterogeneous fleet): mobile chargers drive a
	// round-trip tour through their members instead of devices traveling
	// to them. Zero (the default) generates the paper's stationary fleet
	// byte-identically — mobility draws come from their own derived
	// stream, so enabling them never shifts the base draws.
	MobileFrac float64
	// ChargerMoveRateMin/Max bound a mobile charger's travel cost, $/m.
	ChargerMoveRateMin, ChargerMoveRateMax float64
	// ChargerSpeedMin/Max bound a mobile charger's cruise speed, m/s.
	ChargerSpeedMin, ChargerSpeedMax float64
	// ChargerBudgetMin/Max bound a mobile charger's per-session travel
	// budget, meters; both zero leaves budgets unlimited.
	ChargerBudgetMin, ChargerBudgetMax float64
}

// Default returns the calibrated simulation parameters (see DESIGN.md:
// constants are chosen so the headline cost shape of the paper holds).
func Default() Params {
	return Params{
		FieldSide:      1000,
		NumDevices:     10,
		NumChargers:    4,
		DeviceLayout:   Uniform,
		ChargerLayout:  Uniform,
		Clusters:       3,
		ClusterSigma:   80,
		DemandMin:      150,
		DemandMax:      450,
		MoveRateMin:    0.008,
		MoveRateMax:    0.020,
		FeeMin:         3,
		FeeMax:         13,
		EnergyRateMin:  0.08,
		EnergyRateMax:  0.20,
		TariffExponent: 0.90,
		EfficiencyMin:  0.60,
		EfficiencyMax:  0.95,
	}
}

// LargeField returns parameters for a production-scale instance: devices
// drawn from Gaussian hotspots (sensor deployments cluster around the
// phenomena they monitor), chargers on a regular grid (a planned service
// deployment), and a field side growing with sqrt(devices) so device
// density — and with it the per-area coalition size that spatial
// sharding banks on — stays at the calibrated Default() level however
// large the instance gets. The cluster count scales with the population
// and each hotspot's sigma with the field, so large fields get many
// small hotspots rather than a few huge ones.
func LargeField(devices, chargers int) Params {
	p := Default()
	// Default() calibrates 10 devices on a 1 km side; hold that density.
	p.FieldSide = 1000 * math.Sqrt(float64(devices)/float64(p.NumDevices))
	p.NumDevices = devices
	p.NumChargers = chargers
	p.DeviceLayout = Clustered
	p.ChargerLayout = Grid
	p.Clusters = devices/400 + 3
	p.ClusterSigma = 0.02 * p.FieldSide
	return p
}

// Validate checks the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.FieldSide <= 0:
		return fmt.Errorf("gen: field side %v <= 0", p.FieldSide)
	case p.NumDevices < 1:
		return fmt.Errorf("gen: %d devices", p.NumDevices)
	case p.NumChargers < 1:
		return fmt.Errorf("gen: %d chargers", p.NumChargers)
	case p.DemandMin <= 0 || p.DemandMax < p.DemandMin:
		return fmt.Errorf("gen: demand range [%v,%v]", p.DemandMin, p.DemandMax)
	case p.MoveRateMin < 0 || p.MoveRateMax < p.MoveRateMin:
		return fmt.Errorf("gen: move rate range [%v,%v]", p.MoveRateMin, p.MoveRateMax)
	case p.FeeMin < 0 || p.FeeMax < p.FeeMin:
		return fmt.Errorf("gen: fee range [%v,%v]", p.FeeMin, p.FeeMax)
	case p.EnergyRateMin <= 0 || p.EnergyRateMax < p.EnergyRateMin:
		return fmt.Errorf("gen: energy rate range [%v,%v]", p.EnergyRateMin, p.EnergyRateMax)
	case p.TariffExponent <= 0 || p.TariffExponent > 1:
		return fmt.Errorf("gen: tariff exponent %v outside (0,1]", p.TariffExponent)
	case p.EfficiencyMin <= 0 || p.EfficiencyMax > 1 || p.EfficiencyMax < p.EfficiencyMin:
		return fmt.Errorf("gen: efficiency range [%v,%v]", p.EfficiencyMin, p.EfficiencyMax)
	case p.MobileFrac < 0 || p.MobileFrac > 1 || math.IsNaN(p.MobileFrac):
		return fmt.Errorf("gen: mobile fraction %v outside [0,1]", p.MobileFrac)
	}
	if p.MobileFrac > 0 {
		switch {
		case p.ChargerMoveRateMin < 0 || p.ChargerMoveRateMax < p.ChargerMoveRateMin:
			return fmt.Errorf("gen: charger move rate range [%v,%v]", p.ChargerMoveRateMin, p.ChargerMoveRateMax)
		case p.ChargerSpeedMin < 0 || p.ChargerSpeedMax < p.ChargerSpeedMin:
			return fmt.Errorf("gen: charger speed range [%v,%v]", p.ChargerSpeedMin, p.ChargerSpeedMax)
		case p.ChargerBudgetMin < 0 || p.ChargerBudgetMax < p.ChargerBudgetMin:
			return fmt.Errorf("gen: charger travel budget range [%v,%v]", p.ChargerBudgetMin, p.ChargerBudgetMax)
		}
	}
	return nil
}

// Instance generates a seeded random instance. The same (seed, params)
// pair always yields the same instance.
func Instance(seed int64, p Params) (*core.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	demandScale := p.DemandScale
	if demandScale == 0 {
		demandScale = 1
	}
	moveScale := p.MoveRateScale
	if moveScale == 0 {
		moveScale = 1
	}

	field := geom.Square(p.FieldSide)
	devR := rng.Derive(seed, "devices")
	chR := rng.Derive(seed, "chargers")

	devPts, err := place(devR, field, p.NumDevices, p.DeviceLayout, p)
	if err != nil {
		return nil, fmt.Errorf("device layout: %w", err)
	}
	chPts, err := place(chR, field, p.NumChargers, p.ChargerLayout, p)
	if err != nil {
		return nil, fmt.Errorf("charger layout: %w", err)
	}

	in := &core.Instance{Field: field}
	for i := 0; i < p.NumDevices; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       fmt.Sprintf("dev-%02d", i),
			Pos:      devPts[i],
			Demand:   rng.Uniform(devR, p.DemandMin, p.DemandMax) * demandScale,
			MoveRate: rng.Uniform(devR, p.MoveRateMin, p.MoveRateMax) * moveScale,
		})
	}
	for j := 0; j < p.NumChargers; j++ {
		rate := rng.Uniform(chR, p.EnergyRateMin, p.EnergyRateMax)
		tariff := pricing.Tariff{Kind: pricing.Linear, Rate: rate}
		if p.TariffExponent != 1 {
			// Match the small-volume price: coeff · E0^exp = rate · E0
			// at the reference volume E0 = DemandMin, so singleton
			// sessions pay roughly the nominal rate.
			e0 := p.DemandMin
			coeff := rate * e0 / math.Pow(e0, p.TariffExponent)
			tariff = pricing.Tariff{Kind: pricing.PowerLaw, Coeff: coeff, Exponent: p.TariffExponent}
		}
		in.Chargers = append(in.Chargers, core.Charger{
			ID:         fmt.Sprintf("chg-%02d", j),
			Pos:        chPts[j],
			Fee:        rng.Uniform(chR, p.FeeMin, p.FeeMax),
			Tariff:     tariff,
			Efficiency: rng.Uniform(chR, p.EfficiencyMin, p.EfficiencyMax),
		})
	}
	if p.MobileFrac > 0 {
		// A separate derived stream keeps the device/charger base draws
		// byte-identical whether mobility is on or off, and a fixed draw
		// count per charger keeps the stream aligned regardless of which
		// chargers are selected.
		mobR := rng.Derive(seed, "mobility")
		for j := range in.Chargers {
			selected := mobR.Float64() < p.MobileFrac
			moveRate := rng.Uniform(mobR, p.ChargerMoveRateMin, p.ChargerMoveRateMax)
			speed := rng.Uniform(mobR, p.ChargerSpeedMin, p.ChargerSpeedMax)
			budget := rng.Uniform(mobR, p.ChargerBudgetMin, p.ChargerBudgetMax)
			if !selected {
				continue
			}
			c := &in.Chargers[j]
			c.Mobile = true
			c.MoveRate = moveRate
			c.Speed = speed
			if p.ChargerBudgetMax > 0 {
				c.TravelBudget = budget
			}
		}
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid instance: %w", err)
	}
	return in, nil
}

// HeterogeneousFleet returns Default() parameters with devices/chargers
// populations and a mobile fraction of the fleet: a mobile charger is a
// service van hauling an energy store, so its per-meter rate is several
// times a single sensor's (roughly the cost of moving the whole session's
// energy at once) at a few m/s, with per-session travel budgets generous
// enough that every device stays singleton-reachable (budgets at least
// twice the field diagonal) while long multi-member tours still hit the
// cap. The pricing makes tour length a first-order term: planners that
// ignore it pay for the detours they didn't see.
func HeterogeneousFleet(devices, chargers int, mobileFrac float64) Params {
	p := Default()
	p.NumDevices = devices
	p.NumChargers = chargers
	p.MobileFrac = mobileFrac
	p.ChargerMoveRateMin = 0.060
	p.ChargerMoveRateMax = 0.150
	p.ChargerSpeedMin = 2
	p.ChargerSpeedMax = 6
	p.ChargerBudgetMin = 3000
	p.ChargerBudgetMax = 4500
	return p
}

func place(r *rand.Rand, field geom.Rect, n int, layout Layout, p Params) ([]geom.Point, error) {
	switch layout {
	case Uniform:
		return geom.UniformPoints(r, field, n), nil
	case Clustered:
		return geom.ClusteredPoints(r, field, n, geom.ClusterSpec{
			Clusters: p.Clusters,
			Sigma:    p.ClusterSigma,
		}), nil
	case Grid:
		return geom.GridPoints(field, n), nil
	case Perimeter:
		return geom.PerimeterPoints(field, n), nil
	default:
		return nil, fmt.Errorf("unknown layout %d", layout)
	}
}
