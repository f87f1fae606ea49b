package gen

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// FieldExperimentParams describes the emulated testbed matching the
// paper's field experiment: 5 commodity wireless chargers and 8
// rechargeable sensor nodes in a small indoor/outdoor court. The fee is
// deliberately heavy relative to per-node energy cost — operating a
// commodity charger session (setup, labor, equipment amortization)
// dominates at this scale, which is why the field-experiment cooperation
// gain (≈43%) exceeds the large-scale simulation gain (≈27%).
type FieldExperimentParams struct {
	// CourtSide is the testbed area side, meters.
	CourtSide float64
	// NodeDemandJ is the nominal per-node recharge demand, joules.
	NodeDemandJ float64
	// NodeMoveRate is the node travel cost, $/m.
	NodeMoveRate float64
	// SessionFee is the per-session service fee, $.
	SessionFee float64
	// EnergyRate is the small-volume energy price, $/J.
	EnergyRate float64
	// TariffExponent is the volume-discount exponent.
	TariffExponent float64
	// Efficiency is the nominal WPT efficiency at the service point.
	Efficiency float64
}

// DefaultFieldParams returns the calibrated testbed parameters.
func DefaultFieldParams() FieldExperimentParams {
	return FieldExperimentParams{
		CourtSide:      60,
		NodeDemandJ:    120,
		NodeMoveRate:   0.05,
		SessionFee:     6,
		EnergyRate:     0.06,
		TariffExponent: 0.85,
		Efficiency:     0.75,
	}
}

// FieldExperiment builds the deterministic 5-charger/8-node base instance.
// Chargers sit on a cross layout (center plus four midpoints); nodes
// occupy fixed positions spread across the court with mildly varying
// demands, mirroring a real deployment plan. Measurement noise is added
// by the testbed emulation, not here.
func FieldExperiment(p FieldExperimentParams) (*core.Instance, error) {
	side := p.CourtSide
	field := geom.Square(side)
	tariff := pricing.Tariff{
		Kind:     pricing.PowerLaw,
		Coeff:    p.EnergyRate * p.NodeDemandJ / math.Pow(p.NodeDemandJ, p.TariffExponent),
		Exponent: p.TariffExponent,
	}

	chargerAt := func(id string, x, y float64) core.Charger {
		return core.Charger{
			ID:         id,
			Pos:        geom.Pt(x*side, y*side),
			Fee:        p.SessionFee,
			Tariff:     tariff,
			Efficiency: p.Efficiency,
		}
	}
	// Relative node positions and demand multipliers: two loose clusters
	// plus stragglers, the usual shape of a small deployment.
	nodeSpecs := []struct {
		x, y, demandMul float64
	}{
		{0.10, 0.15, 1.00},
		{0.18, 0.25, 0.85},
		{0.25, 0.12, 1.20},
		{0.80, 0.78, 0.95},
		{0.88, 0.70, 1.10},
		{0.75, 0.88, 0.90},
		{0.15, 0.85, 1.05},
		{0.90, 0.18, 1.15},
	}
	in := &core.Instance{
		Field: field,
		Chargers: []core.Charger{
			chargerAt("chg-A", 0.50, 0.50),
			chargerAt("chg-B", 0.50, 0.08),
			chargerAt("chg-C", 0.50, 0.92),
			chargerAt("chg-D", 0.08, 0.50),
			chargerAt("chg-E", 0.92, 0.50),
		},
	}
	for i, ns := range nodeSpecs {
		in.Devices = append(in.Devices, core.Device{
			ID:       "node-" + string(rune('1'+i)),
			Pos:      geom.Pt(ns.x*side, ns.y*side),
			Demand:   p.NodeDemandJ * ns.demandMul,
			MoveRate: p.NodeMoveRate,
		})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
