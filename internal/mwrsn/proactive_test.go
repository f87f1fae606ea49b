package mwrsn

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// steadyDrainConfig drains ~36% of the battery between rounds with a
// threshold of 25%: a node can clear the reactive threshold at one round
// and still die before the next — the failure mode the proactive policy
// exists to prevent.
func steadyDrainConfig(proactive bool) Config {
	return Config{
		Field:    geom.Square(200),
		NumNodes: 6,
		Chargers: []core.Charger{
			{ID: "c", Pos: geom.Pt(100, 100), Fee: 3,
				Tariff: pricing.Tariff{Kind: pricing.Linear, Rate: 0.02}, Efficiency: 1},
		},
		Node: NodeParams{
			BatteryCapacity: 1000,
			InitialLevel:    1000,
			// 0.1 W steady drain = 360 J per hour-long round interval.
			Consumption:    energy.ConsumptionModel{IdleW: 0.1},
			SpeedMps:       0.5,
			MoveRate:       0.01,
			MoveEnergyPerM: 0, // keep the drain exactly predictable
		},
		PauseSeconds:    1e12, // stationary nodes: deterministic drain
		TickSeconds:     60,
		RoundSeconds:    3600,
		ChargeThreshold: 0.25,
		Scheduler:       core.CCSAScheduler{},
		DurationSeconds: 8 * 3600,
		Seed:            5,
		Proactive:       proactive,
	}
}

func TestReactiveThresholdAdmitsDeaths(t *testing.T) {
	m, err := Run(steadyDrainConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	// Rounds see 64% then 28% — both above 25% — and the battery dies at
	// ~2.8 rounds in. All nodes share the trajectory.
	if m.Deaths == 0 {
		t.Fatal("expected reactive deaths in the steady-drain scenario (calibration drifted)")
	}
}

func TestProactivePolicyPreventsDeaths(t *testing.T) {
	m, err := Run(steadyDrainConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Deaths != 0 {
		t.Errorf("proactive policy admitted %d deaths", m.Deaths)
	}
	if m.Rounds == 0 || m.EnergyDelivered == 0 {
		t.Error("proactive policy never charged")
	}
}

func TestProactiveCostsNoMoreThanDeaths(t *testing.T) {
	// Proactive charging spends money where the reactive policy loses
	// nodes; with everything else equal the proactive run must deliver
	// strictly more energy.
	reactive, err := Run(steadyDrainConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	proactive, err := Run(steadyDrainConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if proactive.EnergyDelivered <= reactive.EnergyDelivered {
		t.Errorf("proactive delivered %v J <= reactive %v J",
			proactive.EnergyDelivered, reactive.EnergyDelivered)
	}
	if proactive.MeanAliveFraction <= reactive.MeanAliveFraction {
		t.Errorf("proactive alive fraction %v <= reactive %v",
			proactive.MeanAliveFraction, reactive.MeanAliveFraction)
	}
}
