package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/mwrsn"
	"repro/internal/par"
	"repro/internal/rng"
)

// fig10 is the supporting network-lifetime experiment: a mobile WRSN
// simulated over two weeks, with periodic cooperative charging rounds
// under each scheduler. It reports the long-run monetary cost of keeping
// the network alive and the node deaths each policy admits.
func fig10() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "Network lifetime: 14-day MWRSN simulation under each scheduler",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			days := 14.0
			nodes := 40
			if cfg.Quick {
				days = 1
				nodes = 15
			}

			// Chargers for the lifetime run: a seeded random placement
			// with the calibrated tariff defaults.
			genParams := gen.Default()
			genParams.NumDevices = 1 // placeholder; devices come from the simulator
			genParams.NumChargers = 8
			inst, err := gen.Instance(rng.DeriveSeed(cfg.Seed, "fig10", "chargers"), genParams)
			if err != nil {
				return nil, err
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Fig 10 — %d nodes, %d chargers, %.0f simulated days", nodes, len(inst.Chargers), days),
				Columns: []string{"scheduler", "monetary cost ($)", "rounds", "sessions", "deaths", "alive frac", "energy (kJ)"},
			}
			var nonCost, ccsaCost float64
			runs := []struct {
				label     string
				sched     core.Scheduler
				proactive bool
			}{
				{"NONCOOP", core.NoncoopScheduler{}, false},
				{"CCSGA", core.CCSGAScheduler{}, false},
				{"CCSA", core.CCSAScheduler{}, false},
				{"CCSA+proactive", core.CCSAScheduler{}, true},
			}
			// The four lifetime simulations are independent (each builds
			// its own node population from the same derived seed), so
			// they run concurrently; rows render in the fixed run order.
			metrics := make([]*mwrsn.Metrics, len(runs))
			err = par.Map(context.Background(), cfg.workerCount(), len(runs), func(_ context.Context, i int) error {
				run := runs[i]
				m, err := mwrsn.Run(mwrsn.Config{
					Field:    geom.Square(1000),
					NumNodes: nodes,
					Chargers: inst.Chargers,
					Node: mwrsn.NodeParams{
						BatteryCapacity: 3000,
						InitialLevel:    2200,
						Consumption: energy.ConsumptionModel{
							IdleW: 0.002, SenseW: 0.03, SenseDuty: 0.3, RadioW: 0.08, RadioDuty: 0.1,
						},
						SpeedMps:       1.2,
						MoveRate:       0.01,
						MoveEnergyPerM: 0.2,
					},
					PauseSeconds:    300,
					TickSeconds:     60,
					RoundSeconds:    6 * 3600,
					ChargeThreshold: 0.45,
					Scheduler:       run.sched,
					DurationSeconds: days * 24 * 3600,
					Seed:            rng.DeriveSeed(cfg.Seed, "fig10", "run"),
					Proactive:       run.proactive,
				})
				if err != nil {
					return fmt.Errorf("fig10 %s: %w", run.label, err)
				}
				metrics[i] = m
				return nil
			})
			if err != nil {
				return nil, err
			}
			for i, run := range runs {
				m := metrics[i]
				tbl.AddRow(run.label,
					F(m.MonetaryCost),
					fmt.Sprintf("%d", m.Rounds),
					fmt.Sprintf("%d", m.Sessions),
					fmt.Sprintf("%d", m.Deaths),
					fmt.Sprintf("%.3f", m.MeanAliveFraction),
					F(m.EnergyDelivered/1000))
				switch run.label {
				case "NONCOOP":
					nonCost = m.MonetaryCost
				case "CCSA":
					ccsaCost = m.MonetaryCost
				}
			}
			note := "cooperative scheduling sustains the same network at materially lower long-run cost"
			if nonCost > 0 {
				note = fmt.Sprintf("CCSA keeps the network alive at %s lower long-run cost than NONCOOP", Pct(1-ccsaCost/nonCost))
			}
			return &Result{ID: "fig10", Table: tbl, Notes: []string{note}}, nil
		},
	}
}
