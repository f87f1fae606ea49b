package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// table2 reproduces the field experiment: 5 chargers and 8 rechargeable
// sensor nodes emulated as TCP agents with measurement noise; the paper
// reports CCSA beating the noncooperation algorithm by 42.9% in measured
// comprehensive cost.
func table2() Experiment {
	return Experiment{
		ID:    "table2",
		Title: "Field experiment (emulated testbed): 5 chargers, 8 nodes",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			trials := cfg.reps(20, 3)
			scheds := []core.Scheduler{
				core.NoncoopScheduler{},
				core.CCSGAScheduler{},
				core.CCSAScheduler{},
				core.OptimalScheduler{},
			}
			// Every (trial, scheduler) cell spins up its own loopback
			// testbed (coordinator + agents on a fresh port), so cells
			// run concurrently; samples assemble in (trial, scheduler)
			// order, matching the serial harness exactly.
			cells := make([]*testbed.TrialResult, trials*len(scheds))
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				trial := idx / len(scheds)
				s := scheds[idx%len(scheds)]
				seed := rng.DeriveSeed(cfg.Seed, "table2", fmt.Sprintf("trial-%d", trial))
				res, err := testbed.RunTrial(testbed.Trial{Scheduler: s, Seed: seed})
				if err != nil {
					return fmt.Errorf("trial %d %s: %w", trial, s.Name(), err)
				}
				cells[idx] = res
				return nil
			})
			if err != nil {
				return nil, err
			}
			measured := make(map[string][]float64)
			sessions := make(map[string][]float64)
			for trial := 0; trial < trials; trial++ {
				for si, s := range scheds {
					res := cells[trial*len(scheds)+si]
					measured[s.Name()] = append(measured[s.Name()], res.MeasuredCost)
					sessions[s.Name()] = append(sessions[s.Name()], float64(res.Sessions))
				}
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Table 2 — measured comprehensive cost ($) on the testbed, %d trials", trials),
				Columns: []string{"algorithm", "measured cost ± CI95", "sessions", "vs NONCOOP"},
			}
			nonMean := stats.Mean(measured["NONCOOP"])
			var bars []plot.Bar
			for _, s := range scheds {
				name := s.Name()
				tbl.AddRow(name,
					meanCell(measured[name]),
					fmt.Sprintf("%.1f", stats.Mean(sessions[name])),
					fmt.Sprintf("%.3f×", stats.Mean(measured[name])/nonMean))
				bars = append(bars, plot.Bar{Label: name, Value: stats.Mean(measured[name])})
			}
			chart := plot.BarChart("measured cost on the testbed ($)", bars, 48)
			rNon, err := stats.RatioOfMeans(measured["CCSA"], measured["NONCOOP"])
			if err != nil {
				return nil, err
			}
			return &Result{
				ID:    "table2",
				Table: tbl,
				Chart: chart,
				Notes: []string{
					fmt.Sprintf("CCSA measured cost is %s lower than NONCOOP on the testbed (paper: 42.9%%)", Pct(1-rNon)),
				},
			}, nil
		},
	}
}
