package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/online"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ext3 studies online arrivals: batching policies trade waiting time for
// coalition size; costs are normalized by the clairvoyant single-batch
// schedule. (policy, rep) cells run concurrently — each regenerates its
// own arrival trace from the rep seed, and the charger set is only read.
func ext3() Experiment {
	return Experiment{
		ID:    "ext3-online",
		Title: "Extension: online arrivals — batching policy vs cost and waiting",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			if cfg.WarmStart {
				return ext3Warm(cfg)
			}
			reps := cfg.reps(20, 3)
			policies := []online.BatchPolicy{
				online.Immediate{},
				online.Periodic{Interval: 300},
				online.Periodic{Interval: 900},
				online.Threshold{K: 5},
				online.Threshold{K: 10},
			}
			if cfg.Quick {
				policies = policies[:3]
			}
			chargers := extOnlineChargers(cfg)

			type cell struct {
				ratio, rounds, wait float64
				misses, uncovered   int
			}
			cells := make([]cell, len(policies)*reps)
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				p := policies[idx/reps]
				rep := idx % reps
				seed := rng.DeriveSeed(cfg.Seed, "ext3", fmt.Sprintf("rep-%d", rep))
				arrivals, err := online.GenerateArrivals(seed, 40, 60, 600, 1200,
					geom.Square(1000), 150, 450, 0.008, 0.02)
				if err != nil {
					return err
				}
				oc := online.Config{
					Chargers:       chargers,
					Arrivals:       arrivals,
					Policy:         p,
					Scheduler:      core.CCSAScheduler{},
					Field:          geom.Square(1000),
					Obs:            cfg.Obs,
					CoverageK:      cfg.CoverageK,
					CoverageRadius: cfg.CoverageRadius,
				}
				off, err := online.OfflineClairvoyant(oc)
				if err != nil {
					return err
				}
				m, err := online.Run(oc)
				if err != nil {
					return err
				}
				cells[idx] = cell{
					ratio:     m.TotalCost / off,
					rounds:    float64(m.Rounds),
					wait:      m.MeanWait,
					misses:    m.DeadlineMisses,
					uncovered: m.CoverageViolations,
				}
				return nil
			})
			if err != nil {
				return nil, err
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Ext 3 — 40 arrivals (mean 60 s apart, 10–20 min patience), %d reps", reps),
				Columns: []string{"policy", "cost / clairvoyant", "rounds", "mean wait (s)", "misses"},
			}
			var immRatio, bestRatio float64
			for pi, p := range policies {
				var ratios, rounds, waits []float64
				misses := 0
				for rep := 0; rep < reps; rep++ {
					c := cells[pi*reps+rep]
					ratios = append(ratios, c.ratio)
					rounds = append(rounds, c.rounds)
					waits = append(waits, c.wait)
					misses += c.misses
				}
				meanRatio := stats.Mean(ratios)
				tbl.AddRow(p.Name(),
					fmt.Sprintf("%.3f", meanRatio),
					fmt.Sprintf("%.1f", stats.Mean(rounds)),
					fmt.Sprintf("%.0f", stats.Mean(waits)),
					fmt.Sprintf("%d", misses))
				if pi == 0 {
					immRatio = meanRatio
					bestRatio = meanRatio
				} else if meanRatio < bestRatio {
					bestRatio = meanRatio
				}
			}
			notes := []string{
				fmt.Sprintf("batching closes most of the online gap: immediate service pays %.2f× the clairvoyant cost, the best batching policy %.2f×, at the price of bounded waiting",
					immRatio, bestRatio),
			}
			// The coverage note only exists when the k-coverage layer is
			// on, keeping the default output byte-identical.
			if cfg.CoverageK > 0 {
				uncovered := 0
				for _, c := range cells {
					uncovered += c.uncovered
				}
				notes = append(notes, fmt.Sprintf("%d rounds across all policies left a device outside %d sessions' %.0f m reach (small online batches rarely blanket the field)",
					uncovered, cfg.CoverageK, cfg.CoverageRadius))
			}
			return &Result{ID: "ext3-online", Table: tbl, Notes: notes}, nil
		},
	}
}

// ext3Warm is the online experiment's warm-start study (ccsim
// -warm-start): a fixed population of sensors returns for recharging
// every period, so consecutive rounds re-solve nearly the same instance.
// CCSGA runs cold and warm on identical traces; the table reports the
// coalition-formation pass and switch reduction, the warm/cold cost
// ratio, and whether every warm round verified Nash-stable.
func ext3Warm(cfg Config) (*Result, error) {
	reps := cfg.reps(10, 2)
	visits := 50
	if cfg.Quick {
		visits = 12
	}
	policies := []online.BatchPolicy{
		online.Periodic{Interval: 600},
		online.Periodic{Interval: 300},
		online.Threshold{K: 12},
	}
	if cfg.Quick {
		policies = policies[:2]
	}
	chargers := extOnlineChargers(cfg)

	type cell struct {
		passesCold, passesWarm     float64
		switchesCold, switchesWarm float64
		costRatio                  float64
		stable                     bool
	}
	cells := make([]cell, len(policies)*reps)
	err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
		p := policies[idx/reps]
		rep := idx % reps
		seed := rng.DeriveSeed(cfg.Seed, "ext3-warm", fmt.Sprintf("rep-%d", rep))
		arrivals, err := online.GenerateRecurringArrivals(seed, 24, visits, 600, 120, 300, 600,
			geom.Square(1000), 150, 450, 0.005, 0.02, 25)
		if err != nil {
			return err
		}
		oc := online.Config{
			Chargers:  chargers,
			Arrivals:  arrivals,
			Policy:    p,
			Scheduler: core.CCSGAScheduler{},
			Field:     geom.Square(1000),
			Obs:       cfg.Obs,
		}
		cold, err := online.Run(oc)
		if err != nil {
			return err
		}
		oc.WarmStart = true
		warm, err := online.Run(oc)
		if err != nil {
			return err
		}
		stable := len(warm.RoundStats) > 0
		for _, rs := range warm.RoundStats {
			stable = stable && rs.NashStable
		}
		cells[idx] = cell{
			passesCold:   float64(cold.TotalPasses),
			passesWarm:   float64(warm.TotalPasses),
			switchesCold: float64(cold.TotalSwitches),
			switchesWarm: float64(warm.TotalSwitches),
			costRatio:    warm.TotalCost / cold.TotalCost,
			stable:       stable,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Ext 3 (warm start) — 24 recurring devices × %d visits, CCSGA cold vs warm, %d reps",
			visits, reps),
		Columns: []string{"policy", "passes cold", "passes warm", "pass ratio",
			"switches cold", "switches warm", "warm/cold cost", "all rounds stable"},
	}
	var totalCold, totalWarm float64
	allStable := true
	for pi, p := range policies {
		var pc, pw, sc, sw, cr []float64
		stable := true
		for rep := 0; rep < reps; rep++ {
			c := cells[pi*reps+rep]
			pc = append(pc, c.passesCold)
			pw = append(pw, c.passesWarm)
			sc = append(sc, c.switchesCold)
			sw = append(sw, c.switchesWarm)
			cr = append(cr, c.costRatio)
			stable = stable && c.stable
		}
		totalCold += stats.Mean(pc)
		totalWarm += stats.Mean(pw)
		allStable = allStable && stable
		tbl.AddRow(p.Name(),
			fmt.Sprintf("%.1f", stats.Mean(pc)),
			fmt.Sprintf("%.1f", stats.Mean(pw)),
			fmt.Sprintf("%.2fx", stats.Mean(pc)/stats.Mean(pw)),
			fmt.Sprintf("%.1f", stats.Mean(sc)),
			fmt.Sprintf("%.1f", stats.Mean(sw)),
			fmt.Sprintf("%.4f", stats.Mean(cr)),
			fmt.Sprintf("%t", stable))
	}
	return &Result{ID: "ext3-online", Table: tbl, Notes: []string{
		fmt.Sprintf("carrying the previous round's equilibrium into the next solve cuts coalition-formation passes %.1fx overall (%.0f → %.0f) at matching cost; every warm round stays a verified Nash equilibrium: %t",
			totalCold/totalWarm, totalCold, totalWarm, allStable),
	}}, nil
}

// extOnlineChargers builds a fixed charger set for the online experiment.
func extOnlineChargers(cfg Config) []core.Charger {
	in, err := gen.Instance(rng.DeriveSeed(cfg.Seed, "ext3", "chargers"), defaultParams(1, 6))
	if err != nil {
		return nil
	}
	return in.Chargers
}
