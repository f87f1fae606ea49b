package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ext1 sweeps per-session charger capacities — the capacitated CCS
// extension: tight capacities force coalitions to split, eroding (but
// never inverting) the cooperative advantage. Each (capacity, rep) cell
// builds its own instance (the capacity override mutates chargers, so
// cells never share one), letting the whole grid run concurrently.
func ext1() Experiment {
	return Experiment{
		ID:    "ext1-capacity",
		Title: "Extension: cooperative saving vs per-session charger capacity",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(30, 3)
			// Capacity expressed as a multiple of the mean per-device
			// purchase; +Inf last.
			multiples := []float64{1.2, 2, 4, 8, 0}
			if cfg.Quick {
				multiples = []float64{1.2, 4, 0}
			}

			type cell struct {
				non, ga, ccsa, sessions float64
			}
			cells := make([]cell, len(multiples)*reps)
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				mult := multiples[idx/reps]
				rep := idx % reps
				seed := rng.DeriveSeed(cfg.Seed, "ext1", fmt.Sprintf("m%g-rep%d", mult, rep))
				p := defaultParams(12, 4)
				in, err := gen.Instance(seed, p)
				if err != nil {
					return err
				}
				if mult > 0 {
					var meanDemand, maxDemand float64
					for _, d := range in.Devices {
						meanDemand += d.Demand
						if d.Demand > maxDemand {
							maxDemand = d.Demand
						}
					}
					meanDemand /= float64(len(in.Devices))
					// At least the largest single purchase must fit,
					// or the instance is infeasible outright.
					capDemand := mult * meanDemand
					if capDemand < maxDemand {
						capDemand = maxDemand
					}
					for j := range in.Chargers {
						in.Chargers[j].Capacity = capDemand / in.Chargers[j].Efficiency
					}
				}
				cm, err := core.NewCostModel(in)
				if err != nil {
					return err
				}
				var c cell
				c.non = cm.TotalCost(core.Noncooperative(cm))
				gaRes, err := core.CCSGA(cm, core.CCSGAOptions{})
				if err != nil {
					return err
				}
				if err := cm.ValidateCapacity(gaRes.Schedule); err != nil {
					return err
				}
				c.ga = cm.TotalCost(gaRes.Schedule)
				aRes, err := core.CCSA(cm, core.CCSAOptions{})
				if err != nil {
					return err
				}
				if err := cm.ValidateCapacity(aRes.Schedule); err != nil {
					return err
				}
				c.ccsa = cm.TotalCost(aRes.Schedule)
				c.sessions = float64(len(aRes.Schedule.Coalitions))
				cells[idx] = c
				return nil
			})
			if err != nil {
				return nil, err
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Ext 1 — capacitated CCS (n=12, m=4), %d reps", reps),
				Columns: []string{"capacity ×demand", "NONCOOP", "CCSGA", "CCSA", "sessions (CCSA)", "CCSA saving"},
			}
			var firstSaving, lastSaving float64
			for idx, mult := range multiples {
				var non, ga, ccsa, sessions []float64
				for rep := 0; rep < reps; rep++ {
					c := cells[idx*reps+rep]
					non = append(non, c.non)
					ga = append(ga, c.ga)
					ccsa = append(ccsa, c.ccsa)
					sessions = append(sessions, c.sessions)
				}
				r, err := stats.RatioOfMeans(ccsa, non)
				if err != nil {
					return nil, err
				}
				label := "∞"
				if mult > 0 {
					label = fmt.Sprintf("%.1f", mult)
				}
				tbl.AddRow(label, meanCell(non), meanCell(ga), meanCell(ccsa),
					fmt.Sprintf("%.1f", stats.Mean(sessions)), Pct(1-r))
				if idx == 0 {
					firstSaving = 1 - r
				}
				lastSaving = 1 - r
			}
			return &Result{ID: "ext1-capacity", Table: tbl, Notes: []string{
				fmt.Sprintf("tight capacities split coalitions and shrink the saving (%s at the tightest vs %s unconstrained), but cooperation never loses",
					Pct(firstSaving), Pct(lastSaving)),
			}}, nil
		},
	}
}

// ext2 measures the mobile-charger dispatch extension: rendezvous points
// at the weighted geometric median plus 2-opt tours, versus holding every
// session at the charger's home position. (rate, rep) cells run
// concurrently and assemble in rep order.
func ext2() Experiment {
	return Experiment{
		ID:    "ext2-dispatch",
		Title: "Extension: mobile-charger rendezvous + tour dispatch",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(30, 3)
			rates := []float64{0, 0.005, 0.02, 0.05}
			if cfg.Quick {
				rates = []float64{0, 0.02}
			}

			type cell struct {
				static, dispatch float64
			}
			cells := make([]cell, len(rates)*reps)
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				rate := rates[idx/reps]
				rep := idx % reps
				seed := rng.DeriveSeed(cfg.Seed, "ext2", fmt.Sprintf("r%g-rep%d", rate, rep))
				in, err := gen.Instance(seed, defaultParams(20, 5))
				if err != nil {
					return err
				}
				cm, err := core.NewCostModel(in)
				if err != nil {
					return err
				}
				res, err := core.CCSA(cm, core.CCSAOptions{})
				if err != nil {
					return err
				}
				d, err := core.PlanDispatch(cm, res.Schedule, rate)
				if err != nil {
					return err
				}
				cells[idx] = cell{static: cm.TotalCost(res.Schedule), dispatch: d.TotalCost()}
				return nil
			})
			if err != nil {
				return nil, err
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Ext 2 — CCSA schedules with mobile-charger dispatch (n=20, m=5), %d reps", reps),
				Columns: []string{"charger $/m", "static cost", "dispatch cost", "saving"},
			}
			var notes []string
			for ri, rate := range rates {
				var static, dispatch []float64
				for rep := 0; rep < reps; rep++ {
					c := cells[ri*reps+rep]
					static = append(static, c.static)
					dispatch = append(dispatch, c.dispatch)
				}
				r, err := stats.RatioOfMeans(dispatch, static)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(fmt.Sprintf("%.3f", rate),
					meanCell(static), meanCell(dispatch), Pct(1-r))
				if rate == rates[len(rates)-1] {
					notes = append(notes, fmt.Sprintf(
						"meeting customers at the weighted median saves travel even when the charger pays %.3f $/m for its own tour (%s)",
						rate, Pct(1-r)))
				}
			}
			return &Result{ID: "ext2-dispatch", Table: tbl, Notes: notes}, nil
		},
	}
}
