package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// fig7 measures per-solve wall-clock time: CCSGA must be much faster than
// CCSA, which is the abstract's scalability claim.
//
// fig7 deliberately ignores Config.Workers and runs serially: its cells
// measure wall-clock solve time, and concurrent cells contending for
// cores would distort the very quantity being reported. (Its timing
// cells are also the one experiment output that is inherently
// non-deterministic run to run; the golden/determinism tests redact
// them.)
func fig7() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "Running time vs number of devices (CCSGA ≪ CCSA)",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(5, 2)
			sizes := []int{10, 20, 40, 60, 100, 150, 200}
			ccsaMax := 60
			if cfg.Quick {
				sizes = []int{10, 40, 100}
				ccsaMax = 40
			}
			tbl := &Table{
				Title:   fmt.Sprintf("Fig 7 — mean solve time (ms), %d reps", reps),
				Columns: []string{"n", "CCSA ms", "CCSGA ms", "OPT ms", "CCSA/CCSGA"},
			}
			var lastRatio float64
			for _, n := range sizes {
				var ccsaMS, gaMS, optMS []float64
				for rep := 0; rep < reps; rep++ {
					seed := rng.DeriveSeed(cfg.Seed, "fig7", fmt.Sprintf("n%d-rep%d", n, rep))
					in, err := gen.Instance(seed, defaultParams(n, maxInt(4, n/10)))
					if err != nil {
						return nil, err
					}
					cm, err := core.NewCostModel(in)
					if err != nil {
						return nil, err
					}
					if n <= ccsaMax {
						start := time.Now()
						if _, err := core.CCSA(cm, core.CCSAOptions{}); err != nil {
							return nil, err
						}
						ccsaMS = append(ccsaMS, float64(time.Since(start).Microseconds())/1000)
					}
					start := time.Now()
					if _, err := core.CCSGA(cm, core.CCSGAOptions{}); err != nil {
						return nil, err
					}
					gaMS = append(gaMS, float64(time.Since(start).Microseconds())/1000)
					if n <= core.MaxOptimalDevices {
						start = time.Now()
						if _, err := core.Optimal(cm); err != nil {
							return nil, err
						}
						optMS = append(optMS, float64(time.Since(start).Microseconds())/1000)
					}
				}
				ccsaCell, optCell, ratioCell := "-", "-", "-"
				if len(ccsaMS) > 0 {
					ccsaCell = fmt.Sprintf("%.2f", stats.Mean(ccsaMS))
					if ga := stats.Mean(gaMS); ga > 0 {
						lastRatio = stats.Mean(ccsaMS) / ga
						ratioCell = fmt.Sprintf("%.0f×", lastRatio)
					}
				}
				if len(optMS) > 0 {
					optCell = fmt.Sprintf("%.2f", stats.Mean(optMS))
				}
				tbl.AddRow(fmt.Sprintf("%d", n), ccsaCell,
					fmt.Sprintf("%.2f", stats.Mean(gaMS)), optCell, ratioCell)
			}
			return &Result{ID: "fig7", Table: tbl, Notes: []string{
				fmt.Sprintf("CCSGA is ~%.0f× faster than CCSA at the largest common size (paper: \"much faster\")", lastRatio),
			}}, nil
		},
	}
}

// fig8 measures CCSGA convergence: switch operations and passes until a
// pure Nash equilibrium, and verifies stability. Every (size, rep) cell
// is an independent seeded game, so all cells run concurrently on the
// worker pool and land in pre-indexed slots.
func fig8() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "CCSGA convergence to pure Nash equilibrium",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(10, 3)
			sizes := []int{20, 50, 100, 150, 200}
			if cfg.Quick {
				sizes = []int{20, 50}
			}

			type cell struct {
				switches, passes  float64
				converged, stable bool
			}
			cells := make([]cell, len(sizes)*reps)
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				n := sizes[idx/reps]
				rep := idx % reps
				seed := rng.DeriveSeed(cfg.Seed, "fig8", fmt.Sprintf("n%d-rep%d", n, rep))
				in, err := gen.Instance(seed, defaultParams(n, maxInt(4, n/10)))
				if err != nil {
					return err
				}
				cm, err := core.NewCostModel(in)
				if err != nil {
					return err
				}
				res, err := core.CCSGA(cm, core.CCSGAOptions{Seed: seed})
				if err != nil {
					return err
				}
				cells[idx] = cell{
					switches:  float64(res.Switches),
					passes:    float64(res.Passes),
					converged: res.Converged,
					stable:    res.NashStable,
				}
				return nil
			})
			if err != nil {
				return nil, err
			}

			tbl := &Table{
				Title:   fmt.Sprintf("Fig 8 — CCSGA switch dynamics, %d reps", reps),
				Columns: []string{"n", "switches", "passes", "converged", "Nash-stable"},
			}
			for si, n := range sizes {
				var switches, passes []float64
				converged, stable := 0, 0
				for rep := 0; rep < reps; rep++ {
					c := cells[si*reps+rep]
					switches = append(switches, c.switches)
					passes = append(passes, c.passes)
					if c.converged {
						converged++
					}
					if c.stable {
						stable++
					}
				}
				tbl.AddRow(fmt.Sprintf("%d", n),
					fmt.Sprintf("%.1f", stats.Mean(switches)),
					fmt.Sprintf("%.1f", stats.Mean(passes)),
					fmt.Sprintf("%d/%d", converged, reps),
					fmt.Sprintf("%d/%d", stable, reps))
			}
			return &Result{ID: "fig8", Table: tbl, Notes: []string{
				"every run converges to a verified pure Nash equilibrium; switches grow roughly linearly in n",
			}}, nil
		},
	}
}

// fig9 compares the two intragroup cost-sharing schemes on the same CCSA
// schedules: spread of individual shares, budget balance, and individual
// rationality. Cells are (scheme, rep) pairs; per-cell tallies are
// merged in rep order so samples match the serial loop exactly.
func fig9() Experiment {
	return Experiment{
		ID:    "fig9",
		Title: "Cost-sharing schemes compared (PDS vs ESS)",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(30, 5)
			tbl := &Table{
				Title:   fmt.Sprintf("Fig 9 — per-device cost shares under CCSA schedules, %d reps (n=20, m=5)", reps),
				Columns: []string{"scheme", "mean share", "Gini", "IR violations", "in core", "budget error"},
			}
			schemes := []core.SharingScheme{core.PDS{}, core.ESS{}, core.Shapley{}}

			type cell struct {
				shares          []float64
				irViol, total   int
				inCore, audited int
				budgetErr       float64
			}
			cells := make([]cell, len(schemes)*reps)
			err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
				scheme := schemes[idx/reps]
				rep := idx % reps
				seed := rng.DeriveSeed(cfg.Seed, "fig9", fmt.Sprintf("rep%d", rep))
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
				shares, err := core.ScheduleShares(cm, res.Schedule, scheme)
				if err != nil {
					return err
				}
				var c cell
				var sum float64
				for i, sh := range shares {
					c.shares = append(c.shares, sh)
					sum += sh
					sigma, _ := cm.StandaloneCost(i)
					if sh > sigma+1e-9 {
						c.irViol++
					}
					c.total++
				}
				want := cm.TotalCost(res.Schedule)
				if d := sum - want; d > c.budgetErr || -d > c.budgetErr {
					if d < 0 {
						d = -d
					}
					c.budgetErr = d
				}
				// Core audit: no subgroup of any coalition can defect
				// profitably (subsets are exponential: audit the small
				// coalitions).
				for _, coal := range res.Schedule.Coalitions {
					if len(coal.Members) < 2 || len(coal.Members) > 12 {
						continue
					}
					ok, err := core.InCore(cm, coal, scheme)
					if err != nil {
						return err
					}
					c.audited++
					if ok {
						c.inCore++
					}
				}
				cells[idx] = c
				return nil
			})
			if err != nil {
				return nil, err
			}

			for si, scheme := range schemes {
				var all []float64
				var irViol, total int
				var inCore, audited int
				var budgetErr float64
				for rep := 0; rep < reps; rep++ {
					c := cells[si*reps+rep]
					all = append(all, c.shares...)
					irViol += c.irViol
					total += c.total
					inCore += c.inCore
					audited += c.audited
					if c.budgetErr > budgetErr {
						budgetErr = c.budgetErr
					}
				}
				s, err := stats.Summarize(all)
				if err != nil {
					return nil, err
				}
				gini, err := stats.Gini(all)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(scheme.Name(),
					F(s.Mean), fmt.Sprintf("%.3f", gini),
					fmt.Sprintf("%d/%d", irViol, total),
					fmt.Sprintf("%d/%d", inCore, audited),
					fmt.Sprintf("%.1e", budgetErr))
			}
			return &Result{ID: "fig9", Table: tbl, Notes: []string{
				"all three schemes are budget-balanced and individually rational here; PDS (demand-proportional) and Shapley (average marginal cost) pass the core audit, while ESS's equal surplus split is occasionally blockable by low-demand subgroups — the trade-off behind the paper's two-scheme design",
			}}, nil
		},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
