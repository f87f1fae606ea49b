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

// travelBlind clones a heterogeneous instance with every mobile charger's
// travel cost and budget zeroed: the fleet still drives (devices stay
// put), but the planner is blind to what the driving costs. Scheduling on
// the blind clone and billing under the true model is the naive baseline
// the tour-aware solvers are measured against.
func travelBlind(in *core.Instance) *core.Instance {
	out := &core.Instance{Field: in.Field}
	out.Devices = append([]core.Device(nil), in.Devices...)
	out.Chargers = append([]core.Charger(nil), in.Chargers...)
	for j := range out.Chargers {
		if out.Chargers[j].Mobile {
			out.Chargers[j].MoveRate = 0
			out.Chargers[j].TravelBudget = 0
		}
	}
	return out
}

// ext4Mobile studies the heterogeneous-fleet extension: half the chargers
// are mobile (they tour their members; see DESIGN.md §10) and the session
// cost carries the tour's travel. Three fleets run on the same seeded
// geometry: the all-stationary baseline, a naive planner that schedules
// travel-blind and gets billed for the real tours, and the tour-aware
// CCSA/CCSGA that fold the re-planned tour into coalition formation.
func ext4Mobile() Experiment {
	return Experiment{
		ID:    "ext4-mobile",
		Title: "Extension: heterogeneous mobile chargers, tour-aware vs travel-blind",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(30, 4)
			const (
				n = 24
				m = 6
			)
			mobileFrac := 0.5
			if cfg.MobileFrac > 0 {
				mobileFrac = cfg.MobileFrac
			}
			covK := 1
			if cfg.CoverageK > 0 {
				covK = cfg.CoverageK
			}
			covRadius := 600.0
			if cfg.CoverageRadius > 0 {
				covRadius = cfg.CoverageRadius
			}
			tbl := &Table{
				Title: fmt.Sprintf("Ext 4b — heterogeneous fleet (n=%d, m=%d, %.0f%% mobile), %d reps",
					n, m, mobileFrac*100, reps),
				Columns: []string{"fleet / scheduler", "mean total cost", "vs naive"},
			}
			// One cell per rep: fixed-size aggregates written into
			// pre-indexed slots, so any Workers count folds identically.
			type cell struct {
				stationary [2]float64 // CCSA, CCSGA
				naive      [2]float64 // scheduled blind, billed tour-aware
				aware      [2]float64
				naiveViol  int // naive schedules overrunning a travel budget
				nash       bool
				// coverStat/coverAware are the k=1 covered device fraction
				// at covRadius for the stationary and tour-aware CCSGA
				// schedules (mobile sessions carry service sites into the
				// field, so the mobile fraction should dominate).
				coverStat, coverAware float64
			}
			cells := make([]cell, reps)
			err := par.Map(context.Background(), cfg.workerCount(), reps, func(_ context.Context, rep int) error {
				seed := rng.DeriveSeed(cfg.Seed, "ext4-mobile", fmt.Sprintf("rep-%d", rep))
				// MobileFrac draws from its own derived stream, so both
				// fleets share geometry, demands and tariffs exactly.
				statIn, err := gen.Instance(seed, gen.HeterogeneousFleet(n, m, 0))
				if err != nil {
					return err
				}
				mobIn, err := gen.Instance(seed, gen.HeterogeneousFleet(n, m, mobileFrac))
				if err != nil {
					return err
				}
				cmStat, err := core.NewCostModel(statIn)
				if err != nil {
					return err
				}
				cmMob, err := core.NewCostModel(mobIn)
				if err != nil {
					return err
				}
				cmNaive, err := core.NewCostModel(travelBlind(mobIn))
				if err != nil {
					return err
				}
				var out cell
				solve := func(cm *core.CostModel) (*core.Schedule, *core.Schedule, *core.CCSGAResult, error) {
					ra, err := core.CCSA(cm, core.CCSAOptions{})
					if err != nil {
						return nil, nil, nil, err
					}
					rg, err := core.CCSGA(cm, core.CCSGAOptions{})
					if err != nil {
						return nil, nil, nil, err
					}
					return ra.Schedule, rg.Schedule, rg, nil
				}
				coveredFrac := func(cm *core.CostModel, s *core.Schedule) (float64, error) {
					counts, err := cm.CoverageCounts(s, covRadius)
					if err != nil {
						return 0, err
					}
					covered := 0
					for _, c := range counts {
						if c >= covK {
							covered++
						}
					}
					return float64(covered) / float64(len(counts)), nil
				}
				sa, sg, _, err := solve(cmStat)
				if err != nil {
					return err
				}
				out.stationary = [2]float64{cmStat.TotalCost(sa), cmStat.TotalCost(sg)}
				if out.coverStat, err = coveredFrac(cmStat, sg); err != nil {
					return err
				}
				na, ng, _, err := solve(cmNaive)
				if err != nil {
					return err
				}
				// The naive plan is billed under the true tour-aware model.
				out.naive = [2]float64{cmMob.TotalCost(na), cmMob.TotalCost(ng)}
				if cmMob.ValidateTravel(na) != nil {
					out.naiveViol++
				}
				if cmMob.ValidateTravel(ng) != nil {
					out.naiveViol++
				}
				aa, ag, rg, err := solve(cmMob)
				if err != nil {
					return err
				}
				// Tour-aware schedules must respect every travel budget.
				if err := cmMob.ValidateTravel(aa); err != nil {
					return fmt.Errorf("rep %d: tour-aware CCSA: %w", rep, err)
				}
				if err := cmMob.ValidateTravel(ag); err != nil {
					return fmt.Errorf("rep %d: tour-aware CCSGA: %w", rep, err)
				}
				out.aware = [2]float64{cmMob.TotalCost(aa), cmMob.TotalCost(ag)}
				out.nash = rg.NashStable
				if out.coverAware, err = coveredFrac(cmMob, ag); err != nil {
					return err
				}
				cells[rep] = out
				return nil
			})
			if err != nil {
				return nil, err
			}
			var stat, naive, aware [2][]float64
			var coverStat, coverAware []float64
			naiveViol, nash := 0, 0
			for _, c := range cells {
				for s := 0; s < 2; s++ {
					stat[s] = append(stat[s], c.stationary[s])
					naive[s] = append(naive[s], c.naive[s])
					aware[s] = append(aware[s], c.aware[s])
				}
				coverStat = append(coverStat, c.coverStat)
				coverAware = append(coverAware, c.coverAware)
				naiveViol += c.naiveViol
				if c.nash {
					nash++
				}
			}
			names := [2]string{"CCSA", "CCSGA"}
			for s := 0; s < 2; s++ {
				tbl.AddRow("stationary "+names[s], F(stats.Mean(stat[s])), "—")
			}
			for s := 0; s < 2; s++ {
				tbl.AddRow("mobile naive "+names[s], F(stats.Mean(naive[s])), "1.000×")
			}
			ratio := [2]float64{}
			for s := 0; s < 2; s++ {
				r, err := stats.RatioOfMeans(aware[s], naive[s])
				if err != nil {
					return nil, err
				}
				ratio[s] = r
				tbl.AddRow("mobile tour-aware "+names[s], F(stats.Mean(aware[s])), fmt.Sprintf("%.3f×", r))
			}
			return &Result{ID: "ext4-mobile", Table: tbl, Notes: []string{
				fmt.Sprintf("folding the re-planned tour into coalition formation beats the travel-blind plan by %s (CCSA) and %s (CCSGA) on billed total cost", Pct(1-ratio[0]), Pct(1-ratio[1])),
				fmt.Sprintf("the naive plan overran a mobile charger's travel budget in %d/%d schedules; every tour-aware schedule stayed within budget", naiveViol, 2*reps),
				fmt.Sprintf("tour-aware CCSGA reached a pure Nash equilibrium in %d/%d reps; mean %d-covered device fraction at %.0f m: %s stationary vs %s mobile (mobile sessions put service sites at the members themselves)", nash, reps, covK, covRadius, Pct(stats.Mean(coverStat)), Pct(stats.Mean(coverAware))),
			}}, nil
		},
	}
}
