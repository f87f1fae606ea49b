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

// schedulerSet is the standard algorithm lineup, in report order.
func schedulerSet(includeOpt bool) []core.Scheduler {
	s := []core.Scheduler{
		core.NoncoopScheduler{},
		core.CCSGAScheduler{},
		core.CCSAScheduler{},
	}
	if includeOpt {
		s = append(s, core.OptimalScheduler{})
	}
	return s
}

// sweepPoint is one column of a sweep: a labelled generator
// configuration evaluated by a fixed scheduler lineup.
type sweepPoint struct {
	label  string
	params gen.Params
	scheds []core.Scheduler
}

// sweepGrid evaluates reps seeded instances of every point. All
// (point, rep) cells are independent — seeds derive from
// (cfg.Seed, label, rep) — so they run concurrently on cfg's worker
// pool; each cell writes into its pre-indexed slot and the per-point
// samples are assembled in (rep, scheduler) order, making the result
// byte-identical to a serial sweep for any worker count.
func sweepGrid(cfg Config, points []sweepPoint, reps int) ([]map[string][]float64, error) {
	cells := make([]map[string]float64, len(points)*reps)
	err := par.Map(context.Background(), cfg.workerCount(), len(cells), func(_ context.Context, idx int) error {
		pt := points[idx/reps]
		rep := idx % reps
		seed := rng.DeriveSeed(cfg.Seed, pt.label, fmt.Sprintf("rep-%d", rep))
		in, err := gen.Instance(seed, pt.params)
		if err != nil {
			return fmt.Errorf("%s rep %d: %w", pt.label, rep, err)
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			return fmt.Errorf("%s rep %d: %w", pt.label, rep, err)
		}
		cell := make(map[string]float64, len(pt.scheds))
		for _, s := range pt.scheds {
			sched, err := s.Schedule(cm)
			if err != nil {
				return fmt.Errorf("%s rep %d %s: %w", pt.label, rep, s.Name(), err)
			}
			if err := sched.Validate(len(in.Devices), len(in.Chargers)); err != nil {
				return fmt.Errorf("%s rep %d %s: invalid schedule: %w", pt.label, rep, s.Name(), err)
			}
			cell[s.Name()] = cm.TotalCost(sched)
		}
		cells[idx] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]map[string][]float64, len(points))
	for pi, pt := range points {
		m := make(map[string][]float64, len(pt.scheds))
		for rep := 0; rep < reps; rep++ {
			for _, s := range pt.scheds {
				name := s.Name()
				m[name] = append(m[name], cells[pi*reps+rep][name])
			}
		}
		out[pi] = m
	}
	return out, nil
}

// sweepCosts runs every scheduler on reps seeded instances of p and
// returns each scheduler's total-cost sample, keyed by scheduler name.
// Replications run concurrently on cfg's worker pool; see sweepGrid for
// the determinism guarantee.
func sweepCosts(cfg Config, label string, p gen.Params, reps int, scheds []core.Scheduler) (map[string][]float64, error) {
	grid, err := sweepGrid(cfg, []sweepPoint{{label: label, params: p, scheds: scheds}}, reps)
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// meanCell formats a sample as "mean ± ci95".
func meanCell(sample []float64) string {
	s, err := stats.Summarize(sample)
	if err != nil {
		return "-"
	}
	return MeanCI(s.Mean, s.CI95)
}

// improvementNote formats "ALGO is X% lower than BASE (paper: Y%)".
func improvementNote(algo, base string, algoCosts, baseCosts []float64, paper string) string {
	r, err := stats.RatioOfMeans(algoCosts, baseCosts)
	if err != nil {
		return fmt.Sprintf("%s vs %s: n/a", algo, base)
	}
	return fmt.Sprintf("%s average cost is %s lower than %s (paper: %s)",
		algo, Pct(1-r), base, paper)
}
