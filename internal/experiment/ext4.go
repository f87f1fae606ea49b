package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mechanism"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ext4 studies the procurement side of "charging as a service": once CCSA
// has formed coalitions, each coalition buys its session either at the
// posted price (the model's default) or through a reverse auction among
// the chargers. The truthful second-price auction matches the efficient
// (posted-price) allocation but pays a Vickrey information rent; the
// experiment quantifies that rent across coalition sizes.
func ext4() Experiment {
	return Experiment{
		ID:    "ext4-auction",
		Title: "Extension: posted price vs procurement auctions per coalition",
		Run: func(cfg Config) (*Result, error) {
			cfg = cfg.withDefaults()
			reps := cfg.reps(30, 4)
			tbl := &Table{
				Title:   fmt.Sprintf("Ext 4 — buying CCSA coalitions' sessions (n=20, m=5), %d reps", reps),
				Columns: []string{"mechanism", "mean buyer cost / coalition", "vs posted", "winner = efficient"},
			}
			// Replications run concurrently; each rep's per-coalition
			// samples stay in coalition order inside its cell and cells
			// concatenate in rep order, matching the serial loop.
			type cell struct {
				posted, first, second []float64
				efficient, audited    int
			}
			cells := make([]cell, reps)
			err := par.Map(context.Background(), cfg.workerCount(), reps, func(_ context.Context, rep int) error {
				seed := rng.DeriveSeed(cfg.Seed, "ext4", fmt.Sprintf("rep-%d", rep))
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
				var out cell
				for _, c := range res.Schedule.Coalitions {
					// Posted price: the coalition's comprehensive cost at
					// its assigned charger.
					out.posted = append(out.posted, cm.SessionCost(c.Members, c.Charger))
					bids := mechanism.TruthfulBids(cm, c.Members)
					fp, err := mechanism.FirstPrice(cm, c.Members, bids)
					if err != nil {
						return err
					}
					out.first = append(out.first, fp.BuyerCost)
					sp, err := mechanism.SecondPrice(cm, c.Members, bids)
					if err != nil {
						return err
					}
					out.second = append(out.second, sp.BuyerCost)
					out.audited++
					if sp.Winner == fp.Winner {
						out.efficient++
					}
				}
				cells[rep] = out
				return nil
			})
			if err != nil {
				return nil, err
			}
			var posted, first, second []float64
			efficient, audited := 0, 0
			for _, c := range cells {
				posted = append(posted, c.posted...)
				first = append(first, c.first...)
				second = append(second, c.second...)
				efficient += c.efficient
				audited += c.audited
			}
			postedMean := stats.Mean(posted)
			rows := []struct {
				name   string
				sample []float64
			}{
				{"posted price", posted},
				{"first-price auction (truthful bids)", first},
				{"second-price auction (truthful dominant)", second},
			}
			for _, row := range rows {
				m := stats.Mean(row.sample)
				tbl.AddRow(row.name, F(m), fmt.Sprintf("%.3f×", m/postedMean),
					fmt.Sprintf("%d/%d", efficient, audited))
			}
			rent, err := stats.RatioOfMeans(second, first)
			if err != nil {
				return nil, err
			}
			return &Result{ID: "ext4-auction", Table: tbl, Notes: []string{
				fmt.Sprintf("the truthful second-price auction selects the efficient charger every time and costs the buyers %s more than the (non-truthful) first-price bill — the Vickrey information rent that buys incentive compatibility", Pct(rent-1)),
				"first-price with truthful bids equals the cheapest-charger posted price by construction; its real-world bids would be shaded upward",
			}}, nil
		},
	}
}
