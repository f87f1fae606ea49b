package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestCostModelPricingCount pins the chord's saving on the serve path's
// instance shape: building the cost model of a LargeField(200, 20)
// instance prices, for nearly every device, only the charger that wins —
// at most n + n/16 tariff prices (201–206 measured), against roughly 3,400 of the 4,000
// (device, charger) pairs for the fee-plus-moving-cost skip alone. The
// two prices at each chord's ends are taken inside pricing and not
// counted.
func TestCostModelPricingCount(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		in, err := gen.Instance(seed, gen.LargeField(200, 20))
		if err != nil {
			t.Fatal(err)
		}
		calls := core.CountPrices(func() {
			if _, err = core.NewCostModel(in); err != nil {
				t.Fatal(err)
			}
		})
		n, m := len(in.Devices), len(in.Chargers)
		if limit := n + n/16; calls > limit {
			t.Errorf("seed %d: model build priced %d tariffs, want <= n + n/16 = %d", seed, calls, limit)
		}
		t.Logf("seed %d: %d tariff prices (n=%d, m=%d)", seed, calls, n, m)
	}
}

// TestCCSGAPricingCount pins the price floor's and the chord bound's
// saving on the serve path's instance shape: a cold CCSGA solve of a
// LargeField(200, 20) instance prices each tariff once per session term
// it refreshes and once per join share no bound rules out — at most
// n + n/16 - m prices (58–191 measured), against roughly 2,100–2,400 for
// the moving-cost bound alone. The price at each chord's right end is
// taken inside pricing and not counted, so the bound leaves out the m
// prices a count that included them would add.
func TestCCSGAPricingCount(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		in, err := gen.Instance(seed, gen.LargeField(200, 20))
		if err != nil {
			t.Fatal(err)
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			t.Fatal(err)
		}
		var res *core.CCSGAResult
		calls := core.CountPrices(func() {
			if res, err = core.CCSGA(cm, core.CCSGAOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		n, m := len(in.Devices), len(in.Chargers)
		if limit := n + n/16 - m; calls > limit {
			t.Errorf("seed %d: CCSGA solve priced %d tariffs, want <= n + n/16 - m = %d", seed, calls, limit)
		}
		t.Logf("seed %d: %d tariff prices over %d passes, %d switches", seed, calls, res.Passes, res.Switches)
	}
}
