package gen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pricing"
)

// meteredTariff counts Price calls into a shared counter. It prices
// exactly as the tariff it wraps and says so through Unwrap, so the cost
// model still gives it the wrapped closed form's chord.
type meteredTariff struct {
	pricing.Tariff
	calls *int
}

func (m meteredTariff) Price(e float64) float64 {
	*m.calls++
	return m.Tariff.Price(e)
}

func (m meteredTariff) Unwrap() pricing.Tariff { return m.Tariff }

// TestCostModelPricingCount pins the chord's saving on the serve path's
// instance shape: building the cost model of a LargeField(200, 20)
// instance prices each tariff at the two ends of the demand range and
// then, for nearly every device, only at the charger that wins — at most
// n + n/16 + 2m prices (241–246 measured), against roughly 3,400 of the
// 4,000 (device, charger) pairs for the fee-plus-moving-cost skip alone.
func TestCostModelPricingCount(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		in, err := Instance(seed, LargeField(200, 20))
		if err != nil {
			t.Fatal(err)
		}
		calls := new(int)
		for j := range in.Chargers {
			in.Chargers[j].Tariff = meteredTariff{in.Chargers[j].Tariff, calls}
		}
		if _, err := core.NewCostModel(in); err != nil {
			t.Fatal(err)
		}
		n, m := len(in.Devices), len(in.Chargers)
		if limit := n + n/16 + 2*m; *calls > limit {
			t.Errorf("seed %d: model build priced %d tariffs, want <= n + n/16 + 2m = %d", seed, *calls, limit)
		}
		t.Logf("seed %d: %d tariff prices (n=%d, m=%d)", seed, *calls, n, m)
	}
}

// spreadSeeds is how many seeded LargeField(200, 20) instances the
// seeds=64 sub-benchmarks cycle through: one seed hides how much the
// per-instance cost spreads.
const spreadSeeds = 64

// spreadInstances returns the spreadSeeds instances, seeds 0 to 63.
func spreadInstances(b *testing.B) []*core.Instance {
	b.Helper()
	ins := make([]*core.Instance, spreadSeeds)
	for seed := range ins {
		in, err := Instance(int64(seed), LargeField(200, 20))
		if err != nil {
			b.Fatal(err)
		}
		ins[seed] = in
	}
	return ins
}

// BenchmarkNewCostModel times the cold model build on the serve path's
// instance shape and at the shard-cell scale's charger density, and on
// the serve shape cycling through spreadSeeds instances.
func BenchmarkNewCostModel(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{200, 20}, {1024, 102}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", sz.n, sz.m), func(b *testing.B) {
			in, err := Instance(7, LargeField(sz.n, sz.m))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewCostModel(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(fmt.Sprintf("n=200/m=20/seeds=%d", spreadSeeds), func(b *testing.B) {
		ins := spreadInstances(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewCostModel(ins[i%spreadSeeds]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCCSGAPricingCount pins the price floor's and the chord bound's
// saving on the serve path's instance shape: a cold CCSGA solve of a
// LargeField(200, 20) instance prices each tariff once at its chord's
// right end, once per session term it refreshes and once per join share
// no bound rules out — at most n + n/16 prices (78–211 measured), against
// 91–315 for the chord bound without the floor and roughly 2,100–2,400
// for the moving-cost bound alone.
func TestCCSGAPricingCount(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		in, err := Instance(seed, LargeField(200, 20))
		if err != nil {
			t.Fatal(err)
		}
		calls := new(int)
		for j := range in.Chargers {
			in.Chargers[j].Tariff = meteredTariff{in.Chargers[j].Tariff, calls}
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			t.Fatal(err)
		}
		*calls = 0
		res, err := core.CCSGA(cm, core.CCSGAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(in.Devices); *calls > n+n/16 {
			t.Errorf("seed %d: CCSGA solve priced %d tariffs, want <= n + n/16 = %d", seed, *calls, n+n/16)
		}
		t.Logf("seed %d: %d tariff prices over %d passes, %d switches", seed, *calls, res.Passes, res.Switches)
	}
}

// BenchmarkCCSGALargeField times a cold CCSGA solve, model excluded, on
// the serve path's instance shape and at the shard-cell scale's charger
// density, and on the serve shape cycling through spreadSeeds instances.
func BenchmarkCCSGALargeField(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{200, 20}, {1024, 102}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", sz.n, sz.m), func(b *testing.B) {
			in, err := Instance(7, LargeField(sz.n, sz.m))
			if err != nil {
				b.Fatal(err)
			}
			cm, err := core.NewCostModel(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.CCSGA(cm, core.CCSGAOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(fmt.Sprintf("n=200/m=20/seeds=%d", spreadSeeds), func(b *testing.B) {
		cms := make([]*core.CostModel, spreadSeeds)
		for k, in := range spreadInstances(b) {
			cm, err := core.NewCostModel(in)
			if err != nil {
				b.Fatal(err)
			}
			cms[k] = cm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.CCSGA(cms[i%spreadSeeds], core.CCSGAOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
