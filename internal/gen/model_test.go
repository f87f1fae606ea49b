package gen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pricing"
)

// meteredTariff counts Price calls into a shared counter. It prices
// exactly as the tariff it wraps and says so through Unwrap, so the cost
// model still gives it the wrapped closed form's envelope.
type meteredTariff struct {
	pricing.Tariff
	calls *int
}

func (m meteredTariff) Price(e float64) float64 {
	*m.calls++
	return m.Tariff.Price(e)
}

func (m meteredTariff) Unwrap() pricing.Tariff { return m.Tariff }

// TestCostModelPricingCount pins the envelope's saving on the serve
// path's instance shape: building the cost model of a LargeField(200, 20)
// instance prices each tariff on its envelope grid and then, for nearly
// every device, only at the charger that wins — at most n + K·m prices,
// against roughly 3,400 of the 4,000 (device, charger) pairs for the
// fee-plus-moving-cost skip alone.
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
		if limit := n + pricing.EnvelopePoints*m; *calls > limit {
			t.Errorf("seed %d: model build priced %d tariffs, want <= n + K·m = %d", seed, *calls, limit)
		}
		t.Logf("seed %d: %d tariff prices (n=%d, K·m=%d)", seed, *calls, n, pricing.EnvelopePoints*m)
	}
}

// BenchmarkNewCostModel times the cold model build on the serve path's
// instance shape and at the shard-cell scale's charger density.
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
}

// TestCCSGAPricingCount pins the chord bound's saving on the serve path's
// instance shape: a cold CCSGA solve of a LargeField(200, 20) instance
// prices each tariff once at its chord's right end, once per session
// term it refreshes and once per join share no bound rules out — at most
// 2n prices, against roughly 2,100–2,400 for the moving-cost bound alone.
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
		if limit := 2 * len(in.Devices); *calls > limit {
			t.Errorf("seed %d: CCSGA solve priced %d tariffs, want <= 2n = %d", seed, *calls, limit)
		}
		t.Logf("seed %d: %d tariff prices over %d passes, %d switches", seed, *calls, res.Passes, res.Switches)
	}
}

// BenchmarkCCSGALargeField times a cold CCSGA solve, model excluded, on
// the serve path's instance shape and at the shard-cell scale's charger
// density.
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
}
