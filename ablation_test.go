package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Ablation benchmarks isolate the design choices DESIGN.md calls out:
// the CCSA min-ratio oracle (exact SFM vs prefix heuristic), the CCSGA
// sharing scheme (PDS vs ESS), and the tariff concavity that drives
// cooperation. Each reports solution
// quality as cost/noncoop alongside ns/op.

func ablationInstances(b *testing.B, n, m, count int, exponent float64) []*core.CostModel {
	b.Helper()
	p := gen.Default()
	p.NumDevices, p.NumChargers = n, m
	if exponent > 0 {
		p.TariffExponent = exponent
	}
	cms := make([]*core.CostModel, count)
	for i := range cms {
		in, err := gen.Instance(rng.DeriveSeed(2021, "ablation", string(rune('a'+i))), p)
		if err != nil {
			b.Fatal(err)
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			b.Fatal(err)
		}
		cms[i] = cm
	}
	return cms
}

func reportQuality(b *testing.B, cms []*core.CostModel, solve func(*core.CostModel) (*core.Schedule, error)) {
	b.Helper()
	var cost, non float64
	for _, cm := range cms {
		s, err := solve(cm)
		if err != nil {
			b.Fatal(err)
		}
		cost += cm.TotalCost(s)
		non += cm.TotalCost(core.Noncooperative(cm))
	}
	b.ReportMetric(cost/non, "cost/noncoop")
}

// BenchmarkAblationOracle compares CCSA's two min-ratio oracles: the
// exact Dinkelbach+SFM oracle vs the sorted-prefix heuristic. The prefix
// oracle is orders of magnitude faster and (on power-law tariffs) within
// a fraction of a percent in cost — the measurement justifying the
// automatic fallback beyond 64 devices.
func BenchmarkAblationOracle(b *testing.B) {
	cms := ablationInstances(b, 20, 5, 6, 0)
	for _, tc := range []struct {
		name   string
		oracle core.OracleKind
	}{
		{"SFM", core.SFMOracle},
		{"Prefix", core.PrefixOracle},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cm := range cms {
					if _, err := core.CCSA(cm, core.CCSAOptions{Oracle: tc.oracle}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportQuality(b, cms, func(cm *core.CostModel) (*core.Schedule, error) {
				r, err := core.CCSA(cm, core.CCSAOptions{Oracle: tc.oracle})
				if err != nil {
					return nil, err
				}
				return r.Schedule, nil
			})
		})
	}
}

// BenchmarkAblationSharingScheme compares CCSGA equilibria under the two
// intragroup sharing schemes.
func BenchmarkAblationSharingScheme(b *testing.B) {
	cms := ablationInstances(b, 40, 8, 6, 0)
	for _, tc := range []struct {
		name   string
		scheme core.SharingScheme
	}{
		{"PDS", core.PDS{}},
		{"ESS", core.ESS{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cm := range cms {
					if _, err := core.CCSGA(cm, core.CCSGAOptions{Scheme: tc.scheme}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportQuality(b, cms, func(cm *core.CostModel) (*core.Schedule, error) {
				r, err := core.CCSGA(cm, core.CCSGAOptions{Scheme: tc.scheme})
				if err != nil {
					return nil, err
				}
				return r.Schedule, nil
			})
		})
	}
}

// BenchmarkAblationTariffConcavity shows why concave tariffs matter: with
// a linear tariff (exponent 1.0) cooperation only amortizes fees; deeper
// volume discounts widen the cooperative saving.
func BenchmarkAblationTariffConcavity(b *testing.B) {
	for _, tc := range []struct {
		name     string
		exponent float64
	}{
		{"linear-1.00", 1.0},
		{"concave-0.90", 0.9},
		{"concave-0.75", 0.75},
	} {
		cms := ablationInstances(b, 20, 5, 6, tc.exponent)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cm := range cms {
					if _, err := core.CCSA(cm, core.CCSAOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportQuality(b, cms, func(cm *core.CostModel) (*core.Schedule, error) {
				r, err := core.CCSA(cm, core.CCSAOptions{})
				if err != nil {
					return nil, err
				}
				return r.Schedule, nil
			})
		})
	}
}
