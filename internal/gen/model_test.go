package gen

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

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
