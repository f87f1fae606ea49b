package core

import (
	"math/rand"
	"testing"
)

func benchModel(b *testing.B, n, m int) *CostModel {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randInstance(r, n, m))
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

func BenchmarkNoncooperative(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Noncooperative(cm)
	}
}

func BenchmarkCCSASFMOracleN20(b *testing.B) {
	cm := benchModel(b, 20, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{Oracle: SFMOracle}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCSAPrefixOracleN100(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{Oracle: PrefixOracle}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCSGAN100(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalN12(b *testing.B) {
	cm := benchModel(b, 12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimal(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShapleyExact12(b *testing.B) {
	cm := benchModel(b, 12, 3)
	members := make([]int, 12)
	for i := range members {
		members[i] = i
	}
	c := Coalition{Charger: 0, Members: members}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Shapley{}).Shares(cm, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanDispatch(b *testing.B) {
	cm := benchModel(b, 30, 5)
	res, err := CCSA(cm, CCSAOptions{Oracle: PrefixOracle})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanDispatch(cm, res.Schedule, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMobileModel is benchModel with a heterogeneous fleet: every even
// charger is mobile with a travel budget, so CCSGA pays the tour
// re-planning cost on each join/leave and CCSA runs its budget-aware
// prefix oracle.
func benchMobileModel(b *testing.B, n, m int) *CostModel {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randMobileInstance(r, n, m))
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// BenchmarkCCSGAMobileSolve measures the tour-aware game solver at the
// same scale as BenchmarkCCSGAStationarySolve; the pair quantifies what
// the mobility layer costs per solve (tour re-plans per switch) against
// the stationary fast path on the identical geometry.
func BenchmarkCCSGAMobileSolve(b *testing.B) {
	cm := benchMobileModel(b, 100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCSGAStationarySolve is the mobile bench's control: the same
// rng stream and populations with the mobility attributes left zero.
func BenchmarkCCSGAStationarySolve(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randInstance(r, 100, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCSAMobileSolve pins the budget-aware prefix oracle's cost on
// the heterogeneous fleet.
func BenchmarkCCSAMobileSolve(b *testing.B) {
	cm := benchMobileModel(b, 100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
