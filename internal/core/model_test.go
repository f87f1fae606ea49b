package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/submodular"
	"repro/internal/testutil"
)

// testInstance builds a small hand-checkable instance:
//
//	device 0 at (0,0), demand 100 J, move rate 0.01 $/m
//	device 1 at (100,0), demand 200 J, move rate 0.02 $/m
//	charger 0 at (0,0): fee 5, linear 0.05 $/J, η=1
//	charger 1 at (100,0): fee 2, powerlaw 0.5·E^0.8, η=0.8
func testInstance() *Instance {
	return &Instance{
		Field: geom.Square(1000),
		Devices: []Device{
			{ID: "d0", Pos: geom.Pt(0, 0), Demand: 100, MoveRate: 0.01},
			{ID: "d1", Pos: geom.Pt(100, 0), Demand: 200, MoveRate: 0.02},
		},
		Chargers: []Charger{
			{ID: "c0", Pos: geom.Pt(0, 0), Fee: 5, Tariff: pricing.Linear{Rate: 0.05}, Efficiency: 1},
			{ID: "c1", Pos: geom.Pt(100, 0), Fee: 2, Tariff: pricing.PowerLaw{Coeff: 0.5, Exponent: 0.8}, Efficiency: 0.8},
		},
	}
}

// randInstance generates a random valid instance for cross-checks.
func randInstance(r *rand.Rand, n, m int) *Instance {
	field := geom.Square(1000)
	devPts := geom.UniformPoints(r, field, n)
	chPts := geom.UniformPoints(r, field, m)
	in := &Instance{Field: field}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, Device{
			ID:       "d" + string(rune('0'+i%10)),
			Pos:      devPts[i],
			Demand:   50 + r.Float64()*300,
			MoveRate: 0.005 + r.Float64()*0.02,
		})
	}
	for j := 0; j < m; j++ {
		var tariff pricing.Tariff
		switch j % 3 {
		case 0:
			tariff = pricing.Linear{Rate: 0.02 + r.Float64()*0.02}
		case 1:
			tariff = pricing.PowerLaw{Coeff: 0.1 + r.Float64()*0.3, Exponent: 0.7 + r.Float64()*0.3}
		default:
			tariff = testutil.MustTiered([]pricing.Tier{
				{UpTo: 200, Rate: 0.04 + r.Float64()*0.02},
				{UpTo: math.Inf(1), Rate: 0.02},
			})
		}
		in.Chargers = append(in.Chargers, Charger{
			ID:         "c" + string(rune('0'+j%10)),
			Pos:        chPts[j],
			Fee:        3 + r.Float64()*15,
			Tariff:     tariff,
			Efficiency: 0.6 + r.Float64()*0.4,
		})
	}
	return in
}

func mustCostModel(t *testing.T, in *Instance) *CostModel {
	t.Helper()
	cm, err := NewCostModel(in)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestValidate(t *testing.T) {
	base := testInstance()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
	}{
		{"no devices", func(in *Instance) { in.Devices = nil }, "no devices"},
		{"no chargers", func(in *Instance) { in.Chargers = nil }, "no chargers"},
		{"zero demand", func(in *Instance) { in.Devices[0].Demand = 0 }, "demand"},
		{"nan demand", func(in *Instance) { in.Devices[0].Demand = math.NaN() }, "demand"},
		{"negative move rate", func(in *Instance) { in.Devices[1].MoveRate = -1 }, "move rate"},
		{"negative fee", func(in *Instance) { in.Chargers[0].Fee = -1 }, "fee"},
		{"zero efficiency", func(in *Instance) { in.Chargers[0].Efficiency = 0 }, "efficiency"},
		{"efficiency above one", func(in *Instance) { in.Chargers[1].Efficiency = 1.2 }, "efficiency"},
		{"nil tariff", func(in *Instance) { in.Chargers[0].Tariff = nil }, "tariff"},
		{"convex tariff", func(in *Instance) { in.Chargers[0].Tariff = convexTestTariff{} }, "concave"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := testInstance()
			tt.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

type convexTestTariff struct{}

func (convexTestTariff) Price(e float64) float64 {
	if e <= 0 {
		return 0
	}
	return e * e
}
func (convexTestTariff) Name() string { return "convex-test" }

func TestSessionCostHandChecked(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	// Both devices at charger 0 (linear 0.05 $/J, η=1, fee 5):
	// energy 300 J → 15 $, moves: d0 0 m, d1 100 m × 0.02 = 2 $.
	want := 5 + 15 + 0 + 2.0
	if got := cm.SessionCost([]int{0, 1}, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("SessionCost = %v, want %v", got, want)
	}
	// Singleton d1 at charger 1 (fee 2, 0.5·E^0.8, η=0.8): purchased 250.
	want = 2 + 0.5*math.Pow(250, 0.8)
	if got := cm.SessionCost([]int{1}, 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("SessionCost singleton = %v, want %v", got, want)
	}
	if got := cm.SessionCost(nil, 0); got != 0 {
		t.Errorf("empty SessionCost = %v, want 0", got)
	}
}

func TestPurchasedAccountsForEfficiency(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	if got := cm.Purchased([]int{0, 1}, 1); math.Abs(got-300/0.8) > 1e-9 {
		t.Errorf("Purchased = %v, want %v", got, 300/0.8)
	}
}

func TestStandaloneCost(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	// d0 options: c0 = 5 + 5 + 0 = 10; c1 = 2 + 0.5*(125)^0.8 + 1 ≈ 26.2.
	cost, j := cm.StandaloneCost(0)
	if j != 0 || math.Abs(cost-10) > 1e-9 {
		t.Errorf("StandaloneCost(0) = %v at charger %d, want 10 at 0", cost, j)
	}
}

func TestScheduleValidate(t *testing.T) {
	tests := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"good", Schedule{[]Coalition{{0, []int{0}}, {1, []int{1}}}}, true},
		{"missing device", Schedule{[]Coalition{{0, []int{0}}}}, false},
		{"duplicate device", Schedule{[]Coalition{{0, []int{0, 1}}, {1, []int{1}}}}, false},
		{"bad charger", Schedule{[]Coalition{{7, []int{0, 1}}}}, false},
		{"bad device index", Schedule{[]Coalition{{0, []int{0, 5}}}}, false},
		{"empty coalition", Schedule{[]Coalition{{0, []int{0, 1}}, {1, nil}}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate(2, 2)
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestMergeSameCharger(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	s := &Schedule{Coalitions: []Coalition{
		{Charger: 0, Members: []int{1}},
		{Charger: 0, Members: []int{0}},
	}}
	before := cm.TotalCost(s)
	s.MergeSameCharger()
	if len(s.Coalitions) != 1 {
		t.Fatalf("coalitions = %d, want 1", len(s.Coalitions))
	}
	if got := s.Coalitions[0].Members; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("members = %v, want [0 1]", got)
	}
	after := cm.TotalCost(s)
	if after > before+1e-9 {
		t.Errorf("merging raised cost: %v -> %v", before, after)
	}
	if err := s.Validate(2, 2); err != nil {
		t.Error(err)
	}
}

// SessionCost must be submodular in the member set for every charger —
// the property CCSA's SFM oracle relies on. It checks the local exchange
// form f(S+i) + f(S+j) ≥ f(S+i+j) + f(S) for every S and i, j ∉ S.
func TestSessionCostSubmodular(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(r, n, 3)
		cm := mustCostModel(t, in)
		for j := 0; j < cm.NumChargers(); j++ {
			f := func(s submodular.Set) float64 { return cm.SessionCost(s.Elems(), j) }
			for s := submodular.Set(0); s < 1<<n; s++ {
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						if s.Has(a) || s.Has(b) {
							continue
						}
						if f(s.Add(a))+f(s.Add(b)) < f(s.Add(a).Add(b))+f(s)-1e-9 {
							t.Fatalf("trial %d charger %d: violated at S=%v i=%d j=%d", trial, j, s, a, b)
						}
					}
				}
			}
		}
	}
}

func TestTotalCost(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	s := &Schedule{Coalitions: []Coalition{{0, []int{0}}, {1, []int{1}}}}
	want := cm.SessionCost([]int{0}, 0) + cm.SessionCost([]int{1}, 1)
	if got := cm.TotalCost(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
}
