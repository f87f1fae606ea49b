package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// wholeField solves the instance with a single whole-field CCSGA — the
// reference the sharded solve is differenced against.
func wholeField(t *testing.T, in *core.Instance) (*core.CostModel, *core.Schedule) {
	t.Helper()
	cm, err := core.NewCostModel(in)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := (&core.CCSGAScheduler{}).Schedule(cm)
	if err != nil {
		t.Fatal(err)
	}
	return cm, sched
}

// addCapacities swaps the instance's chargers for a hand-placed set of
// eight — one capped and one uncapped per 500 m grid quadrant. The caps
// (three times the largest single purchase) keep every singleton
// feasible but force larger coalitions to split across session slots,
// so ValidateCapacity is a real assertion; the uncapped neighbor in the
// same cell guarantees CCSGA's greedy slot packing can always place a
// shard's devices. A shard whose only chargers are tightly capped can
// fail to pack outright — that failure mode is deliberate and
// documented (DESIGN §7), not what this row studies.
func addCapacities(in *core.Instance) {
	var max float64
	for _, d := range in.Devices {
		if d.Demand > max {
			max = d.Demand
		}
	}
	in.Chargers = in.Chargers[:0]
	j := 0
	for _, cy := range []float64{250, 750} {
		for _, cx := range []float64{250, 750} {
			for k, off := range []float64{-60, 60} {
				ch := core.Charger{
					ID:         fmt.Sprintf("cap-%d", j),
					Pos:        geom.Pt(cx+off, cy+off),
					Fee:        4 + float64(j),
					Tariff:     pricing.Tariff{Kind: pricing.Linear, Rate: 0.10 + 0.01*float64(j)},
					Efficiency: 0.9,
				}
				if k == 0 {
					ch.Capacity = 3 * max / ch.Efficiency
				}
				in.Chargers = append(in.Chargers, ch)
				j++
			}
		}
	}
}

// TestDifferentialShardedVsWholeField is the battery's core property: on
// randomized small fields the sharded solve must stay a valid,
// capacity-respecting partition, every shard must end in a verified pure
// Nash equilibrium, and — in the well-banded regime (overlap on the
// order of the cell) — the total cost must stay within 15% of the
// whole-field CCSGA solve. Narrow or zero bands trade cost for
// decomposition, so those rows carry a documented looser bound; every
// row logs its worst and mean ratio. Deterministic seeds make the
// asserted ratios reproducible, not flaky.
func TestDifferentialShardedVsWholeField(t *testing.T) {
	rows := []struct {
		name       string
		cells      float64 // grid cells per field side
		overlap    float64 // meters (field side is 1000)
		workers    int
		capacities bool
		bound      float64
	}{
		{"halves-banded", 2, 500, 1, false, 1.15},
		{"halves-banded-w8", 2, 500, 8, false, 1.15},
		{"thirds-banded", 3, 667, 4, false, 1.15},
		{"quarters-banded", 4, 750, 4, false, 1.15},
		{"halves-banded-capped", 2, 500, 4, true, 1.15},
		{"thirds-narrow-band", 3, 150, 4, false, 2.0},
		{"disjoint", 3, 0, 4, false, 2.0},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			worst, sum, runs := 0.0, 0.0, 0
			for seed := int64(1); seed <= 12; seed++ {
				n := 20 + int(seed*7)%41 // 20..60
				m := 6 + int(seed)%5     // 6..10
				p := gen.Default()
				p.NumDevices = n
				p.NumChargers = m
				in, err := gen.Instance(seed, p)
				if err != nil {
					t.Fatal(err)
				}
				if row.capacities {
					addCapacities(in)
					m = len(in.Chargers)
				}
				res, err := Solve(in, &core.CCSGAScheduler{}, Config{
					CellSize: in.Field.Width() / row.cells,
					Overlap:  row.overlap,
					Workers:  row.workers,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := res.Schedule.Validate(n, m); err != nil {
					t.Fatalf("seed %d: sharded schedule: %v", seed, err)
				}
				cm, whole := wholeField(t, in)
				if err := cm.ValidateCapacity(res.Schedule); err != nil {
					t.Fatalf("seed %d: sharded schedule: %v", seed, err)
				}
				if !res.NashStable {
					t.Errorf("seed %d: a shard's final assignment is not a pure Nash equilibrium", seed)
				}
				ratio := res.TotalCost / cm.TotalCost(whole)
				if ratio > row.bound {
					t.Errorf("seed %d (n=%d m=%d): sharded/whole cost ratio %.4f exceeds %.2f",
						seed, n, m, ratio, row.bound)
				}
				if ratio > worst {
					worst = ratio
				}
				sum += ratio
				runs++
			}
			t.Logf("%s: worst sharded/whole cost ratio %.4f, mean %.4f over %d seeds",
				row.name, worst, sum/float64(runs), runs)
		})
	}
}

// TestShardedTotalCostMatchesSchedule cross-checks Result.TotalCost —
// summed shard by shard without ever building the global move matrix —
// against the global cost model's pricing of the same schedule.
func TestShardedTotalCostMatchesSchedule(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := gen.Default()
		p.NumDevices = 40
		p.NumChargers = 8
		in, err := gen.Instance(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(in, &core.CCSGAScheduler{}, Config{CellSize: 500, Overlap: 500, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.TotalCost, cm.TotalCost(res.Schedule)
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("seed %d: Result.TotalCost %.9f != global model's %.9f", seed, got, want)
		}
	}
}

// TestSolveErrors pins the constructor and solve error contracts.
func TestSolveErrors(t *testing.T) {
	p := gen.Default()
	in, err := gen.Instance(1, p)
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.CCSGAScheduler{}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero cell", Config{CellSize: 0, Overlap: 10}},
		{"negative cell", Config{CellSize: -5}},
		{"negative overlap", Config{CellSize: 100, Overlap: -1}},
	} {
		if _, err := Solve(in, sched, tc.cfg); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if _, err := NewPlanner(in.Field, nil, sched, Config{CellSize: 100}); err == nil {
		t.Error("no chargers: want error, got nil")
	}
	if _, err := NewPlanner(in.Field, in.Chargers, nil, Config{CellSize: 100}); err == nil {
		t.Error("nil scheduler: want error, got nil")
	}
	planner, err := NewPlanner(in.Field, in.Chargers, sched, Config{CellSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planner.Solve(nil); err == nil {
		t.Error("no devices: want error, got nil")
	}
	// A device that fits no charger's session capacity is a partition
	// error naming the device, matching core.Instance.Validate semantics.
	capped := *in
	capped.Chargers = append([]core.Charger(nil), in.Chargers...)
	for j := range capped.Chargers {
		capped.Chargers[j].Capacity = 1e-9
	}
	if _, err := Solve(&capped, sched, Config{CellSize: 100}); err == nil {
		t.Error("infeasible device: want error, got nil")
	} else if want := fmt.Sprintf("%s", in.Devices[0].ID); err != nil && !contains(err.Error(), want) {
		t.Errorf("infeasible-device error %q does not name a device (%q)", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
