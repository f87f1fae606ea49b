package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
)

// TestWarmStartSurvivesRemoveReAdd pins the index-shift contract the
// session protocol leans on: RemoveDevice(i) shifts every later device
// down by one, AddDevice re-enters at the end, and because WarmStart
// keys on device IDs — never indices — a remove followed by a re-add of
// the same device leaves Seed consistent: every device still seeds at
// its remembered charger, and (uncapacitated) the warm re-solve confirms
// the old equilibrium in one pass with zero switches.
func TestWarmStartSurvivesRemoveReAdd(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		name := "uncapacitated"
		if capacitated {
			name = "capacitated"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			in := warmInstance(r, 10, 3, capacitated)
			cm := mustCostModel(t, in)
			ws := NewWarmStart()
			sched := CCSGAScheduler{}
			res, err := sched.ScheduleRepair(cm, ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantCharger := make(map[string]int)
			for _, c := range res.Schedule.Coalitions {
				for _, i := range c.Members {
					wantCharger[cm.Instance().Devices[i].ID] = c.Charger
				}
			}

			// Remove a middle device (so later indices shift), then re-add
			// the identical device: it re-enters at the end.
			k := 4
			dev := cm.Instance().Devices[k]
			if err := cm.RemoveDevice(k); err != nil {
				t.Fatal(err)
			}
			if err := cm.AddDevice(dev); err != nil {
				t.Fatal(err)
			}
			last := cm.NumDevices() - 1
			if got := cm.Instance().Devices[last].ID; got != dev.ID {
				t.Fatalf("re-added device at index %d is %q, want %q", last, got, dev.ID)
			}

			// Seed must still map every device — including the re-added one
			// at its new index — to its remembered charger.
			init, err := ws.Seed(cm)
			if err != nil {
				t.Fatal(err)
			}
			chargerOf, _ := SessionSlots(cm)
			for i, d := range cm.Instance().Devices {
				if got := chargerOf[init[i]]; got != wantCharger[d.ID] {
					t.Errorf("device %s seeded at charger %d, want %d", d.ID, got, wantCharger[d.ID])
				}
			}

			again, err := sched.ScheduleRepair(cm, ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !again.NashStable {
				t.Error("re-solve after remove/re-add not Nash stable")
			}
			if !capacitated && (again.Passes != 1 || again.Switches != 0) {
				// Uncapacitated seeding reconstructs the equilibrium
				// partition exactly, so the dynamics must confirm it
				// immediately. (Capacitated seeding re-packs slots
				// largest-first and may land on a differently-split but
				// equally-stable partition, so only stability is pinned.)
				t.Errorf("re-solve: passes=%d switches=%d, want 1/0", again.Passes, again.Switches)
			}
			if got, want := cm.TotalCost(again.Schedule), cm.TotalCost(res.Schedule); !capacitated && got != want {
				t.Errorf("re-solve cost %v, want %v", got, want)
			}
		})
	}
}

// TestPropertyDeltaOpsBitIdentical extends the add/remove bit-identity
// property to the full delta vocabulary the session protocol streams:
// join (AddDevice), leave (RemoveDevice), demand change (UpdateDevice),
// and tariff change (SetTariff). After every op the model must be bit-
// identical to a fresh NewCostModel over the patched instance.
func TestPropertyDeltaOpsBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := warmInstance(r, 3+r.Intn(6), 1+r.Intn(4), seed%2 == 0)
		cm := mustCostModel(t, in)
		for op := 0; op < 40; op++ {
			switch n := cm.NumDevices(); {
			case n > 1 && r.Float64() < 0.25:
				if err := cm.RemoveDevice(r.Intn(n)); err != nil {
					t.Fatalf("seed %d op %d remove: %v", seed, op, err)
				}
			case r.Float64() < 0.35:
				i := r.Intn(n)
				d := cm.Instance().Devices[i]
				d.Demand = 50 + r.Float64()*300
				if r.Float64() < 0.5 {
					d.Pos = in.Field.Clamp(geom.Pt(d.Pos.X+(r.Float64()*2-1)*40, d.Pos.Y+(r.Float64()*2-1)*40))
				}
				if err := cm.UpdateDevice(i, d); err != nil {
					t.Fatalf("seed %d op %d update: %v", seed, op, err)
				}
			case r.Float64() < 0.3:
				j := r.Intn(cm.NumChargers())
				if err := cm.SetTariff(j, pricing.Linear{Rate: 0.02 + r.Float64()*0.04}); err != nil {
					t.Fatalf("seed %d op %d tariff: %v", seed, op, err)
				}
			default:
				pos := geom.UniformPoints(r, in.Field, 1)[0]
				d := Device{
					ID:       fmt.Sprintf("add-%d-%d", seed, op),
					Pos:      pos,
					Demand:   50 + r.Float64()*300,
					MoveRate: 0.005 + r.Float64()*0.02,
				}
				if err := cm.AddDevice(d); err != nil {
					t.Fatalf("seed %d op %d add: %v", seed, op, err)
				}
			}
			cp := &Instance{Field: in.Field}
			cp.Devices = append([]Device(nil), cm.Instance().Devices...)
			cp.Chargers = append([]Charger(nil), cm.Instance().Chargers...)
			fresh, err := NewCostModel(cp)
			if err != nil {
				t.Fatalf("seed %d op %d rebuild: %v", seed, op, err)
			}
			for i := 0; i < cm.NumDevices(); i++ {
				gs, gj := cm.StandaloneCost(i)
				fs, fj := fresh.StandaloneCost(i)
				if math.Float64bits(gs) != math.Float64bits(fs) || gj != fj {
					t.Fatalf("seed %d op %d: standalone[%d] = (%v,%d), want (%v,%d)",
						seed, op, i, gs, gj, fs, fj)
				}
				for j := 0; j < cm.NumChargers(); j++ {
					if math.Float64bits(cm.MovingCost(i, j)) != math.Float64bits(fresh.MovingCost(i, j)) {
						t.Fatalf("seed %d op %d: move[%d][%d] differs", seed, op, i, j)
					}
				}
			}
		}
	}
}

// TestUpdateDeviceValidation pins UpdateDevice's reject-and-leave-
// untouched contract.
func TestUpdateDeviceValidation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	in := warmInstance(r, 4, 2, false)
	cm := mustCostModel(t, in)
	before, beforeJ := cm.StandaloneCost(1)
	good := cm.Instance().Devices[1]

	bad := good
	bad.Demand = -5
	if err := cm.UpdateDevice(1, bad); err == nil {
		t.Error("negative demand accepted")
	}
	bad = good
	bad.Demand = math.Inf(1)
	if err := cm.UpdateDevice(1, bad); err == nil {
		t.Error("infinite demand accepted")
	}
	bad = good
	bad.MoveRate = math.NaN()
	if err := cm.UpdateDevice(1, bad); err == nil {
		t.Error("NaN move rate accepted")
	}
	if err := cm.UpdateDevice(9, good); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := cm.UpdateDevice(-1, good); err == nil {
		t.Error("negative index accepted")
	}
	if after, afterJ := cm.StandaloneCost(1); after != before || afterJ != beforeJ {
		t.Error("failed UpdateDevice mutated the model")
	}

	// A demand update that overflows every capacitated charger is rejected.
	capped := &Instance{Field: in.Field}
	capped.Devices = append([]Device(nil), in.Devices...)
	capped.Chargers = append([]Charger(nil), in.Chargers...)
	for j := range capped.Chargers {
		capped.Chargers[j].Capacity = 1000
	}
	ccm := mustCostModel(t, capped)
	huge := ccm.Instance().Devices[0]
	huge.Demand = 5000
	if err := ccm.UpdateDevice(0, huge); err == nil {
		t.Error("capacity-infeasible update accepted")
	}
}

// TestSetTariffValidation pins SetTariff's reject-and-leave-untouched
// contract.
func TestSetTariffValidation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	in := warmInstance(r, 4, 2, false)
	cm := mustCostModel(t, in)
	before, beforeJ := cm.StandaloneCost(0)

	if err := cm.SetTariff(5, pricing.Linear{Rate: 0.03}); err == nil {
		t.Error("out-of-range charger accepted")
	}
	if err := cm.SetTariff(0, nil); err == nil {
		t.Error("nil tariff accepted")
	}
	if err := cm.SetTariff(0, pricing.Linear{Rate: -1}); err == nil {
		t.Error("decreasing tariff accepted")
	}
	if after, afterJ := cm.StandaloneCost(0); after != before || afterJ != beforeJ {
		t.Error("failed SetTariff mutated the model")
	}

	if err := cm.SetTariff(0, pricing.Linear{Rate: 0.05}); err != nil {
		t.Fatalf("valid tariff rejected: %v", err)
	}
}
