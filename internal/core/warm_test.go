package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// warmInstance is randInstance with unique device IDs (the WarmStart
// carrier keys on them) and optional session capacities.
func warmInstance(r *rand.Rand, n, m int, capacitated bool) *Instance {
	in := randInstance(r, n, m)
	for i := range in.Devices {
		in.Devices[i].ID = fmt.Sprintf("dev-%03d", i)
	}
	if capacitated {
		for j := range in.Chargers {
			// Roomy enough that every device fits alone, tight enough
			// that grand coalitions split across slots.
			in.Chargers[j].Capacity = 700 + r.Float64()*600
		}
	}
	return in
}

// perturb mutates the instance like one round of a streaming workload:
// positions drift, some demands are redrawn, one device may leave and one
// may arrive. Returns the new instance (fresh slices, same IDs).
func perturb(r *rand.Rand, in *Instance, step int) *Instance {
	out := &Instance{Field: in.Field, Chargers: in.Chargers}
	out.Devices = append([]Device(nil), in.Devices...)
	for i := range out.Devices {
		if r.Float64() < 0.5 {
			out.Devices[i].Pos = in.Field.Clamp(geom.Pt(
				out.Devices[i].Pos.X+(r.Float64()*2-1)*40,
				out.Devices[i].Pos.Y+(r.Float64()*2-1)*40))
		}
		if r.Float64() < 0.2 {
			out.Devices[i].Demand = 50 + r.Float64()*300
		}
	}
	if len(out.Devices) > 2 && r.Float64() < 0.4 {
		k := r.Intn(len(out.Devices))
		out.Devices = append(out.Devices[:k], out.Devices[k+1:]...)
	}
	if r.Float64() < 0.6 {
		pos := geom.UniformPoints(r, in.Field, 1)[0]
		out.Devices = append(out.Devices, Device{
			ID:       fmt.Sprintf("new-%03d", step),
			Pos:      pos,
			Demand:   50 + r.Float64()*300,
			MoveRate: 0.005 + r.Float64()*0.02,
		})
	}
	return out
}

// Warm-started CCSGA over random perturbation sequences: both the cold
// and the warm endpoint must be pure Nash equilibria, and the warm
// equilibrium's cost must stay within a small factor of the cold one's —
// per solve and, much tighter, on average. This is the empirical bound
// DESIGN.md §6 refers to: selfish switch dynamics started from a
// different seed can land on a different Nash equilibrium, so exact cost
// equality is not guaranteed; what the test pins is that warm starts
// never degrade cost beyond a few percent on any solve and break even in
// aggregate.
func TestPropertyWarmStartNashStableAndCostBounded(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		name := "uncapacitated"
		if capacitated {
			name = "capacitated"
		}
		t.Run(name, func(t *testing.T) {
			var ratioSum float64
			var solves int
			for seed := int64(1); seed <= 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				in := warmInstance(r, 8+r.Intn(8), 2+r.Intn(3), capacitated)
				ws := NewWarmStart()
				warmSched := CCSGAScheduler{}
				for step := 0; step < 6; step++ {
					cm, err := NewCostModel(in)
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					cold, err := CCSGA(cm, CCSGAOptions{})
					if err != nil {
						t.Fatalf("seed %d step %d cold: %v", seed, step, err)
					}
					warm, err := warmSched.ScheduleRepair(cm, ws, nil)
					if err != nil {
						t.Fatalf("seed %d step %d warm: %v", seed, step, err)
					}
					if !cold.NashStable {
						t.Errorf("seed %d step %d: cold endpoint not Nash stable", seed, step)
					}
					if !warm.NashStable {
						t.Errorf("seed %d step %d: warm endpoint not Nash stable", seed, step)
					}
					if err := warm.Schedule.Validate(len(in.Devices), len(in.Chargers)); err != nil {
						t.Fatalf("seed %d step %d: warm schedule invalid: %v", seed, step, err)
					}
					if err := cm.ValidateCapacity(warm.Schedule); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					coldCost := cm.TotalCost(cold.Schedule)
					warmCost := cm.TotalCost(warm.Schedule)
					if warmCost > coldCost*1.10 {
						t.Errorf("seed %d step %d: warm cost %v exceeds cold cost %v by >10%%",
							seed, step, warmCost, coldCost)
					}
					ratioSum += warmCost / coldCost
					solves++
					in = perturb(r, in, step)
				}
			}
			if mean := ratioSum / float64(solves); mean > 1.01 {
				t.Errorf("mean warm/cold cost ratio %.4f over %d solves, want ≤ 1.01", mean, solves)
			}
		})
	}
}

// On an unperturbed re-solve the warm seed IS the previous equilibrium, so
// the dynamics must confirm it in a single pass with zero switches.
func TestWarmStartResolveConvergesInOnePass(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := warmInstance(r, 12, 3, false)
	cm := mustCostModel(t, in)
	ws := NewWarmStart()
	sched := CCSGAScheduler{}
	if _, err := sched.ScheduleRepair(cm, ws, nil); err != nil {
		t.Fatal(err)
	}
	again, err := sched.ScheduleRepair(cm, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Passes != 1 || again.Switches != 0 || !again.Converged {
		t.Errorf("re-solve: passes=%d switches=%d converged=%v, want 1/0/true",
			again.Passes, again.Switches, again.Converged)
	}
}

// Seed maps remembered devices to their previous charger and unknown
// devices to their standalone charger.
func TestWarmStartSeedMapsSurvivors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := warmInstance(r, 10, 3, false)
	cm := mustCostModel(t, in)
	res, err := CCSGA(cm, CCSGAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWarmStart()
	ws.Record(in, res.Schedule)
	if len(ws.charger) != 10 {
		t.Fatalf("recorded %d devices, want 10", len(ws.charger))
	}

	// Survivors keep their equilibrium charger; a brand-new device starts
	// standalone.
	next := &Instance{Field: in.Field, Chargers: in.Chargers}
	next.Devices = append(next.Devices, in.Devices[:6]...)
	next.Devices = append(next.Devices, Device{
		ID: "fresh", Pos: geom.Pt(111, 222), Demand: 200, MoveRate: 0.01,
	})
	ncm := mustCostModel(t, next)
	init, err := ws.Seed(ncm)
	if err != nil {
		t.Fatal(err)
	}
	chargerOf, firstSlot := SessionSlots(ncm)
	prev := make(map[string]int)
	for _, c := range res.Schedule.Coalitions {
		for _, i := range c.Members {
			prev[in.Devices[i].ID] = c.Charger
		}
	}
	for i, d := range next.Devices {
		want, ok := prev[d.ID]
		if !ok {
			_, want = ncm.StandaloneCost(i)
		}
		if got := chargerOf[init[i]]; got != want {
			t.Errorf("device %s seeded at charger %d, want %d", d.ID, got, want)
		}
	}
	if init[6] != firstSlot[chargerOf[init[6]]] {
		t.Errorf("uncapacitated seed should use the charger's first slot")
	}
}

// Seed output always passes CCSGA's Init validation, including under
// session capacities where the previous charger may be full.
func TestWarmStartSeedValidUnderCapacities(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := warmInstance(r, 10, 2, true)
		cm := mustCostModel(t, in)
		ws := NewWarmStart()
		sched := CCSGAScheduler{}
		if _, err := sched.ScheduleRepair(cm, ws, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Shrink capacities so the remembered chargers overflow and Seed
		// must fall back.
		tight := &Instance{Field: in.Field}
		tight.Devices = append([]Device(nil), in.Devices...)
		tight.Chargers = append([]Charger(nil), in.Chargers...)
		for j := range tight.Chargers {
			tight.Chargers[j].Capacity = 650
		}
		tcm, err := NewCostModel(tight)
		if err != nil {
			continue // some device no longer fits alone: instance invalid, skip
		}
		init, err := ws.Seed(tcm)
		if err != nil {
			continue // capacities too tight for any packing: cold start fails too
		}
		if _, err := CCSGA(tcm, CCSGAOptions{Init: init}); err != nil {
			t.Errorf("seed %d: CCSGA rejected Seed output: %v", seed, err)
		}
	}
}

func TestCCSGAInitValidation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := warmInstance(r, 6, 2, false)
	cm := mustCostModel(t, in)
	if _, err := CCSGA(cm, CCSGAOptions{Init: []int{0}}); err == nil {
		t.Error("short init accepted")
	}
	if _, err := CCSGA(cm, CCSGAOptions{Init: []int{0, 0, 0, 0, 0, 99}}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	ok := []int{0, 1, 0, 1, 0, 1}
	res, err := CCSGA(cm, CCSGAOptions{Init: ok})
	if err != nil {
		t.Fatalf("valid init rejected: %v", err)
	}
	if !res.NashStable {
		t.Error("seeded run not Nash stable")
	}

	// Overfilled slot under capacities.
	capped := &Instance{Field: in.Field}
	capped.Devices = append([]Device(nil), in.Devices...)
	capped.Chargers = append([]Charger(nil), in.Chargers...)
	var maxD float64
	for _, d := range capped.Devices {
		if d.Demand > maxD {
			maxD = d.Demand
		}
	}
	for j := range capped.Chargers {
		capped.Chargers[j].Capacity = maxD/capped.Chargers[j].Efficiency + 1
	}
	ccm := mustCostModel(t, capped)
	all := make([]int, len(capped.Devices)) // everyone in slot 0 overfills it
	if _, err := CCSGA(ccm, CCSGAOptions{Init: all}); err == nil {
		t.Error("overfilled init accepted")
	}
}

// The incremental mutators must leave the model bit-identical to a fresh
// NewCostModel over the same instance, through arbitrary add/remove
// sequences.
func TestPropertyIncrementalCostModelBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := warmInstance(r, 3+r.Intn(6), 1+r.Intn(4), seed%2 == 0)
		cm := mustCostModel(t, in)
		for op := 0; op < 30; op++ {
			if n := cm.NumDevices(); n > 1 && r.Float64() < 0.45 {
				if err := cm.RemoveDevice(r.Intn(n)); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			} else {
				pos := geom.UniformPoints(r, in.Field, 1)[0]
				d := Device{
					ID:       fmt.Sprintf("add-%d-%d", seed, op),
					Pos:      pos,
					Demand:   50 + r.Float64()*300,
					MoveRate: 0.005 + r.Float64()*0.02,
				}
				if err := cm.AddDevice(d); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			// Rebuild from a deep copy of the current instance and compare
			// every table bit for bit.
			cp := &Instance{Field: in.Field}
			cp.Devices = append([]Device(nil), cm.Instance().Devices...)
			cp.Chargers = append([]Charger(nil), cm.Instance().Chargers...)
			fresh, err := NewCostModel(cp)
			if err != nil {
				t.Fatalf("seed %d op %d rebuild: %v", seed, op, err)
			}
			if got, want := cm.NumDevices(), fresh.NumDevices(); got != want {
				t.Fatalf("seed %d op %d: %d devices, want %d", seed, op, got, want)
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

func TestIncrementalCostModelValidation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	in := warmInstance(r, 4, 2, false)
	cm := mustCostModel(t, in)
	if err := cm.AddDevice(Device{ID: "bad", Demand: -1}); err == nil {
		t.Error("negative demand accepted")
	}
	if err := cm.AddDevice(Device{ID: "bad", Demand: 10, MoveRate: math.NaN()}); err == nil {
		t.Error("NaN move rate accepted")
	}
	if err := cm.RemoveDevice(99); err == nil {
		t.Error("out-of-range remove accepted")
	}
	if err := cm.RemoveDevice(-1); err == nil {
		t.Error("negative remove accepted")
	}
	// A device too big for every capacitated charger is rejected.
	capped := &Instance{Field: in.Field}
	capped.Devices = append([]Device(nil), in.Devices...)
	capped.Chargers = append([]Charger(nil), in.Chargers...)
	for j := range capped.Chargers {
		capped.Chargers[j].Capacity = 1000
	}
	ccm := mustCostModel(t, capped)
	if err := ccm.AddDevice(Device{ID: "huge", Demand: 5000, MoveRate: 0.01}); err == nil {
		t.Error("oversized device accepted")
	}
	if ccm.NumDevices() != len(capped.Devices) {
		t.Error("failed AddDevice mutated the model")
	}
}
