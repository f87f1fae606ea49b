package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
)

// cloneInstance deep-copies the mutable parts of an instance so a shadow
// solver can run against a frozen snapshot.
func cloneInstance(in *Instance) *Instance {
	cp := &Instance{Field: in.Field}
	cp.Devices = append([]Device(nil), in.Devices...)
	cp.Chargers = append([]Charger(nil), in.Chargers...)
	return cp
}

// scheduleAssignment maps a schedule back to a device→slot assignment:
// the k-th coalition of a charger occupies the charger's k-th slot.
// Slots of one charger are interchangeable (identical share function),
// so any injective mapping yields an equivalent game state.
func scheduleAssignment(cm *CostModel, s *Schedule) []int {
	_, firstSlot := SessionSlots(cm)
	assign := make([]int, cm.NumDevices())
	used := make(map[int]int)
	for _, c := range s.Coalitions {
		slot := firstSlot[c.Charger] + used[c.Charger]
		used[c.Charger]++
		for _, m := range c.Members {
			assign[m] = slot
		}
	}
	return assign
}

// verifyRepairedNash rebuilds the charger game from a pristine cost
// model and checks the repaired schedule is a pure Nash equilibrium with
// the brute-force referee — no solver shortcuts involved.
func verifyRepairedNash(t *testing.T, in *Instance, s *Schedule, tag string) {
	t.Helper()
	cm, err := NewCostModel(cloneInstance(in))
	if err != nil {
		t.Fatalf("%s: shadow model: %v", tag, err)
	}
	g, err := newChargerGame(cm, PDS{})
	if err != nil {
		t.Fatalf("%s: shadow game: %v", tag, err)
	}
	assign := scheduleAssignment(cm, s)
	g.reset(assign)
	if !bruteForceNash(g) {
		t.Errorf("%s: repaired schedule is not a pure Nash equilibrium", tag)
	}
}

// randomRepairDelta applies one random delta op to cm and returns a tag
// describing it. Tariff swaps stay within Linear so the instance stays
// valid under capacities.
func randomRepairDelta(r *rand.Rand, cm *CostModel, step int) (string, error) {
	in := cm.Instance()
	switch n := cm.NumDevices(); {
	case n > 2 && r.Float64() < 0.3:
		i := r.Intn(n)
		return fmt.Sprintf("leave %d", i), cm.RemoveDevice(i)
	case r.Float64() < 0.3:
		i := r.Intn(n)
		d := in.Devices[i]
		d.Demand = 50 + r.Float64()*300
		if r.Float64() < 0.5 {
			d.Pos = in.Field.Clamp(geom.Pt(d.Pos.X+(r.Float64()*2-1)*40, d.Pos.Y+(r.Float64()*2-1)*40))
		}
		return fmt.Sprintf("update %d", i), cm.UpdateDevice(i, d)
	case r.Float64() < 0.25:
		j := r.Intn(cm.NumChargers())
		return fmt.Sprintf("tariff %d", j), cm.SetTariff(j, pricing.Tariff{Kind: pricing.Linear, Rate: 0.02 + r.Float64()*0.04})
	default:
		pos := geom.UniformPoints(r, in.Field, 1)[0]
		d := Device{
			ID:       fmt.Sprintf("join-%03d", step),
			Pos:      pos,
			Demand:   50 + r.Float64()*300,
			MoveRate: 0.005 + r.Float64()*0.02,
		}
		return "join " + d.ID, cm.AddDevice(d)
	}
}

// An unprimed RepairState routes through exactly the warm path, so the
// very first ScheduleRepair must reproduce the stateless (nil rs) solve
// bit for bit — the "full-warm path byte-identical where repair is not
// engaged" pin (the committed schedule goldens pin the cold path).
func TestRepairUnprimedMatchesWarmBytes(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		r := rand.New(rand.NewSource(11))
		in := warmInstance(r, 14, 3, capacitated)
		sched := CCSGAScheduler{}

		warmCM := mustCostModel(t, cloneInstance(in))
		warmWS := NewWarmStart()
		want, err := sched.ScheduleRepair(warmCM, warmWS, nil)
		if err != nil {
			t.Fatal(err)
		}

		repCM := mustCostModel(t, cloneInstance(in))
		repWS := NewWarmStart()
		rs := NewRepairState()
		got, err := sched.ScheduleRepair(repCM, repWS, rs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Repaired || got.FallbackReason != "" {
			t.Errorf("first solve: Repaired=%v FallbackReason=%q, want false/empty",
				got.Repaired, got.FallbackReason)
		}
		if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Errorf("unprimed repair schedule differs from warm schedule")
		}
		if gb, wb := math.Float64bits(repCM.TotalCost(got.Schedule)), math.Float64bits(warmCM.TotalCost(want.Schedule)); gb != wb {
			t.Errorf("unprimed repair cost bits %x, want %x", gb, wb)
		}
		if !rs.primed {
			t.Error("state not primed after first solve")
		}
	}
}

// The tentpole property: over randomized delta streams every repaired
// step yields a valid, capacity-feasible schedule that an independent
// full sweep verifies as a pure Nash equilibrium, with cost within 1.10×
// of the full-warm shadow on every step and within 1.01× on average —
// and the repair path must actually engage on most steps.
func TestPropertyRepairDeltaStream(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		name := "uncapacitated"
		if capacitated {
			name = "capacitated"
		}
		t.Run(name, func(t *testing.T) {
			var ratioSum float64
			var solves, repaired int
			for seed := int64(1); seed <= 10; seed++ {
				r := rand.New(rand.NewSource(seed))
				in := warmInstance(r, 20+r.Intn(20), 5, capacitated)
				cm := mustCostModel(t, cloneInstance(in))
				ws := NewWarmStart()
				rs := NewRepairState()
				// At these test sizes one slot holds >25% of the population,
				// so the default 0.5 frontier cap trips constantly; lift it
				// to the whole population here (the escape hatch has its own
				// test) so the stream mostly exercises the repair path.
				rs.frontierFrac = 1
				sched := CCSGAScheduler{}
				if _, err := sched.ScheduleRepair(cm, ws, rs); err != nil {
					t.Fatalf("seed %d prime: %v", seed, err)
				}
				for step := 0; step < 25; step++ {
					tag, err := randomRepairDelta(r, cm, step)
					if err != nil {
						t.Fatalf("seed %d step %d %s: %v", seed, step, tag, err)
					}
					// Snapshot the full-warm shadow's seed BEFORE the repair
					// records its new equilibrium into the shared carrier:
					// both paths must start from the same previous state.
					shadowCM := mustCostModel(t, cloneInstance(cm.Instance()))
					shadowInit, err := ws.Seed(shadowCM)
					if err != nil {
						t.Fatalf("seed %d step %d %s: shadow seed: %v", seed, step, tag, err)
					}
					res, err := sched.ScheduleRepair(cm, ws, rs)
					if err != nil {
						t.Fatalf("seed %d step %d %s: repair: %v", seed, step, tag, err)
					}
					id := fmt.Sprintf("seed %d step %d (%s)", seed, step, tag)
					if !res.NashStable || !res.Converged {
						t.Errorf("%s: NashStable=%v Converged=%v", id, res.NashStable, res.Converged)
					}
					if err := res.Schedule.Validate(cm.NumDevices(), cm.NumChargers()); err != nil {
						t.Fatalf("%s: invalid schedule: %v", id, err)
					}
					if err := cm.ValidateCapacity(res.Schedule); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					verifyRepairedNash(t, cm.Instance(), res.Schedule, id)

					shadow, err := CCSGA(shadowCM, CCSGAOptions{Init: shadowInit})
					if err != nil {
						t.Fatalf("%s: shadow: %v", id, err)
					}
					repairCost := cm.TotalCost(res.Schedule)
					warmCost := shadowCM.TotalCost(shadow.Schedule)
					if repairCost > warmCost*1.10 {
						t.Errorf("%s: repaired cost %v exceeds full-warm cost %v by >10%%", id, repairCost, warmCost)
					}
					ratioSum += repairCost / warmCost
					solves++
					if res.Repaired {
						repaired++
					}
				}
			}
			if mean := ratioSum / float64(solves); mean > 1.01 {
				t.Errorf("mean repaired/full-warm cost ratio %.4f over %d solves, want ≤ 1.01", mean, solves)
			}
			// Capacitated streams legitimately fall back whenever total
			// demand crosses a slot-count boundary (the layout changes), so
			// the engagement floor is lower there.
			floor := 6
			if capacitated {
				floor = 3
			}
			if repaired*10 < solves*floor {
				t.Errorf("repair engaged on only %d/%d delta solves", repaired, solves)
			}
		})
	}
}

// The repair loop's candidate choice is argmin (share, slot index), so
// flipping the enumeration order of the dirty set (and of the full
// best-response scan) must not change a single byte of any schedule —
// the moral equivalent of the shard planner's permutation pin.
func TestRepairReversedEnumerationDeterminism(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		r1 := rand.New(rand.NewSource(21))
		r2 := rand.New(rand.NewSource(21))
		in := warmInstance(rand.New(rand.NewSource(33)), 16, 3, capacitated)
		cmA := mustCostModel(t, cloneInstance(in))
		cmB := mustCostModel(t, cloneInstance(in))
		rsA, rsB := NewRepairState(), NewRepairState()
		rsB.enumReverse = true
		wsA, wsB := NewWarmStart(), NewWarmStart()
		sched := CCSGAScheduler{}
		for step := 0; step < 20; step++ {
			if _, err := randomRepairDelta(r1, cmA, step); err != nil {
				t.Fatal(err)
			}
			if _, err := randomRepairDelta(r2, cmB, step); err != nil {
				t.Fatal(err)
			}
			a, err := sched.ScheduleRepair(cmA, wsA, rsA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sched.ScheduleRepair(cmB, wsB, rsB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Fatalf("step %d: reversed enumeration changed the schedule", step)
			}
			if ab, bb := math.Float64bits(cmA.TotalCost(a.Schedule)), math.Float64bits(cmB.TotalCost(b.Schedule)); ab != bb {
				t.Fatalf("step %d: reversed enumeration changed cost bits", step)
			}
		}
	}
}

// A tiny frontier cap forces the escape hatch: the solve must fall back
// to the full warm path, report why, and still land on a verified
// equilibrium.
func TestRepairForcedFallback(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	in := warmInstance(r, 20, 2, false)
	cm := mustCostModel(t, in)
	ws := NewWarmStart()
	rs := NewRepairState()
	rs.frontierFrac = 1e-9
	sched := CCSGAScheduler{}
	if _, err := sched.ScheduleRepair(cm, ws, rs); err != nil {
		t.Fatal(err)
	}
	// Any demand change dirties a populated slot; with the cap floored at
	// one device the second frontier member trips it.
	d := cm.Instance().Devices[0]
	d.Demand *= 1.5
	if err := cm.UpdateDevice(0, d); err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleRepair(cm, ws, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired {
		t.Error("solve repaired despite a one-device frontier cap")
	}
	if res.FallbackReason == "" {
		t.Error("fallback did not report a reason")
	}
	if !res.NashStable {
		t.Error("fallback result not Nash stable")
	}
	if !rs.primed {
		t.Error("fallback did not re-prime the state")
	}
	// The re-primed state must repair again once the cap is lifted (a
	// full-population cap, since m=2 slots hold half the devices each).
	d.Demand *= 1.1
	if err := cm.UpdateDevice(0, d); err != nil {
		t.Fatal(err)
	}
	rs.frontierFrac = 1
	res2, err := sched.ScheduleRepair(cm, ws, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Repaired {
		t.Errorf("post-fallback solve did not repair (reason %q)", res2.FallbackReason)
	}
}

// Under ESS a tariff swap moves every device's standalone cost and with
// it every cached share, so repair must refuse and fall back.
func TestRepairESSTariffFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	in := warmInstance(r, 12, 3, false)
	cm := mustCostModel(t, in)
	rs := NewRepairState()
	sched := CCSGAScheduler{Opts: CCSGAOptions{Scheme: ESS{}}}
	if _, err := sched.ScheduleRepair(cm, nil, rs); err != nil {
		t.Fatal(err)
	}
	if err := cm.SetTariff(1, pricing.Tariff{Kind: pricing.Linear, Rate: 0.05}); err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleRepair(cm, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired {
		t.Error("ESS tariff swap was repaired incrementally")
	}
	if res.FallbackReason == "" {
		t.Error("ESS fallback did not report a reason")
	}
}

// A re-solve with no intervening deltas repairs trivially: no dirty
// slots, zero rounds, the exact previous schedule.
func TestRepairNoopResolve(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	in := warmInstance(r, 10, 3, false)
	cm := mustCostModel(t, in)
	rs := NewRepairState()
	sched := CCSGAScheduler{}
	first, err := sched.ScheduleRepair(cm, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sched.ScheduleRepair(cm, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Repaired || again.Switches != 0 || again.Passes != 0 {
		t.Errorf("no-op re-solve: Repaired=%v Switches=%d Passes=%d, want true/0/0",
			again.Repaired, again.Switches, again.Passes)
	}
	if !reflect.DeepEqual(first.Schedule, again.Schedule) {
		t.Error("no-op re-solve changed the schedule")
	}
}
