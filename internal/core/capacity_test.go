package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
)

// capacitatedInstance: one cheap charger too small to host everyone, one
// expensive fallback — forcing coalitions to split.
func capacitatedInstance() *Instance {
	return &Instance{
		Field: geom.Square(100),
		Devices: []Device{
			{ID: "a", Pos: geom.Pt(10, 10), Demand: 100, MoveRate: 0.01},
			{ID: "b", Pos: geom.Pt(20, 10), Demand: 100, MoveRate: 0.01},
			{ID: "c", Pos: geom.Pt(30, 10), Demand: 100, MoveRate: 0.01},
			{ID: "d", Pos: geom.Pt(40, 10), Demand: 100, MoveRate: 0.01},
		},
		Chargers: []Charger{
			{ID: "small", Pos: geom.Pt(25, 10), Fee: 2,
				Tariff: pricing.Tariff{Kind: pricing.Linear, Rate: 0.02}, Efficiency: 1, Capacity: 250},
			{ID: "big", Pos: geom.Pt(25, 40), Fee: 5,
				Tariff: pricing.Tariff{Kind: pricing.Linear, Rate: 0.05}, Efficiency: 1},
		},
	}
}

func randCapacitatedInstance(r *rand.Rand, n, m int) *Instance {
	in := randInstance(r, n, m)
	for j := range in.Chargers {
		// Capacities sized to hold roughly 2–4 average purchases.
		in.Chargers[j].Capacity = (500 + r.Float64()*1500) / in.Chargers[j].Efficiency
	}
	return in
}

func TestCapacityValidation(t *testing.T) {
	in := capacitatedInstance()
	if err := in.Validate(); err != nil {
		t.Fatalf("valid capacitated instance rejected: %v", err)
	}
	in.Chargers[0].Capacity = -1
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("negative capacity err = %v", err)
	}
	// A device that fits nowhere.
	in = capacitatedInstance()
	in.Chargers[0].Capacity = 50
	in.Chargers[1].Capacity = 50
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "fits no charger") {
		t.Errorf("oversized device err = %v", err)
	}
}

// TestCapacityToleranceAgreesWithDeltaOps: Instance.Validate and the
// delta ops share one fits-alone rule, with the 1e-12 relative tolerance
// of every session-capacity check. A device that overshoots a 100 J
// capacity by 5e-13 relative is accepted by AddDevice and UpdateDevice,
// so a fresh build over the patched instance must accept it too and give
// the same tables; one that overshoots by 1e-9 is rejected by all three.
func TestCapacityToleranceAgreesWithDeltaOps(t *testing.T) {
	base := func() *Instance {
		return &Instance{
			Field:   geom.Square(100),
			Devices: []Device{{ID: "a", Pos: geom.Pt(10, 10), Demand: 50, MoveRate: 0.01}},
			Chargers: []Charger{{ID: "only", Pos: geom.Pt(25, 10), Fee: 2,
				Tariff: pricing.Tariff{Kind: pricing.Linear, Rate: 0.02}, Efficiency: 1, Capacity: 100}},
		}
	}
	edge := Device{ID: "edge", Pos: geom.Pt(30, 10), Demand: 100 * (1 + 5e-13), MoveRate: 0.01}
	for _, op := range []string{"AddDevice", "UpdateDevice"} {
		cm := mustCostModel(t, base())
		var err error
		if op == "AddDevice" {
			err = cm.AddDevice(edge)
		} else {
			err = cm.UpdateDevice(0, edge)
		}
		if err != nil {
			t.Fatalf("%s of a device within the capacity tolerance: %v", op, err)
		}
		fresh, err := NewCostModel(cloneInstance(cm.Instance()))
		if err != nil {
			t.Fatalf("%s accepted the device, a fresh build rejects it: %v", op, err)
		}
		for i := 0; i < cm.NumDevices(); i++ {
			gotCost, gotJ := cm.StandaloneCost(i)
			wantCost, wantJ := fresh.StandaloneCost(i)
			if gotCost != wantCost || gotJ != wantJ {
				t.Errorf("%s: device %d standalone (%v, %d), fresh build (%v, %d)", op, i, gotCost, gotJ, wantCost, wantJ)
			}
		}
	}
	over := edge
	over.Demand = 100 * (1 + 1e-9)
	if err := mustCostModel(t, base()).AddDevice(over); err == nil {
		t.Error("AddDevice accepted a device beyond the capacity tolerance")
	}
	if err := mustCostModel(t, base()).UpdateDevice(0, over); err == nil {
		t.Error("UpdateDevice accepted a device beyond the capacity tolerance")
	}
	in := base()
	in.Devices = append(in.Devices, over)
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "fits no charger") {
		t.Errorf("Validate of a device beyond the capacity tolerance: %v", err)
	}
}

func TestFeasibleAndValidateCapacity(t *testing.T) {
	cm := mustCostModel(t, capacitatedInstance())
	if !cm.HasCapacity() {
		t.Fatal("HasCapacity = false")
	}
	if !cm.Feasible([]int{0, 1}, 0) {
		t.Error("two devices (200 J) should fit capacity 250")
	}
	if cm.Feasible([]int{0, 1, 2}, 0) {
		t.Error("three devices (300 J) should not fit capacity 250")
	}
	if !cm.Feasible([]int{0, 1, 2, 3}, 1) {
		t.Error("unlimited charger should always be feasible")
	}
	bad := &Schedule{Coalitions: []Coalition{{Charger: 0, Members: []int{0, 1, 2, 3}}}}
	if err := cm.ValidateCapacity(bad); err == nil {
		t.Error("overfull schedule should fail ValidateCapacity")
	}
	good := &Schedule{Coalitions: []Coalition{
		{Charger: 0, Members: []int{0, 1}},
		{Charger: 0, Members: []int{2, 3}},
	}}
	if err := cm.ValidateCapacity(good); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
}

func TestCapacitatedSchedulersRespectCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 10; trial++ {
		in := randCapacitatedInstance(r, 9, 3)
		cm := mustCostModel(t, in)
		for _, s := range []Scheduler{
			NoncoopScheduler{},
			CCSAScheduler{},
			CCSGAScheduler{},
			OptimalScheduler{},
		} {
			sched, err := s.Schedule(cm)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := sched.Validate(9, 3); err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := cm.ValidateCapacity(sched); err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
		}
	}
}

func TestCapacitatedOptimalBeatsHeuristics(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	for trial := 0; trial < 8; trial++ {
		in := randCapacitatedInstance(r, 8, 3)
		cm := mustCostModel(t, in)
		opt, err := Optimal(cm)
		if err != nil {
			t.Fatal(err)
		}
		optCost := cm.TotalCost(opt)
		for _, s := range []Scheduler{NoncoopScheduler{}, CCSAScheduler{}, CCSGAScheduler{}} {
			sched, err := s.Schedule(cm)
			if err != nil {
				t.Fatal(err)
			}
			if c := cm.TotalCost(sched); optCost > c+1e-6*(1+c) {
				t.Errorf("trial %d: OPT %v above %s %v", trial, optCost, s.Name(), c)
			}
		}
	}
}

func TestCapacityForcesSplitSessions(t *testing.T) {
	cm := mustCostModel(t, capacitatedInstance())
	opt, err := Optimal(cm)
	if err != nil {
		t.Fatal(err)
	}
	// The cheap charger holds at most 2 of the 4 devices per session, so
	// the optimal schedule needs at least two sessions.
	if len(opt.Coalitions) < 2 {
		t.Errorf("coalitions = %d, want >= 2 (capacity must split)", len(opt.Coalitions))
	}
	if err := cm.ValidateCapacity(opt); err != nil {
		t.Error(err)
	}
	// CCSA handles it too, possibly reusing the small charger twice.
	res, err := CCSA(cm, CCSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.ValidateCapacity(res.Schedule); err != nil {
		t.Error(err)
	}
}

func TestCapacitatedCCSARejectsSFMOracle(t *testing.T) {
	cm := mustCostModel(t, capacitatedInstance())
	if _, err := CCSA(cm, CCSAOptions{Oracle: SFMOracle}); err == nil {
		t.Error("SFM oracle with capacities should error")
	}
}

func TestCapacitatedCCSGANash(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	for trial := 0; trial < 5; trial++ {
		in := randCapacitatedInstance(r, 12, 4)
		cm := mustCostModel(t, in)
		res, err := CCSGA(cm, CCSGAOptions{Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence", trial)
		}
		if err := cm.ValidateCapacity(res.Schedule); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Nash stability holds with infeasible deviations priced +Inf.
		if !res.NashStable {
			t.Fatalf("trial %d: not Nash-stable", trial)
		}
	}
}

func TestStandaloneSkipsInfeasibleChargers(t *testing.T) {
	in := capacitatedInstance()
	// Shrink the cheap charger below a single device's purchase: every
	// standalone session must use the big charger.
	in.Chargers[0].Capacity = 50
	cm := mustCostModel(t, in)
	for i := 0; i < 4; i++ {
		if _, j := cm.StandaloneCost(i); j != 1 {
			t.Errorf("device %d standalone at charger %d, want 1", i, j)
		}
	}
	non := Noncooperative(cm)
	if err := cm.ValidateCapacity(non); err != nil {
		t.Error(err)
	}
}

func TestCapacityUnlimitedBackCompat(t *testing.T) {
	// Capacity zero must change nothing: same optimal cost as before.
	r := rand.New(rand.NewSource(404))
	in := randInstance(r, 7, 3)
	cm := mustCostModel(t, in)
	opt1, err := Optimal(cm)
	if err != nil {
		t.Fatal(err)
	}
	for j := range in.Chargers {
		in.Chargers[j].Capacity = 0
	}
	cm2 := mustCostModel(t, in)
	opt2, err := Optimal(cm2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cm.TotalCost(opt1)-cm2.TotalCost(opt2)) > 1e-9 {
		t.Error("explicit zero capacity changed the optimum")
	}
}

// The ESS branch of chargerGame.Share must price a hypothetical join into
// a full session slot at +Inf — the capacitated counterpart of the PDS
// branch — both directly and through the seeded dynamics.
func TestESSShareFullSlotInfeasible(t *testing.T) {
	in := capacitatedInstance() // "small" holds 250 J; devices need 100 J each
	cm := mustCostModel(t, in)
	game, err := newChargerGame(cm, ESS{})
	if err != nil {
		t.Fatal(err)
	}
	chargerOf, firstSlot := SessionSlots(cm)
	// Fill the small charger's first slot with devices a and b (200 of
	// 250 J); c and d go to the unlimited charger.
	small, big := firstSlot[0], firstSlot[1]
	game.reset([]int{small, small, big, big})
	if sh := game.share(2, small); !math.IsInf(sh, 1) {
		t.Errorf("ESS share for joining a full slot = %v, want +Inf", sh)
	}
	// The same hypothetical join within capacity is finite.
	spare := -1
	for s, j := range chargerOf {
		if j == 0 && s != small {
			spare = s
		}
	}
	if spare >= 0 {
		if sh := game.share(2, spare); math.IsInf(sh, 1) {
			t.Error("ESS share for a slot with room = +Inf, want finite")
		}
	}
	// A member of the full slot prices its own (current) slot finitely.
	if sh := game.share(0, small); math.IsInf(sh, 1) {
		t.Errorf("ESS share for the current slot = %v, want finite", sh)
	}

	// End to end: CCSGA under ESS with capacities must still produce a
	// capacity-respecting Nash-stable schedule.
	res, err := CCSGA(cm, CCSGAOptions{Scheme: ESS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.ValidateCapacity(res.Schedule); err != nil {
		t.Error(err)
	}
	if !res.NashStable {
		t.Error("ESS capacitated run not Nash stable")
	}
}
