package testbed

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

func TestRunTrialNoncoop(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	res, err := RunTrial(Trial{Scheduler: core.NoncoopScheduler{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulerName != "NONCOOP" {
		t.Errorf("name = %q", res.SchedulerName)
	}
	if res.Sessions != 8 {
		t.Errorf("noncoop sessions = %d, want 8 singleton sessions", res.Sessions)
	}
	if res.MeasuredCost <= 0 || res.PlannedCost <= 0 {
		t.Errorf("costs = %v / %v", res.MeasuredCost, res.PlannedCost)
	}
	if res.EnergyStored <= 0 {
		t.Errorf("energy stored = %v", res.EnergyStored)
	}
}

func TestRunTrialCCSABeatsNoncoop(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	var coop, non float64
	for seed := int64(1); seed <= 5; seed++ {
		a, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTrial(Trial{Scheduler: core.NoncoopScheduler{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		coop += a.MeasuredCost
		non += b.MeasuredCost
	}
	if coop >= non {
		t.Errorf("CCSA measured %v not below noncoop %v", coop, non)
	}
}

func TestRunTrialDeterministicGivenSeed(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	a, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MeasuredCost-b.MeasuredCost) > 1e-9 {
		t.Errorf("same seed, different measured cost: %v vs %v", a.MeasuredCost, b.MeasuredCost)
	}
	c, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeasuredCost == c.MeasuredCost {
		t.Error("different seeds produced identical measured cost (suspicious)")
	}
}

func TestMeasuredTracksPlannedWithinNoise(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	res, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(res.MeasuredCost-res.PlannedCost) / res.PlannedCost
	if rel > 0.25 {
		t.Errorf("measured %v deviates %.0f%% from planned %v", res.MeasuredCost, rel*100, res.PlannedCost)
	}
}

func TestRunTrialValidation(t *testing.T) {
	if _, err := RunTrial(Trial{}); err == nil {
		t.Error("nil scheduler should error")
	}
}

// TestCollectInstanceIndexOrderSortedByID pins the device/charger index
// order that ExecuteScheduleWith relies on: lexicographic by agent ID,
// regardless of registration order.
func TestCollectInstanceIndexOrderSortedByID(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	coord, err := NewCoordinator(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()

	// Register deliberately out of lexicographic order.
	for i, id := range []string{"d3", "d1", "d2"} {
		a, err := StartDeviceAgent(coord.Addr(), DeviceState{
			ID: id, Pos: geom.Pt(float64(i), 0), DemandJ: 10, MoveRate: 0.1,
		}, DefaultNoise(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
	}
	for _, id := range []string{"c2", "c1"} {
		a, err := StartChargerAgent(coord.Addr(), ChargerState{
			ID: id, Pos: geom.Pt(5, 5), Fee: 1, TariffCoeff: 0.1, TariffExponent: 0.9, Efficiency: 0.8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
	}
	if err := coord.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	in, err := coord.CollectInstance()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"d1", "d2", "d3"} {
		if in.Devices[i].ID != want {
			t.Errorf("Devices[%d].ID = %q, want %q", i, in.Devices[i].ID, want)
		}
	}
	for i, want := range []string{"c1", "c2"} {
		if in.Chargers[i].ID != want {
			t.Errorf("Chargers[%d].ID = %q, want %q", i, in.Chargers[i].ID, want)
		}
	}
}

func TestCoordinatorWaitReadyTimeout(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	coord, err := NewCoordinator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	if err := coord.WaitReady(50 * time.Millisecond); err == nil {
		t.Error("WaitReady with no agents should time out")
	}
}

func TestCoordinatorRejectsDuplicateIDs(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	coord, err := NewCoordinator(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	st := DeviceState{ID: "dup", Pos: geom.Pt(1, 1), DemandJ: 10, MoveRate: 0.1}
	a1, err := StartDeviceAgent(coord.Addr(), st, DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a1.Close() }()
	if _, err := StartDeviceAgent(coord.Addr(), st, DefaultNoise(), 2); err == nil {
		t.Error("duplicate device registration should fail")
	}
}

func TestChargerAgentBilling(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	coord, err := NewCoordinator(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	a, err := StartChargerAgent(coord.Addr(), ChargerState{
		ID: "c", Pos: geom.Pt(0, 0), Fee: 5, TariffCoeff: 0.1, TariffExponent: 0.9, Efficiency: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := coord.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	jc := coord.chargers["c"]
	coord.mu.Unlock()
	bill, err := jc.call(Message{Type: MsgBillReq, PurchasedJ: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := 5 + 0.1*math.Pow(100, 0.9)
	if math.Abs(bill.AmountUSD-want) > 1e-9 {
		t.Errorf("bill = %v, want %v", bill.AmountUSD, want)
	}
	if _, err := jc.call(Message{Type: MsgBillReq, PurchasedJ: -1}); err == nil {
		t.Error("negative purchase should be rejected")
	}
	billed, sessions := a.Billed()
	if sessions != 1 || math.Abs(billed-want) > 1e-9 {
		t.Errorf("Billed = %v, %d", billed, sessions)
	}
}

func TestPowerLawOfRecoversParams(t *testing.T) {
	ch := core.Charger{
		ID:         "x",
		Tariff:     pricing.PowerLaw{Coeff: 0.37, Exponent: 0.82},
		Efficiency: 1,
	}
	pl, err := powerLawOf(ch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Coeff-0.37) > 1e-9 || math.Abs(pl.Exponent-0.82) > 1e-9 {
		t.Errorf("recovered %v, %v", pl.Coeff, pl.Exponent)
	}
	// Linear tariffs are power laws with exponent 1.
	ch.Tariff = pricing.Linear{Rate: 0.2}
	pl, err = powerLawOf(ch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Exponent-1) > 1e-9 || math.Abs(pl.Coeff-0.2) > 1e-9 {
		t.Errorf("linear recovered %v, %v", pl.Coeff, pl.Exponent)
	}
}

func TestAllSchedulersRunOnTestbed(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	for _, s := range []core.Scheduler{
		core.NoncoopScheduler{},
		core.CCSAScheduler{},
		core.CCSGAScheduler{},
		core.OptimalScheduler{}, // 8 nodes: within exact-solver reach
	} {
		res, err := RunTrial(Trial{Scheduler: s, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.MeasuredCost <= 0 {
			t.Errorf("%s: measured cost %v", s.Name(), res.MeasuredCost)
		}
	}
}

func TestTrialCustomParams(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	p := gen.DefaultFieldParams()
	p.SessionFee = 20
	res, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 2, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredCost <= base.MeasuredCost {
		t.Errorf("higher fee should raise cost: %v vs %v", res.MeasuredCost, base.MeasuredCost)
	}
}

func TestRunTrialEmitsEvents(t *testing.T) {
	testutil.CheckGoroutines(t, "internal/testbed")
	var buf bytes.Buffer
	l := eventlog.New(&buf)
	res, err := RunTrial(Trial{Scheduler: core.CCSAScheduler{}, Seed: 9, Log: l})
	if err != nil {
		t.Fatal(err)
	}
	events, err := eventlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trials := eventlog.Filter(events, eventlog.KindTrial)
	if len(trials) != 1 {
		t.Fatalf("trial events = %d, want 1", len(trials))
	}
	if math.Abs(trials[0].Cost-res.MeasuredCost) > 1e-9 {
		t.Errorf("logged cost %v != result %v", trials[0].Cost, res.MeasuredCost)
	}
	charges := eventlog.Filter(events, eventlog.KindCharge)
	if len(charges) != res.Sessions {
		t.Errorf("charge events = %d, sessions = %d", len(charges), res.Sessions)
	}
}
