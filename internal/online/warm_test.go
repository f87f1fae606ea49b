package online

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// gridChargers returns the six-charger grid used by the recurring-workload
// tests and benchmarks.
func gridChargers() []core.Charger {
	out := make([]core.Charger, 6)
	for j := range out {
		out[j] = core.Charger{
			ID:         "c" + string(rune('0'+j)),
			Pos:        geom.Pt(150+float64(j%3)*350, 150+float64(j/3)*350),
			Fee:        8,
			Tariff:     pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9},
			Efficiency: 0.8,
		}
	}
	return out
}

// recurringConfig builds a 24-device, 50-visit recurring trace — the
// canonical workload where warm starts pay off (stable device IDs return
// every period).
func recurringConfig(t *testing.T, seed int64, warm bool) Config {
	t.Helper()
	arrivals, err := GenerateRecurringArrivals(seed, 24, 50, 600, 120, 300, 600,
		geom.Square(1000), 150, 450, 0.005, 0.02, 25)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Chargers:  gridChargers(),
		Arrivals:  arrivals,
		Policy:    Periodic{Interval: 600},
		Scheduler: core.CCSGAScheduler{},
		Field:     geom.Square(1000),
		WarmStart: warm,
	}
}

// TestPinnedMetricsUnchanged pins full Metrics values captured before the
// forced-deadline running minimum, the flush fix and the warm-start
// restructure landed: the online path must produce byte-identical results
// when warm starts are disabled, for both plain Schedulers (CCSA) and
// RepairSchedulers routed through ScheduleRepair with a nil carrier and
// no repair state (CCSGA).
func TestPinnedMetricsUnchanged(t *testing.T) {
	type pin struct {
		cost     float64
		rounds   int
		served   int
		meanWait float64
		maxWait  float64
		misses   int
	}
	pins := map[int64]map[string]map[string]pin{
		7: {
			"immediate": {
				"CCSA":  {1798.729964313668, 30, 30, 0, 0, 0},
				"CCSGA": {1798.729964313668, 30, 30, 0, 0, 0},
			},
			"periodic(300s)": {
				"CCSA":  {1501.5497701194186, 7, 30, 196.96840490593362, 363.4379976777643, 0},
				"CCSGA": {1441.4884374497337, 7, 30, 196.96840490593362, 363.4379976777643, 0},
			},
			"threshold(5)": {
				"CCSA":  {1540.03626755807, 7, 30, 120.61834816656105, 340.10793623391874, 0},
				"CCSGA": {1460.1519757323067, 7, 30, 120.61834816656105, 340.10793623391874, 0},
			},
		},
		11: {
			"immediate": {
				"CCSA":  {1580.682056912435, 30, 30, 0, 0, 0},
				"CCSGA": {1580.682056912435, 30, 30, 0, 0, 0},
			},
			"periodic(300s)": {
				"CCSA":  {1246.174987363056, 6, 30, 163.38224469428945, 306.92676804574273, 0},
				"CCSGA": {1214.879079957372, 6, 30, 163.38224469428945, 306.92676804574273, 0},
			},
			"threshold(5)": {
				"CCSA":  {1278.1125728989575, 7, 30, 102.86107376175259, 493.35176409823544, 0},
				"CCSGA": {1245.982989816294, 7, 30, 102.86107376175259, 493.35176409823544, 0},
			},
		},
		42: {
			"immediate": {
				"CCSA":  {1548.6298509098751, 30, 30, 0, 0, 0},
				"CCSGA": {1548.6298509098751, 30, 30, 0, 0, 0},
			},
			"periodic(300s)": {
				"CCSA":  {1341.707923608641, 9, 30, 144.14790517346944, 499.709617661249, 0},
				"CCSGA": {1257.9639650024126, 9, 30, 144.14790517346944, 499.709617661249, 0},
			},
			"threshold(5)": {
				"CCSA":  {1327.0759657733115, 8, 30, 116.27495517732604, 499.709617661249, 0},
				"CCSGA": {1245.3628336061468, 8, 30, 116.27495517732604, 499.709617661249, 0},
			},
		},
	}
	policies := map[string]BatchPolicy{
		"immediate":      Immediate{},
		"periodic(300s)": Periodic{Interval: 300},
		"threshold(5)":   Threshold{K: 5},
	}
	schedulers := map[string]core.Scheduler{
		"CCSA":  core.CCSAScheduler{},
		"CCSGA": core.CCSGAScheduler{},
	}
	for seed, byPolicy := range pins {
		arrivals, err := GenerateArrivals(seed, 30, 60, 120, 600,
			geom.Square(1000), 100, 300, 0.005, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for pname, bySched := range byPolicy {
			for sname, want := range bySched {
				m, err := Run(Config{
					Chargers:  testChargers(),
					Arrivals:  arrivals,
					Policy:    policies[pname],
					Scheduler: schedulers[sname],
					Field:     geom.Square(1000),
				})
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, pname, sname, err)
				}
				got := pin{m.TotalCost, m.Rounds, m.Served, m.MeanWait, m.MaxWait, m.DeadlineMisses}
				if got != want {
					t.Errorf("seed %d %s %s:\n got %+v\nwant %+v", seed, pname, sname, got, want)
				}
			}
		}
	}
}

// TestFlushDeadline is the regression test for the final-flush bug: the
// flush used to fire at the globally last arrival's deadline, but arrivals
// are sorted by arrival time, so the last arrival need not carry the
// latest deadline among the devices still waiting.
func TestFlushDeadline(t *testing.T) {
	waiting := []Arrival{
		{At: 0, Deadline: 900}, // earliest arrival, latest deadline
		{At: 10, Deadline: 400},
		{At: 20, Deadline: 250}, // last arrival, NOT the flush time
	}
	if got := flushDeadline(waiting); got != 900 {
		t.Errorf("flushDeadline = %v, want 900 (the latest waiting deadline)", got)
	}
	inf := []Arrival{
		{At: 0, Deadline: 500},
		{At: 10, Deadline: math.Inf(1)},
	}
	if got := flushDeadline(inf); !math.IsInf(got, 1) {
		t.Errorf("flushDeadline with an unbounded deadline = %v, want +Inf", got)
	}
}

// TestFlushBranchServesUnboundedDeadlines drives Run into the final-flush
// branch: deadlines of +Inf pass validation but never force a round, and a
// threshold the trace can't reach never triggers one, so every device is
// still waiting when the arrival stream ends.
func TestFlushBranchServesUnboundedDeadlines(t *testing.T) {
	arrivals := testArrivals(t, 8, 600)
	for i := range arrivals {
		arrivals[i].Deadline = math.Inf(1)
	}
	m, err := Run(Config{
		Chargers:  testChargers(),
		Arrivals:  arrivals,
		Policy:    Threshold{K: 100}, // never triggers
		Scheduler: core.CCSAScheduler{},
		Field:     geom.Square(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 8 || m.Rounds != 1 {
		t.Errorf("served=%d rounds=%d, want the flush to serve all 8 in one round", m.Served, m.Rounds)
	}
	if m.DeadlineMisses != 0 {
		t.Errorf("%d deadline misses against unbounded deadlines", m.DeadlineMisses)
	}
	if m.TotalCost <= 0 {
		t.Errorf("flush round cost %v", m.TotalCost)
	}
}

// TestWarmStartRequiresRepairScheduler checks the configuration error for
// schedulers that cannot carry an equilibrium.
func TestWarmStartRequiresRepairScheduler(t *testing.T) {
	cfg := testConfig(t, Periodic{Interval: 300})
	cfg.WarmStart = true // Scheduler is CCSAScheduler
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "RepairScheduler") {
		t.Fatalf("err = %v, want a RepairScheduler requirement error", err)
	}
}

// TestWarmStartRecurringTraceHalvesPasses is the headline acceptance test:
// on a 50-round recurring workload the warm-started run must use at most
// half the coalition-formation passes of the cold run, stay Nash-stable
// every round, and match the cold run's serving semantics and cost.
func TestWarmStartRecurringTraceHalvesPasses(t *testing.T) {
	cold, err := Run(recurringConfig(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(recurringConfig(t, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	// Identical batching and serving: only the solver's starting point
	// differs.
	if warm.Rounds != cold.Rounds || warm.Served != cold.Served ||
		warm.MeanWait != cold.MeanWait || warm.MaxWait != cold.MaxWait ||
		warm.DeadlineMisses != cold.DeadlineMisses {
		t.Errorf("serving semantics diverged:\nwarm %+v\ncold %+v", warm, cold)
	}
	if cold.Rounds < 50 {
		t.Fatalf("trace ran only %d rounds, want >= 50", cold.Rounds)
	}
	if warm.TotalPasses*2 > cold.TotalPasses {
		t.Errorf("warm passes %d not at most half of cold passes %d",
			warm.TotalPasses, cold.TotalPasses)
	}
	if warm.TotalSwitches >= cold.TotalSwitches {
		t.Errorf("warm switches %d >= cold switches %d", warm.TotalSwitches, cold.TotalSwitches)
	}
	if len(warm.RoundStats) != warm.Rounds {
		t.Fatalf("warm reported %d round stats for %d rounds", len(warm.RoundStats), warm.Rounds)
	}
	for i, rs := range warm.RoundStats {
		if !rs.NashStable {
			t.Errorf("warm round %d (t=%v) not Nash-stable", i, rs.At)
		}
		if rs.Passes < 1 || rs.Devices < 1 {
			t.Errorf("warm round %d implausible diagnostics %+v", i, rs)
		}
	}
	// A warm start may settle on a different pure-Nash equilibrium; on this
	// workload it is empirically as cheap as the cold one (see DESIGN §6).
	if warm.TotalCost > cold.TotalCost*1.05 {
		t.Errorf("warm cost %v more than 5%% above cold cost %v", warm.TotalCost, cold.TotalCost)
	}
}

// TestWarmMatchesColdOnOneShotTrace: when no device ever returns (unique
// request IDs), the warm carrier knows nobody, every seed is the standalone
// assignment — exactly the cold initial assignment — so the two runs must
// produce deeply equal metrics, round stats included.
func TestWarmMatchesColdOnOneShotTrace(t *testing.T) {
	base := Config{
		Chargers:  testChargers(),
		Arrivals:  testArrivals(t, 30, 600),
		Policy:    Periodic{Interval: 300},
		Scheduler: core.CCSGAScheduler{},
		Field:     geom.Square(1000),
	}
	cold, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.WarmStart = true
	wm, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, wm) {
		t.Errorf("one-shot warm run diverged from cold:\nwarm %+v\ncold %+v", wm, cold)
	}
}

// TestRoundStatsReporting: warm-capable schedulers report per-round solver
// diagnostics even on the cold path; plain schedulers report none.
func TestRoundStatsReporting(t *testing.T) {
	cfg := testConfig(t, Periodic{Interval: 300})
	cfg.Scheduler = core.CCSGAScheduler{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.RoundStats) != m.Rounds {
		t.Fatalf("%d round stats for %d rounds", len(m.RoundStats), m.Rounds)
	}
	passes, switches := 0, 0
	for i, rs := range m.RoundStats {
		if !rs.NashStable {
			t.Errorf("round %d not Nash-stable", i)
		}
		passes += rs.Passes
		switches += rs.Switches
	}
	if passes != m.TotalPasses || switches != m.TotalSwitches {
		t.Errorf("totals (%d,%d) don't match per-round sums (%d,%d)",
			m.TotalPasses, m.TotalSwitches, passes, switches)
	}
	if m.TotalPasses < m.Rounds {
		t.Errorf("total passes %d below one per round (%d rounds)", m.TotalPasses, m.Rounds)
	}
	plain, err := Run(testConfig(t, Periodic{Interval: 300})) // CCSA
	if err != nil {
		t.Fatal(err)
	}
	if plain.RoundStats != nil || plain.TotalPasses != 0 || plain.TotalSwitches != 0 {
		t.Errorf("plain scheduler reported diagnostics: %+v", plain)
	}
}

func TestGenerateRecurringArrivalsProperties(t *testing.T) {
	field := geom.Square(800)
	arrivals, err := GenerateRecurringArrivals(5, 10, 4, 500, 100, 200, 300,
		field, 100, 200, 0.01, 0.02, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 40 {
		t.Fatalf("len = %d, want 40", len(arrivals))
	}
	visitsPerID := map[string]int{}
	rateOfID := map[string]float64{}
	prev := math.Inf(-1)
	for i, a := range arrivals {
		if a.At < prev {
			t.Fatalf("arrival %d out of order", i)
		}
		prev = a.At
		visitsPerID[a.Device.ID]++
		if r, ok := rateOfID[a.Device.ID]; ok && r != a.Device.MoveRate {
			t.Fatalf("device %s changed move rate across visits", a.Device.ID)
		}
		rateOfID[a.Device.ID] = a.Device.MoveRate
		v := int(a.At / 500)
		if a.At < float64(v)*500 || a.At >= float64(v)*500+100 {
			t.Fatalf("arrival %d at %v outside its visit's jitter window", i, a.At)
		}
		if p := a.Deadline - a.At; p < 200 || p > 300 {
			t.Fatalf("arrival %d patience %v outside [200,300]", i, p)
		}
		if a.Device.Demand < 100 || a.Device.Demand > 200 {
			t.Fatalf("arrival %d demand out of range", i)
		}
		if a.Device.Pos.X < field.MinX || a.Device.Pos.X > field.MaxX ||
			a.Device.Pos.Y < field.MinY || a.Device.Pos.Y > field.MaxY {
			t.Fatalf("arrival %d position %v outside the field", i, a.Device.Pos)
		}
	}
	if len(visitsPerID) != 10 {
		t.Fatalf("%d distinct device IDs, want 10", len(visitsPerID))
	}
	for id, v := range visitsPerID {
		if v != 4 {
			t.Fatalf("device %s has %d visits, want 4", id, v)
		}
	}
	bad := []struct {
		name string
		call func() ([]Arrival, error)
	}{
		{"n=0", func() ([]Arrival, error) {
			return GenerateRecurringArrivals(5, 0, 4, 500, 100, 200, 300, field, 100, 200, 0.01, 0.02, 30)
		}},
		{"visits=0", func() ([]Arrival, error) {
			return GenerateRecurringArrivals(5, 10, 0, 500, 100, 200, 300, field, 100, 200, 0.01, 0.02, 30)
		}},
		{"jitter>=period", func() ([]Arrival, error) {
			return GenerateRecurringArrivals(5, 10, 4, 500, 500, 200, 300, field, 100, 200, 0.01, 0.02, 30)
		}},
		{"bad patience", func() ([]Arrival, error) {
			return GenerateRecurringArrivals(5, 10, 4, 500, 100, 300, 200, field, 100, 200, 0.01, 0.02, 30)
		}},
		{"negative drift", func() ([]Arrival, error) {
			return GenerateRecurringArrivals(5, 10, 4, 500, 100, 200, 300, field, 100, 200, 0.01, 0.02, -1)
		}},
	}
	for _, tt := range bad {
		if _, err := tt.call(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

// TestNaNDeadlineRejected: NaN compares false against everything, so it
// would silently bypass the deadline machinery without the explicit check.
func TestNaNDeadlineRejected(t *testing.T) {
	cfg := testConfig(t, Immediate{})
	cfg.Arrivals = append([]Arrival(nil), cfg.Arrivals...)
	cfg.Arrivals[3].Deadline = math.NaN()
	if _, err := Run(cfg); err == nil {
		t.Fatal("NaN deadline accepted")
	}
}
