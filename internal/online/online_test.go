package online

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

func testChargers() []core.Charger {
	return []core.Charger{
		{ID: "c0", Pos: geom.Pt(300, 300), Fee: 8,
			Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
		{ID: "c1", Pos: geom.Pt(700, 700), Fee: 8,
			Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
	}
}

func testArrivals(t *testing.T, n int, patience float64) []Arrival {
	t.Helper()
	arrivals, err := GenerateArrivals(7, n, 60, patience, patience*2,
		geom.Square(1000), 100, 300, 0.005, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

func testConfig(t *testing.T, policy BatchPolicy) Config {
	return Config{
		Chargers:  testChargers(),
		Arrivals:  testArrivals(t, 30, 600),
		Policy:    policy,
		Scheduler: core.CCSAScheduler{},
		Field:     geom.Square(1000),
	}
}

func TestRunServesEveryoneOnTime(t *testing.T) {
	policies := []BatchPolicy{Immediate{}, Periodic{Interval: 300}, Threshold{K: 5}}
	for _, p := range policies {
		t.Run(p.Name(), func(t *testing.T) {
			m, err := Run(testConfig(t, p))
			if err != nil {
				t.Fatal(err)
			}
			if m.Served != 30 {
				t.Errorf("served %d of 30", m.Served)
			}
			if m.DeadlineMisses != 0 {
				t.Errorf("%d deadline misses", m.DeadlineMisses)
			}
			if m.Rounds == 0 || m.TotalCost <= 0 {
				t.Errorf("rounds=%d cost=%v", m.Rounds, m.TotalCost)
			}
		})
	}
}

func TestImmediateHasZeroWaitAndMostRounds(t *testing.T) {
	im, err := Run(testConfig(t, Immediate{}))
	if err != nil {
		t.Fatal(err)
	}
	if im.MeanWait > 1e-9 || im.MaxWait > 1e-9 {
		t.Errorf("immediate policy waited: mean %v max %v", im.MeanWait, im.MaxWait)
	}
	th, err := Run(testConfig(t, Threshold{K: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if th.Rounds >= im.Rounds {
		t.Errorf("threshold rounds %d >= immediate rounds %d", th.Rounds, im.Rounds)
	}
	if th.MeanWait <= 0 {
		t.Error("threshold policy should incur waiting")
	}
}

func TestBatchingBeatsImmediateOnCost(t *testing.T) {
	im, err := Run(testConfig(t, Immediate{}))
	if err != nil {
		t.Fatal(err)
	}
	th, err := Run(testConfig(t, Threshold{K: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if th.TotalCost >= im.TotalCost {
		t.Errorf("batching cost %v >= immediate cost %v", th.TotalCost, im.TotalCost)
	}
}

func TestOfflineClairvoyantLowerBoundsPolicies(t *testing.T) {
	cfg := testConfig(t, Threshold{K: 6})
	off, err := OfflineClairvoyant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []BatchPolicy{Immediate{}, Periodic{Interval: 300}, Threshold{K: 6}} {
		cfg.Policy = p
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalCost < off-1e-6 {
			t.Errorf("%s cost %v below clairvoyant %v", p.Name(), m.TotalCost, off)
		}
	}
}

func TestTightDeadlinesForceRounds(t *testing.T) {
	// Patience shorter than the threshold accumulation time: forced
	// rounds must still serve everyone on time.
	cfg := Config{
		Chargers:  testChargers(),
		Arrivals:  testArrivals(t, 20, 30), // 30–60 s patience, 60 s interarrivals
		Policy:    Threshold{K: 15},        // would wait forever otherwise
		Scheduler: core.CCSAScheduler{},
		Field:     geom.Square(1000),
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 20 || m.DeadlineMisses != 0 {
		t.Errorf("served=%d misses=%d", m.Served, m.DeadlineMisses)
	}
	if m.MaxWait > 60 {
		t.Errorf("max wait %v exceeds the patience window", m.MaxWait)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig(t, Periodic{Interval: 300}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, Periodic{Interval: 300}))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.Rounds != b.Rounds {
		t.Error("online run not deterministic")
	}
}

func TestRunValidation(t *testing.T) {
	good := testConfig(t, Immediate{})
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no chargers", func(c *Config) { c.Chargers = nil }},
		{"no arrivals", func(c *Config) { c.Arrivals = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"nil scheduler", func(c *Config) { c.Scheduler = nil }},
		{"bad deadline", func(c *Config) { c.Arrivals[0].Deadline = c.Arrivals[0].At }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			cfg.Arrivals = append([]Arrival(nil), good.Arrivals...)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateArrivalsProperties(t *testing.T) {
	arrivals, err := GenerateArrivals(3, 50, 10, 100, 200,
		geom.Square(500), 50, 100, 0.01, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 50 {
		t.Fatalf("len = %d", len(arrivals))
	}
	prev := 0.0
	for i, a := range arrivals {
		if a.At < prev {
			t.Fatalf("arrival %d out of order", i)
		}
		prev = a.At
		if a.Deadline-a.At < 100 || a.Deadline-a.At > 200 {
			t.Fatalf("arrival %d patience %v outside [100,200]", i, a.Deadline-a.At)
		}
		if a.Device.Demand < 50 || a.Device.Demand > 100 {
			t.Fatalf("arrival %d demand out of range", i)
		}
	}
	if _, err := GenerateArrivals(3, 0, 10, 1, 2, geom.Square(10), 1, 2, 0, 0.1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := GenerateArrivals(3, 5, -1, 1, 2, geom.Square(10), 1, 2, 0, 0.1); err == nil {
		t.Error("negative interarrival should error")
	}
}

func TestPolicyNames(t *testing.T) {
	if (Immediate{}).Name() == "" || (Periodic{300}).Name() == "" || (Threshold{5}).Name() == "" {
		t.Error("empty policy name")
	}
	if math.IsNaN(1) { // keep math import honest alongside future edits
		t.Fatal("unreachable")
	}
}
