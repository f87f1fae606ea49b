package mwrsn

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/pricing"
)

func testConfig(s core.Scheduler) Config {
	chargers := []core.Charger{
		{ID: "c0", Pos: geom.Pt(250, 250), Fee: 6, Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
		{ID: "c1", Pos: geom.Pt(750, 750), Fee: 6, Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
	}
	return Config{
		Field:    geom.Square(1000),
		NumNodes: 12,
		Chargers: chargers,
		Node: NodeParams{
			BatteryCapacity: 2000,
			InitialLevel:    1400,
			Consumption: energy.ConsumptionModel{
				IdleW: 0.05, SenseW: 0.3, SenseDuty: 0.3, RadioW: 0.6, RadioDuty: 0.1,
			},
			SpeedMps:       1.5,
			MoveRate:       0.01,
			MoveEnergyPerM: 0.3,
		},
		PauseSeconds:    120,
		TickSeconds:     30,
		RoundSeconds:    1800,
		ChargeThreshold: 0.5,
		Scheduler:       s,
		DurationSeconds: 6 * 3600,
		Seed:            1,
	}
}

func TestRunProducesActivity(t *testing.T) {
	m, err := Run(testConfig(core.CCSAScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds == 0 {
		t.Error("no charging rounds happened; consumption/threshold miscalibrated")
	}
	if m.Sessions < m.Rounds {
		t.Errorf("sessions %d < rounds %d", m.Sessions, m.Rounds)
	}
	if m.MonetaryCost <= 0 {
		t.Errorf("monetary cost = %v", m.MonetaryCost)
	}
	if m.EnergyDelivered <= 0 {
		t.Errorf("energy delivered = %v", m.EnergyDelivered)
	}
	if m.MeanAliveFraction <= 0 || m.MeanAliveFraction > 1 {
		t.Errorf("alive fraction = %v", m.MeanAliveFraction)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig(core.CCSAScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(core.CCSAScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if a.MonetaryCost != b.MonetaryCost || a.Rounds != b.Rounds ||
		a.Deaths != b.Deaths || a.EnergyDelivered != b.EnergyDelivered {
		t.Errorf("nondeterministic run: %+v vs %+v", a, b)
	}
}

func TestCooperativeCheaperThanNoncoopOverLifetime(t *testing.T) {
	coop, err := Run(testConfig(core.CCSAScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	non, err := Run(testConfig(core.NoncoopScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if coop.MonetaryCost >= non.MonetaryCost {
		t.Errorf("CCSA lifetime cost %v >= noncoop %v", coop.MonetaryCost, non.MonetaryCost)
	}
}

func TestStarvedNetworkDies(t *testing.T) {
	cfg := testConfig(core.NoncoopScheduler{})
	cfg.Node.InitialLevel = 40
	cfg.RoundSeconds = cfg.DurationSeconds * 2 // effectively never charge
	cfg.DurationSeconds = 3 * 3600
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Deaths != cfg.NumNodes {
		t.Errorf("deaths = %d, want all %d", m.Deaths, cfg.NumNodes)
	}
	if m.FirstDeathAt < 0 {
		t.Error("FirstDeathAt unset despite deaths")
	}
	if m.MeanAliveFraction > 0.2 {
		t.Errorf("alive fraction %v too high for a starved network", m.MeanAliveFraction)
	}
}

func TestChargingKeepsNetworkAlive(t *testing.T) {
	cfg := testConfig(core.CCSAScheduler{})
	cfg.DurationSeconds = 12 * 3600
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Deaths != 0 {
		t.Errorf("deaths = %d with ample charging", m.Deaths)
	}
	if math.Abs(m.MeanAliveFraction-1) > 1e-9 {
		t.Errorf("alive fraction = %v, want 1", m.MeanAliveFraction)
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nodes", func(c *Config) { c.NumNodes = 0 }},
		{"chargers", func(c *Config) { c.Chargers = nil }},
		{"battery", func(c *Config) { c.Node.BatteryCapacity = 0 }},
		{"speed", func(c *Config) { c.Node.SpeedMps = 0 }},
		{"tick", func(c *Config) { c.TickSeconds = 0 }},
		{"round", func(c *Config) { c.RoundSeconds = 0 }},
		{"threshold low", func(c *Config) { c.ChargeThreshold = 0 }},
		{"threshold high", func(c *Config) { c.ChargeThreshold = 1 }},
		{"scheduler", func(c *Config) { c.Scheduler = nil }},
		{"duration", func(c *Config) { c.DurationSeconds = 0 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(core.NoncoopScheduler{})
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}
