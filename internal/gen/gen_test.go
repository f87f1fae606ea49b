package gen

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestInstanceDeterministic(t *testing.T) {
	p := Default()
	a, err := Instance(42, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instance(42, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Devices) != len(b.Devices) || len(a.Chargers) != len(b.Chargers) {
		t.Fatal("sizes differ")
	}
	for i := range a.Devices {
		if a.Devices[i] != b.Devices[i] {
			t.Fatalf("device %d differs: %+v vs %+v", i, a.Devices[i], b.Devices[i])
		}
	}
	for j := range a.Chargers {
		if a.Chargers[j].Pos != b.Chargers[j].Pos || a.Chargers[j].Fee != b.Chargers[j].Fee {
			t.Fatalf("charger %d differs", j)
		}
	}
	c, err := Instance(43, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Devices[0] == c.Devices[0] {
		t.Error("different seeds should differ")
	}
}

func TestInstanceRespectsParams(t *testing.T) {
	p := Default()
	p.NumDevices, p.NumChargers = 25, 7
	in, err := Instance(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Devices) != 25 || len(in.Chargers) != 7 {
		t.Fatalf("sizes = %d/%d", len(in.Devices), len(in.Chargers))
	}
	for _, d := range in.Devices {
		if d.Demand < p.DemandMin || d.Demand > p.DemandMax {
			t.Fatalf("demand %v outside [%v,%v]", d.Demand, p.DemandMin, p.DemandMax)
		}
		if d.MoveRate < p.MoveRateMin || d.MoveRate > p.MoveRateMax {
			t.Fatalf("move rate %v out of range", d.MoveRate)
		}
		if in.Field.DistTo(d.Pos) != 0 {
			t.Fatalf("device outside field: %v", d.Pos)
		}
	}
	for _, c := range in.Chargers {
		if c.Fee < p.FeeMin || c.Fee > p.FeeMax {
			t.Fatalf("fee %v out of range", c.Fee)
		}
		if c.Efficiency < p.EfficiencyMin || c.Efficiency > p.EfficiencyMax {
			t.Fatalf("efficiency %v out of range", c.Efficiency)
		}
	}
}

func TestInstanceScales(t *testing.T) {
	p := Default()
	base, err := Instance(5, p)
	if err != nil {
		t.Fatal(err)
	}
	p.DemandScale = 2
	p.MoveRateScale = 3
	scaled, err := Instance(5, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Devices {
		if math.Abs(scaled.Devices[i].Demand-2*base.Devices[i].Demand) > 1e-9 {
			t.Fatalf("demand scale wrong at %d", i)
		}
		if math.Abs(scaled.Devices[i].MoveRate-3*base.Devices[i].MoveRate) > 1e-9 {
			t.Fatalf("move rate scale wrong at %d", i)
		}
	}
}

func TestInstanceLayouts(t *testing.T) {
	for _, layout := range []Layout{Uniform, Clustered, Grid, Perimeter} {
		p := Default()
		p.DeviceLayout = layout
		p.ChargerLayout = layout
		in, err := Instance(9, p)
		if err != nil {
			t.Fatalf("layout %d: %v", layout, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("layout %d: %v", layout, err)
		}
	}
	p := Default()
	p.DeviceLayout = Layout(99)
	if _, err := Instance(9, p); err == nil {
		t.Error("unknown layout should error")
	}
}

func TestLinearTariffPath(t *testing.T) {
	p := Default()
	p.TariffExponent = 1
	in, err := Instance(3, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Params)
	}{
		{"field", func(p *Params) { p.FieldSide = 0 }},
		{"devices", func(p *Params) { p.NumDevices = 0 }},
		{"chargers", func(p *Params) { p.NumChargers = 0 }},
		{"demand", func(p *Params) { p.DemandMin = -1 }},
		{"demand order", func(p *Params) { p.DemandMax = p.DemandMin / 2 }},
		{"move rate", func(p *Params) { p.MoveRateMin = -1 }},
		{"fee", func(p *Params) { p.FeeMin = -1 }},
		{"energy rate", func(p *Params) { p.EnergyRateMin = 0 }},
		{"exponent", func(p *Params) { p.TariffExponent = 1.5 }},
		{"efficiency", func(p *Params) { p.EfficiencyMax = 1.2 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := Default()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("Default params invalid: %v", err)
	}
}

func TestFieldExperiment(t *testing.T) {
	in, err := FieldExperiment(DefaultFieldParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Chargers) != 5 || len(in.Devices) != 8 {
		t.Fatalf("testbed = %d chargers, %d devices; want 5, 8", len(in.Chargers), len(in.Devices))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic: two builds identical.
	in2, err := FieldExperiment(DefaultFieldParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Devices {
		if in.Devices[i] != in2.Devices[i] {
			t.Fatal("field experiment not deterministic")
		}
	}
	// The economics must reward cooperation on the testbed.
	cm, err := core.NewCostModel(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CCSA(cm, core.CCSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coop := cm.TotalCost(res.Schedule)
	non := cm.TotalCost(core.Noncooperative(cm))
	if coop >= non {
		t.Errorf("testbed: CCSA %v not cheaper than noncoop %v", coop, non)
	}
}
