package gen

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in, err := Instance(12, Default())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Devices) != len(in.Devices) || len(got.Chargers) != len(in.Chargers) {
		t.Fatal("size mismatch after round trip")
	}
	for i := range in.Devices {
		if got.Devices[i] != in.Devices[i] {
			t.Fatalf("device %d mismatch", i)
		}
	}
	for j := range in.Chargers {
		a, b := in.Chargers[j], got.Chargers[j]
		if a.ID != b.ID || a.Pos != b.Pos || a.Fee != b.Fee || a.Efficiency != b.Efficiency {
			t.Fatalf("charger %d mismatch", j)
		}
		for _, e := range []float64{1, 123, 4567} {
			if math.Abs(a.Tariff.Price(e)-b.Tariff.Price(e)) > 1e-9 {
				t.Fatalf("charger %d tariff mismatch at %v", j, e)
			}
		}
	}
}

func TestEncodeDecodeAllTariffKinds(t *testing.T) {
	in := &core.Instance{
		Field: geom.Square(100),
		Devices: []core.Device{
			{ID: "d", Pos: geom.Pt(1, 1), Demand: 10, MoveRate: 0.1},
		},
		Chargers: []core.Charger{
			{ID: "lin", Pos: geom.Pt(0, 0), Fee: 1, Tariff: pricing.Tariff{Kind: pricing.Linear, Rate: 0.5}, Efficiency: 1},
			{ID: "pow", Pos: geom.Pt(2, 2), Fee: 1, Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.8}, Efficiency: 0.9},
			{ID: "tier", Pos: geom.Pt(3, 3), Fee: 1, Tariff: testutil.MustTiered([]pricing.Tier{
				{UpTo: 100, Rate: 0.5}, {UpTo: math.Inf(1), Rate: 0.2},
			}), Efficiency: 0.8},
		},
	}
	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"inf"`) {
		t.Error("unbounded tier should encode as \"inf\"")
	}
	got, err := DecodeInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	for j := range in.Chargers {
		for _, e := range []float64{10, 150, 900} {
			a := in.Chargers[j].Tariff.Price(e)
			b := got.Chargers[j].Tariff.Price(e)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("charger %s price mismatch at %v: %v vs %v", in.Chargers[j].ID, e, a, b)
			}
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := DecodeInstance([]byte("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	// Valid JSON but invalid instance (no chargers).
	if _, err := DecodeInstance([]byte(`{"fieldSide":10,"devices":[{"id":"d","x":1,"y":1,"demandJ":5,"moveRatePerM":0.1}]}`)); err == nil {
		t.Error("instance without chargers should error")
	}
	// Unknown tariff kind.
	bad := `{"fieldSide":10,
		"devices":[{"id":"d","x":1,"y":1,"demandJ":5,"moveRatePerM":0.1}],
		"chargers":[{"id":"c","x":0,"y":0,"feeUSD":1,"efficiency":1,"tariff":{"kind":"magic"}}]}`
	if _, err := DecodeInstance([]byte(bad)); err == nil {
		t.Error("unknown tariff kind should error")
	}
}
