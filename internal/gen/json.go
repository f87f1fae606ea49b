package gen

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// The DTOs below give core.Instance a stable JSON form. Tariffs are an
// interface, so they serialize as a tagged union.

// TariffDTO is the wire form of a pricing.Tariff.
type TariffDTO struct {
	Kind string `json:"kind"` // "linear" | "powerlaw" | "tiered"
	// Linear.
	Rate float64 `json:"rate,omitempty"`
	// PowerLaw.
	Coeff    float64 `json:"coeff,omitempty"`
	Exponent float64 `json:"exponent,omitempty"`
	// Tiered: bounds use math.Inf(1) encoded as the string "inf".
	Tiers []TierDTO `json:"tiers,omitempty"`
}

// TierDTO is one tier of a tiered tariff; UpTo of "inf" means unbounded.
type TierDTO struct {
	UpTo string  `json:"upTo"`
	Rate float64 `json:"rate"`
}

// DeviceDTO is the wire form of a core.Device.
type DeviceDTO struct {
	ID       string  `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Demand   float64 `json:"demandJ"`
	MoveRate float64 `json:"moveRatePerM"`
}

// ChargerDTO is the wire form of a core.Charger. The mobility fields all
// carry omitempty, so a stationary charger's JSON is byte-identical to
// the pre-mobility wire form.
type ChargerDTO struct {
	ID         string    `json:"id"`
	X          float64   `json:"x"`
	Y          float64   `json:"y"`
	Fee        float64   `json:"feeUSD"`
	Tariff     TariffDTO `json:"tariff"`
	Efficiency float64   `json:"efficiency"`
	Capacity   float64   `json:"capacityJ,omitempty"`
	Mobile     bool      `json:"mobile,omitempty"`
	MoveRate   float64   `json:"moveRatePerM,omitempty"`
	Speed      float64   `json:"speedMPerS,omitempty"`
	Budget     float64   `json:"travelBudgetM,omitempty"`
	DepotX     float64   `json:"depotX,omitempty"`
	DepotY     float64   `json:"depotY,omitempty"`
}

// InstanceDTO is the wire form of a core.Instance.
type InstanceDTO struct {
	FieldSide float64      `json:"fieldSide"`
	Devices   []DeviceDTO  `json:"devices"`
	Chargers  []ChargerDTO `json:"chargers"`
}

// EncodeInstance marshals an instance to indented JSON.
func EncodeInstance(in *core.Instance) ([]byte, error) {
	dto := InstanceDTO{FieldSide: in.Field.Width()}
	for _, d := range in.Devices {
		dto.Devices = append(dto.Devices, DeviceDTO{
			ID: d.ID, X: d.Pos.X, Y: d.Pos.Y, Demand: d.Demand, MoveRate: d.MoveRate,
		})
	}
	for _, c := range in.Chargers {
		td, err := tariffDTO(c.Tariff)
		if err != nil {
			return nil, fmt.Errorf("gen: charger %s: %w", c.ID, err)
		}
		dto.Chargers = append(dto.Chargers, ChargerDTO{
			ID: c.ID, X: c.Pos.X, Y: c.Pos.Y, Fee: c.Fee, Tariff: td,
			Efficiency: c.Efficiency, Capacity: c.Capacity,
			Mobile: c.Mobile, MoveRate: c.MoveRate, Speed: c.Speed,
			Budget: c.TravelBudget, DepotX: c.Depot.X, DepotY: c.Depot.Y,
		})
	}
	return json.MarshalIndent(dto, "", "  ")
}

// DecodeInstance unmarshals an instance from JSON and validates it.
func DecodeInstance(data []byte) (*core.Instance, error) {
	in, err := ParseInstance(data)
	if err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ParseInstance unmarshals an instance from JSON without validating it,
// for callers that validate later anyway (core.NewCostModel does). The
// one-pass scanner decodes the common form; anything outside its
// grammar goes to the encoding/json reference decoder, so the result
// and every error are the reference's.
func ParseInstance(data []byte) (*core.Instance, error) {
	if in, ok := scanInstance(data); ok {
		return in, nil
	}
	return decodeReference(data)
}

// decodeReference is the encoding/json decoder the scanner must match:
// it decodes every input, and its errors are the public ones.
func decodeReference(data []byte) (*core.Instance, error) {
	var dto InstanceDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("gen: decode instance: %w", err)
	}
	in := &core.Instance{Field: geom.Square(dto.FieldSide)}
	for _, d := range dto.Devices {
		in.Devices = append(in.Devices, core.Device{
			ID: d.ID, Pos: geom.Pt(d.X, d.Y), Demand: d.Demand, MoveRate: d.MoveRate,
		})
	}
	for _, c := range dto.Chargers {
		tf, err := tariffFromDTO(c.Tariff)
		if err != nil {
			return nil, fmt.Errorf("gen: charger %s: %w", c.ID, err)
		}
		in.Chargers = append(in.Chargers, core.Charger{
			ID: c.ID, Pos: geom.Pt(c.X, c.Y), Fee: c.Fee, Tariff: tf,
			Efficiency: c.Efficiency, Capacity: c.Capacity,
			Mobile: c.Mobile, MoveRate: c.MoveRate, Speed: c.Speed,
			TravelBudget: c.Budget, Depot: geom.Pt(c.DepotX, c.DepotY),
		})
	}
	return in, nil
}

// DecodeTariff converts a tagged-union DTO back to a tariff.
func DecodeTariff(d TariffDTO) (pricing.Tariff, error) { return tariffFromDTO(d) }

func tariffDTO(t pricing.Tariff) (TariffDTO, error) {
	switch tf := t.(type) {
	case pricing.Linear:
		return TariffDTO{Kind: "linear", Rate: tf.Rate}, nil
	case pricing.PowerLaw:
		return TariffDTO{Kind: "powerlaw", Coeff: tf.Coeff, Exponent: tf.Exponent}, nil
	case *pricing.Tiered:
		out := TariffDTO{Kind: "tiered"}
		for _, tier := range tf.Tiers() {
			upTo := "inf"
			if !math.IsInf(tier.UpTo, 1) {
				upTo = fmt.Sprintf("%g", tier.UpTo)
			}
			out.Tiers = append(out.Tiers, TierDTO{UpTo: upTo, Rate: tier.Rate})
		}
		return out, nil
	default:
		return TariffDTO{}, fmt.Errorf("unsupported tariff type %T", t)
	}
}

func tariffFromDTO(d TariffDTO) (pricing.Tariff, error) {
	switch d.Kind {
	case "linear":
		return pricing.Linear{Rate: d.Rate}, nil
	case "powerlaw":
		return pricing.PowerLaw{Coeff: d.Coeff, Exponent: d.Exponent}, nil
	case "tiered":
		tiers := make([]pricing.Tier, 0, len(d.Tiers))
		for _, td := range d.Tiers {
			upTo := math.Inf(1)
			if td.UpTo != "inf" {
				if _, err := fmt.Sscanf(td.UpTo, "%g", &upTo); err != nil {
					return nil, fmt.Errorf("bad tier bound %q: %w", td.UpTo, err)
				}
			}
			tiers = append(tiers, pricing.Tier{UpTo: upTo, Rate: td.Rate})
		}
		return pricing.NewTiered(tiers)
	default:
		return nil, fmt.Errorf("unknown tariff kind %q", d.Kind)
	}
}
