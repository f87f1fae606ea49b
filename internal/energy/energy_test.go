package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBatteryValidation(t *testing.T) {
	tests := []struct {
		name     string
		capacity float64
		ok       bool
	}{
		{"positive", 100, true},
		{"zero", 0, false},
		{"negative", -1, false},
		{"nan", math.NaN(), false},
		{"inf", math.Inf(1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewBattery(tt.capacity, 10)
			if (err == nil) != tt.ok {
				t.Errorf("NewBattery(%v) err = %v, want ok=%v", tt.capacity, err, tt.ok)
			}
		})
	}
}

func TestNewBatteryClampsLevel(t *testing.T) {
	b, err := NewBattery(100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if b.level != 100 {
		t.Errorf("Level = %v, want clamped to 100", b.level)
	}
	b, _ = NewBattery(100, -5)
	if b.level != 0 {
		t.Errorf("Level = %v, want clamped to 0", b.level)
	}
}

func TestBatteryDrainCharge(t *testing.T) {
	b, _ := NewBattery(100, 60)
	if got := b.Drain(20); got != 20 || b.level != 40 {
		t.Errorf("Drain(20) = %v, level %v", got, b.level)
	}
	if got := b.Drain(1000); got != 40 || b.level > 0 {
		t.Errorf("over-Drain = %v, level %v", got, b.level)
	}
	if got := b.Drain(-1); got != 0 {
		t.Errorf("negative Drain = %v", got)
	}
	if got := b.Charge(30); got != 30 || b.level != 30 {
		t.Errorf("Charge(30) = %v, level %v", got, b.level)
	}
	if got := b.Charge(1000); got != 70 || b.level != 100 {
		t.Errorf("over-Charge = %v, level %v", got, b.level)
	}
	if got := b.Charge(-1); got != 0 {
		t.Errorf("negative Charge = %v", got)
	}
	if b.Deficit() != 0 || b.Fraction() != 1 {
		t.Errorf("Deficit/Fraction = %v/%v", b.Deficit(), b.Fraction())
	}
}

// Battery invariant: level always in [0, capacity] under any operation mix.
func TestBatteryInvariantProperty(t *testing.T) {
	prop := func(ops []float64) bool {
		b, err := NewBattery(500, 250)
		if err != nil {
			return false
		}
		for i, raw := range ops {
			amt := math.Mod(math.Abs(raw), 1e4)
			if math.IsNaN(amt) {
				amt = 1
			}
			if i%2 == 0 {
				b.Drain(amt)
			} else {
				b.Charge(amt)
			}
			if b.level < 0 || b.level > b.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConsumptionModel(t *testing.T) {
	m := ConsumptionModel{
		IdleW:       0.01,
		SenseW:      0.2,
		SenseDuty:   0.1,
		RadioW:      0.5,
		RadioDuty:   0.02,
		MoveWPerMps: 2,
	}
	wantAvg := 0.01 + 0.02 + 0.01
	if got := m.AveragePowerW(); math.Abs(got-wantAvg) > 1e-12 {
		t.Errorf("AveragePowerW = %v, want %v", got, wantAvg)
	}
	if got := m.Consume(10, 0); math.Abs(got-wantAvg*10) > 1e-12 {
		t.Errorf("Consume stationary = %v", got)
	}
	if got := m.Consume(10, 1.5); math.Abs(got-(wantAvg+3)*10) > 1e-12 {
		t.Errorf("Consume moving = %v", got)
	}
	if got := m.Consume(-1, 0); got != 0 {
		t.Errorf("Consume negative dt = %v, want 0", got)
	}
	if got := m.Consume(10, -5); math.Abs(got-wantAvg*10) > 1e-12 {
		t.Errorf("Consume negative speed should ignore speed, got %v", got)
	}
}
