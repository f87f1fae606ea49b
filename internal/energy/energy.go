// Package energy models batteries and energy consumption for
// rechargeable sensor devices.
//
// Units: joules (J) for energy, watts (W) for power, seconds for time,
// meters for distance.
package energy

import (
	"fmt"
	"math"
)

// Battery is a simple rechargeable battery with a hard capacity.
// The zero value is an empty battery of zero capacity; construct real
// batteries with NewBattery.
type Battery struct {
	capacity float64 // J
	level    float64 // J, 0 <= level <= capacity
}

// NewBattery returns a battery with the given capacity and initial level.
// The level is clamped into [0, capacity].
func NewBattery(capacity, level float64) (*Battery, error) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("energy: invalid capacity %v", capacity)
	}
	b := &Battery{capacity: capacity}
	b.level = clamp(level, 0, capacity)
	return b, nil
}

// Deficit returns capacity − level: the energy demand of a full recharge.
func (b *Battery) Deficit() float64 { return b.capacity - b.level }

// Fraction returns level/capacity in [0,1].
func (b *Battery) Fraction() float64 {
	if b.capacity == 0 {
		return 0
	}
	return b.level / b.capacity
}

// Drain removes up to amount joules and returns the amount actually
// removed (less when the battery empties). Negative amounts are ignored.
func (b *Battery) Drain(amount float64) float64 {
	if amount <= 0 || math.IsNaN(amount) {
		return 0
	}
	taken := math.Min(amount, b.level)
	b.level -= taken
	return taken
}

// Charge adds up to amount joules and returns the amount actually stored
// (less when the battery fills). Negative amounts are ignored.
func (b *Battery) Charge(amount float64) float64 {
	if amount <= 0 || math.IsNaN(amount) {
		return 0
	}
	stored := math.Min(amount, b.capacity-b.level)
	b.level += stored
	return stored
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

// ConsumptionModel gives a device's average power draw. Sensing and radio
// duty cycles dominate; movement is billed separately (it is a monetary
// cost in the CCS model, and a battery cost in the lifetime simulator).
type ConsumptionModel struct {
	// IdleW is the baseline draw (MCU sleep + clock), watts.
	IdleW float64
	// SenseW is the additional draw while sampling, watts.
	SenseW float64
	// SenseDuty is the fraction of time spent sampling, in [0,1].
	SenseDuty float64
	// RadioW is the additional draw while transmitting, watts.
	RadioW float64
	// RadioDuty is the fraction of time spent transmitting, in [0,1].
	RadioDuty float64
	// MoveWPerMps is the additional draw per meter/second of movement,
	// watts per (m/s); multiply by speed while the device travels.
	MoveWPerMps float64
}

// AveragePowerW returns the stationary average power draw in watts.
func (m ConsumptionModel) AveragePowerW() float64 {
	return m.IdleW + m.SenseW*m.SenseDuty + m.RadioW*m.RadioDuty
}

// Consume returns the energy (J) consumed over dt seconds while moving at
// speed m/s (0 for stationary).
func (m ConsumptionModel) Consume(dt, speed float64) float64 {
	if dt <= 0 {
		return 0
	}
	return (m.AveragePowerW() + m.MoveWPerMps*math.Max(speed, 0)) * dt
}
