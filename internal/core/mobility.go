package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/tour"
)

// This file holds the heterogeneous mobile-charger extension: chargers
// that drive a round-trip rendezvous tour through their members instead
// of devices traveling to a fixed service point. A mobile charger zeroes
// its column of the device moving-cost matrix and adds a travel leg —
// MoveRate × planned tour length — to every session it serves, optionally
// capped by a per-session TravelBudget. All of it is inert when no
// charger sets Mobile: the stationary cost paths are bit-identical to the
// paper's model.

// finitePoint reports whether both coordinates are finite.
func finitePoint(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Home returns the point a mobile charger's tours start and end at: the
// Depot when set, otherwise Pos. For a stationary charger it is simply
// Pos.
func (c *Charger) Home() geom.Point {
	if c.Depot != (geom.Point{}) {
		return c.Depot
	}
	return c.Pos
}

// reaches reports whether the charger can serve a device at p standalone:
// stationary chargers (and mobile ones without a budget) reach
// everything; a budgeted mobile charger needs the round trip home → p →
// home to fit its travel budget.
func (c *Charger) reaches(p geom.Point) bool {
	if !c.Mobile || c.TravelBudget == 0 {
		return true
	}
	return 2*c.Home().Dist(p) <= c.TravelBudget*(1+1e-12)
}

// validateMobility checks the charger's mobility attributes: a stationary
// charger must leave all of them zero (the zero value is the
// compatibility contract with the stationary model), a mobile one needs
// finite nonnegative rate/speed/budget and a finite depot.
func (c *Charger) validateMobility() error {
	if !c.Mobile {
		if c.MoveRate != 0 || c.Speed != 0 || c.TravelBudget != 0 || c.Depot != (geom.Point{}) {
			return fmt.Errorf("stationary charger has mobility attributes (move rate %v, speed %v, travel budget %v, depot %v); set Mobile",
				c.MoveRate, c.Speed, c.TravelBudget, c.Depot)
		}
		return nil
	}
	if c.MoveRate < 0 || math.IsNaN(c.MoveRate) || math.IsInf(c.MoveRate, 0) {
		return fmt.Errorf("mobile charger move rate %v invalid", c.MoveRate)
	}
	if c.Speed < 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
		return fmt.Errorf("mobile charger speed %v invalid", c.Speed)
	}
	if c.TravelBudget < 0 || math.IsNaN(c.TravelBudget) || math.IsInf(c.TravelBudget, 0) {
		return fmt.Errorf("mobile charger travel budget %v invalid", c.TravelBudget)
	}
	if !finitePoint(c.Depot) {
		return fmt.Errorf("mobile charger depot %v non-finite", c.Depot)
	}
	return nil
}

// HasMobility reports whether any charger is mobile.
func (cm *CostModel) HasMobility() bool { return cm.hasMobility }

// HasTravelBudget reports whether any mobile charger caps its per-session
// tour length.
func (cm *CostModel) HasTravelBudget() bool { return cm.hasBudget }

// TourLength returns the planned round-trip tour length (meters) charger
// j drives to serve the members: tour.Plan (nearest neighbor + 2-opt)
// from the charger's home through every member's position, with the
// members offered in ascending device-index order so the planned tour —
// and therefore every tour-aware cost — depends only on the member set,
// never on join history. Zero for a stationary charger or an empty
// member list. The members need not be sorted.
func (cm *CostModel) TourLength(members []int, j int) float64 {
	ch := &cm.inst.Chargers[j]
	if !ch.Mobile || len(members) == 0 {
		return 0
	}
	stops := make([]geom.Point, len(members))
	if sort.IntsAreSorted(members) {
		for k, i := range members {
			stops[k] = cm.inst.Devices[i].Pos
		}
	} else {
		sorted := append([]int(nil), members...)
		sort.Ints(sorted)
		for k, i := range sorted {
			stops[k] = cm.inst.Devices[i].Pos
		}
	}
	_, length, err := tour.Plan(ch.Home(), stops)
	if err != nil {
		// Positions are validated finite at construction; an error here
		// means the invariant broke, and an infeasible (infinite) tour is
		// the graceful answer.
		return math.Inf(1)
	}
	return length
}

// TravelCost returns charger j's travel cost for serving the members:
// MoveRate × TourLength. Zero for stationary chargers.
func (cm *CostModel) TravelCost(members []int, j int) float64 {
	ch := &cm.inst.Chargers[j]
	if !ch.Mobile || ch.MoveRate == 0 || len(members) == 0 {
		return 0
	}
	return ch.MoveRate * cm.TourLength(members, j)
}

// ValidateTravel checks every coalition's planned tour against its
// charger's travel budget.
func (cm *CostModel) ValidateTravel(s *Schedule) error {
	if !cm.hasBudget {
		return nil
	}
	for k, c := range s.Coalitions {
		ch := &cm.inst.Chargers[c.Charger]
		if !ch.Mobile || ch.TravelBudget == 0 {
			continue
		}
		if l := cm.TourLength(c.Members, c.Charger); l > ch.TravelBudget*(1+1e-12) {
			return fmt.Errorf("core: coalition %d exceeds charger %d travel budget (%.1f m > %.1f m)",
				k, c.Charger, l, ch.TravelBudget)
		}
	}
	return nil
}

// budgetFitter tracks per-slot membership during greedy packing so the
// seeding packer (seedSlots, which every cold and warm start runs) can
// respect mobile chargers' travel budgets. A nil fitter accepts everything, which
// is the correct answer whenever the instance has no travel budgets.
type budgetFitter struct {
	cm        *CostModel
	chargerOf []int
	members   [][]int
}

// newBudgetFitter returns a fitter for the slot layout, or nil when no
// charger has a travel budget (the packers then skip the tour work
// entirely).
func newBudgetFitter(cm *CostModel, chargerOf []int) *budgetFitter {
	if !cm.hasBudget {
		return nil
	}
	return &budgetFitter{cm: cm, chargerOf: chargerOf, members: make([][]int, len(chargerOf))}
}

// fits reports whether adding device i to slot s keeps the slot's planned
// tour within its charger's travel budget.
func (f *budgetFitter) fits(i, s int) bool {
	if f == nil {
		return true
	}
	j := f.chargerOf[s]
	ch := &f.cm.inst.Chargers[j]
	if !ch.Mobile || ch.TravelBudget == 0 {
		return true
	}
	trial := append(append([]int(nil), f.members[s]...), i)
	return f.cm.TourLength(trial, j) <= ch.TravelBudget*(1+1e-12)
}

// take commits device i to slot s.
func (f *budgetFitter) take(i, s int) {
	if f == nil {
		return
	}
	f.members[s] = append(f.members[s], i)
}
