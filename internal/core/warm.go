package core

import (
	"fmt"
	"sort"
)

// WarmStart carries CCSGA equilibria across related solves. The caller
// records each solve's outcome; Seed then builds a CCSGAOptions.Init for
// the next (possibly perturbed) instance by mapping every device the
// carrier remembers — matched by device ID — onto the charger it settled
// at last time, while unknown devices start standalone exactly like the
// cold path. Coalition-formation dynamics started near an equilibrium
// converge in far fewer passes than from the noncooperative assignment,
// which is the entire point: across a stream of related rounds the
// equilibrium survives and only the perturbation is re-solved.
//
// A WarmStart is not safe for concurrent use; guard it externally when
// solves overlap.
type WarmStart struct {
	charger map[string]int // device ID → charger index at last equilibrium
}

// NewWarmStart returns an empty carrier.
func NewWarmStart() *WarmStart {
	return &WarmStart{charger: make(map[string]int)}
}

// set records one device's charger directly. The incremental repair path
// uses it to keep the carrier current in O(seat changes) per solve — the
// resulting map is identical to a full Record of the repaired schedule,
// because every unchanged device already carries its (unchanged) charger
// from the priming Record.
func (w *WarmStart) set(id string, charger int) {
	if w.charger == nil {
		w.charger = make(map[string]int)
	}
	w.charger[id] = charger
}

// Record stores the schedule's device→charger choices keyed by device ID,
// overwriting earlier entries for returning devices. Devices absent from
// the schedule keep their previous entry: a device that sat out a round
// still warm-starts from its last known charger when it returns.
func (w *WarmStart) Record(in *Instance, s *Schedule) {
	if w.charger == nil {
		w.charger = make(map[string]int)
	}
	for _, c := range s.Coalitions {
		for _, i := range c.Members {
			w.charger[in.Devices[i].ID] = c.Charger
		}
	}
}

// Seed builds a validated CCSGAOptions.Init for cm: remembered devices are
// seeded at their previous charger, everyone else at its standalone
// charger. Under session capacities (or mobile-charger travel budgets)
// devices are packed largest-demand first into the target charger's
// slots, falling back to the cheapest feasible slot anywhere when the
// target is full (pickSlot). It returns an error only when some device
// fits no slot at all — the "capacities too tight" condition. An empty
// carrier yields exactly the cold start every CCSGA solve begins from.
func (w *WarmStart) Seed(cm *CostModel) ([]int, error) {
	chargerOf, firstSlot := SessionSlots(cm)
	init, err := seedSlots(cm, chargerOf, firstSlot, w.charger)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return init, nil
}

// seedSlots is Seed over a given session-slot layout, with carrier
// mapping device IDs to their remembered chargers. A nil carrier is the
// cold start: every device targets its standalone charger.
func seedSlots(cm *CostModel, chargerOf, firstSlot []int, carrier map[string]int) ([]int, error) {
	in := cm.Instance()
	init := make([]int, cm.NumDevices())
	target := func(i int) int {
		if j, ok := carrier[in.Devices[i].ID]; ok && j >= 0 && j < len(firstSlot) {
			return j
		}
		_, j := cm.StandaloneCost(i)
		return j
	}
	if !cm.HasCapacity() && !cm.HasTravelBudget() {
		for i := range init {
			init[i] = firstSlot[target(i)]
		}
		return init, nil
	}
	order := make([]int, cm.NumDevices())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Devices[order[a]].Demand > in.Devices[order[b]].Demand
	})
	remaining := make([]float64, len(chargerOf))
	for s, j := range chargerOf {
		remaining[s] = in.Chargers[j].Capacity // 0 = unlimited
	}
	fitter := newBudgetFitter(cm, chargerOf)
	for _, i := range order {
		s := pickSlot(cm, chargerOf, firstSlot, i, target(i), func(s int) bool {
			ch := &in.Chargers[chargerOf[s]]
			if ch.Capacity > 0 && in.Devices[i].Demand/ch.Efficiency > remaining[s]*(1+1e-12) {
				return false
			}
			return fitter.fits(i, s)
		})
		if s < 0 {
			return nil, fmt.Errorf("device %s fits no session slot: capacities or travel budgets too tight", in.Devices[i].ID)
		}
		init[i] = s
		fitter.take(i, s)
		if ch := &in.Chargers[chargerOf[s]]; ch.Capacity > 0 {
			remaining[s] -= in.Devices[i].Demand / ch.Efficiency
		}
	}
	return init, nil
}

// pickSlot is the one seating rule of every CCSGA start — cold, warm
// and repair's newcomers: the first slot of charger target that fits
// device i, otherwise the cheapest slot anywhere that fits (the lowest
// slot index among equal costs). It returns -1 when no slot fits.
func pickSlot(cm *CostModel, chargerOf, firstSlot []int, i, target int, fits func(s int) bool) int {
	for s := firstSlot[target]; s < len(chargerOf) && chargerOf[s] == target; s++ {
		if fits(s) {
			return s
		}
	}
	best, bestCost := -1, 0.0
	for s, j := range chargerOf {
		if !fits(s) {
			continue
		}
		if c := cm.SessionCost([]int{i}, j); best < 0 || c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}
