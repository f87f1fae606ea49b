// Package core implements the Cooperative Charging Scheduling (CCS)
// problem from "Cooperative Charging as Service: Scheduling for Mobile
// Wireless Rechargeable Sensor Networks" (ICDCS 2021): the problem model,
// the two intragroup cost-sharing schemes, and the four schedulers —
// the noncooperative baseline, the CCSA approximation algorithm (greedy +
// submodular function minimization), the CCSGA coalition-formation game,
// and the exact optimum for small instances.
//
// Units: meters, joules, dollars.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/pricing"
)

// Device is a mobile rechargeable sensor node requesting charging service.
type Device struct {
	// ID is a human-readable identifier used in reports.
	ID string
	// Pos is the device's current position.
	Pos geom.Point
	// Demand is the energy the device needs to store, in joules (> 0).
	Demand float64
	// MoveRate is the device's travel cost per meter, in $/m (>= 0).
	MoveRate float64
}

// Charger is a wireless charging service provider at a fixed service point.
type Charger struct {
	// ID is a human-readable identifier used in reports.
	ID string
	// Pos is the service point devices travel to.
	Pos geom.Point
	// Fee is the fixed per-session service fee, in $ (>= 0).
	Fee float64
	// Tariff prices the total energy purchased in a session. Must be
	// nondecreasing and concave with Tariff.Price(0) == 0.
	Tariff pricing.Tariff
	// Efficiency is the WPT transfer efficiency in (0, 1]: storing e
	// joules requires purchasing e/Efficiency joules.
	Efficiency float64
	// Capacity, when positive, caps the energy purchasable in one
	// session (joules); zero means unlimited. Capacities model charger
	// battery packs and are the extension studied by the capacitated
	// variant of every scheduler.
	Capacity float64
	// Mobile marks a charger that drives to its members instead of the
	// members traveling to it: devices pay no moving cost toward a
	// mobile charger, and the session cost gains a travel leg —
	// MoveRate times the planned round-trip tour from the charger's
	// home through every member's position. The zero value (stationary,
	// all mobility attributes zero) reproduces the paper's model bit
	// for bit.
	Mobile bool
	// MoveRate is the mobile charger's travel cost per meter, $/m
	// (>= 0). Must be zero on a stationary charger.
	MoveRate float64
	// Speed is the mobile charger's cruise speed, m/s (>= 0,
	// informational: validated, encoded and fingerprinted, but no cost
	// term reads it). Must be zero on a stationary charger.
	Speed float64
	// TravelBudget, when positive, caps the round-trip tour length a
	// mobile charger can drive in one session, meters; zero means
	// unlimited. Must be zero on a stationary charger.
	TravelBudget float64
	// Depot, when nonzero, is the home point where a mobile charger's
	// tours start and end; the zero value means tours start at Pos.
	// Must be zero on a stationary charger. See Home.
	Depot geom.Point
}

// Instance is one CCS problem: a set of devices to be partitioned into
// charging coalitions, each served by one charger.
type Instance struct {
	// Field is the deployment area (informational; used by generators
	// and reports).
	Field geom.Rect
	// Devices are the rechargeable devices (agents of the game).
	Devices []Device
	// Chargers are the available charging service providers.
	Chargers []Charger
}

// Validate checks the instance is well-formed: at least one device and
// charger, positive demands, nonnegative rates and fees, efficiencies in
// (0,1], and tariffs passing a concavity spot-check.
func (in *Instance) Validate() error {
	if len(in.Devices) == 0 {
		return errors.New("core: instance has no devices")
	}
	if len(in.Chargers) == 0 {
		return errors.New("core: instance has no chargers")
	}
	var maxDemand float64
	for i, d := range in.Devices {
		if !finitePoint(d.Pos) {
			return fmt.Errorf("core: device %d (%s) position %v non-finite", i, d.ID, d.Pos)
		}
		if d.Demand <= 0 || math.IsNaN(d.Demand) || math.IsInf(d.Demand, 0) {
			return fmt.Errorf("core: device %d (%s) demand %v invalid", i, d.ID, d.Demand)
		}
		if d.MoveRate < 0 || math.IsNaN(d.MoveRate) {
			return fmt.Errorf("core: device %d (%s) move rate %v invalid", i, d.ID, d.MoveRate)
		}
		maxDemand += d.Demand
	}
	for j, c := range in.Chargers {
		if !finitePoint(c.Pos) {
			return fmt.Errorf("core: charger %d (%s) position %v non-finite", j, c.ID, c.Pos)
		}
		if c.Fee < 0 || math.IsNaN(c.Fee) {
			return fmt.Errorf("core: charger %d (%s) fee %v invalid", j, c.ID, c.Fee)
		}
		if err := c.validateMobility(); err != nil {
			return fmt.Errorf("core: charger %d (%s): %w", j, c.ID, err)
		}
		if c.Efficiency <= 0 || c.Efficiency > 1 {
			return fmt.Errorf("core: charger %d (%s) efficiency %v outside (0,1]", j, c.ID, c.Efficiency)
		}
		if c.Capacity < 0 || math.IsNaN(c.Capacity) {
			return fmt.Errorf("core: charger %d (%s) capacity %v invalid", j, c.ID, c.Capacity)
		}
		if c.Tariff == nil {
			return fmt.Errorf("core: charger %d (%s) has no tariff", j, c.ID)
		}
		if err := pricing.Validate(c.Tariff, maxDemand/c.Efficiency+1, 64); err != nil {
			return fmt.Errorf("core: charger %d (%s): %w", j, c.ID, err)
		}
	}
	// Capacitated feasibility: every device must fit alone at some
	// charger — within session capacity and, for mobile chargers with a
	// travel budget, within round-trip reach — or no schedule exists at
	// all.
	for i, d := range in.Devices {
		fits := false
		for j := range in.Chargers {
			c := &in.Chargers[j]
			if c.fitsAlone(d.Demand, d.Pos) {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("core: device %d (%s) fits no charger's session capacity or travel budget", i, d.ID)
		}
	}
	return nil
}

// fitsAlone reports whether the charger can serve, alone, a device at p
// that stores demand joules: its purchase demand/Efficiency fits the
// session capacity within the 1e-12 relative tolerance every
// session-capacity check uses, and a budgeted mobile charger reaches p.
// Only a capacitated charger computes the purchase. Instance.Validate
// and the cost model share it, so an instance the delta ops accept
// always rebuilds.
func (c *Charger) fitsAlone(demand float64, p geom.Point) bool {
	return !(c.Capacity > 0 && demand/c.Efficiency > c.Capacity*(1+1e-12)) && c.reaches(p)
}

// Coalition is one charging session: the set of devices served together by
// one charger.
type Coalition struct {
	// Charger indexes Instance.Chargers.
	Charger int
	// Members indexes Instance.Devices, sorted ascending.
	Members []int
}

// Schedule is a solution to the CCS problem: a partition of the devices
// into coalitions.
type Schedule struct {
	Coalitions []Coalition
}

// Validate checks that the schedule is a partition of the n devices and
// references valid chargers (m of them).
func (s *Schedule) Validate(n, m int) error {
	seen := make([]bool, n)
	covered := 0
	for k, c := range s.Coalitions {
		if c.Charger < 0 || c.Charger >= m {
			return fmt.Errorf("core: coalition %d references charger %d of %d", k, c.Charger, m)
		}
		if len(c.Members) == 0 {
			return fmt.Errorf("core: coalition %d is empty", k)
		}
		for _, i := range c.Members {
			if i < 0 || i >= n {
				return fmt.Errorf("core: coalition %d references device %d of %d", k, i, n)
			}
			if seen[i] {
				return fmt.Errorf("core: device %d appears in multiple coalitions", i)
			}
			seen[i] = true
			covered++
		}
	}
	if covered != n {
		return fmt.Errorf("core: schedule covers %d of %d devices", covered, n)
	}
	return nil
}

// MergeSameCharger merges coalitions that use the same charger. Under
// concave tariffs and nonnegative fees this never increases total cost, so
// every schedule is canonicalized to at most one coalition per charger.
func (s *Schedule) MergeSameCharger() {
	byCharger := make(map[int][]int)
	order := make([]int, 0, len(s.Coalitions))
	for _, c := range s.Coalitions {
		if _, ok := byCharger[c.Charger]; !ok {
			order = append(order, c.Charger)
		}
		byCharger[c.Charger] = append(byCharger[c.Charger], c.Members...)
	}
	merged := make([]Coalition, 0, len(byCharger))
	for _, j := range order {
		members := byCharger[j]
		sort.Ints(members)
		merged = append(merged, Coalition{Charger: j, Members: members})
	}
	s.Coalitions = merged
}

// CostModel precomputes the quantities cost evaluations need: per-device
// demands, the device-to-charger moving-cost matrix, and per-device
// standalone (noncooperative) costs. Build one per Instance and share it
// across algorithm runs; it is safe for concurrent reads. AddDevice and
// RemoveDevice patch the tables in place for streaming workloads — they
// must not race with readers, so synchronize mutation externally.
type CostModel struct {
	inst *Instance
	// move[i][j] is device i's travel cost to charger j, $. The rows
	// built at construction are slices of flat; rows AddDevice appends
	// have their own arrays.
	move [][]float64
	flat []float64
	// standalone[i] is device i's cheapest singleton session cost, $.
	standalone []float64
	// standaloneCharger[i] is the charger attaining standalone[i].
	standaloneCharger []int
	// chord[j] bounds charger j's tariff price from below, per joule
	// stored; bound is standaloneFor's scratch row of per-charger
	// singleton cost bounds. Both are touched only at construction and by
	// the delta ops.
	chord []pricing.Chord
	bound []float64
	// listener, when non-nil, observes successful delta mutations so
	// incremental solver state (RepairState) can track which session
	// slots each patch dirtied. At most one listener; attaching a new one
	// replaces the old. Listeners fire after the mutation commits —
	// validation failures never notify.
	listener mutationListener
	// hasMobility and hasBudget cache whether any charger is mobile
	// (respectively: mobile with a travel budget). Chargers never change
	// after construction, so the flags are computed once; they keep the
	// stationary hot paths branch-cheap.
	hasMobility bool
	hasBudget   bool
}

// mutationListener receives post-commit notifications for the CostModel
// delta ops. Indices follow the model's post-mutation order: deviceAdded
// refers to the new last device, deviceRemoved(i) to the index that was
// just deleted (devices after it have shifted down one).
type mutationListener interface {
	deviceAdded()
	deviceRemoved(i int)
	deviceUpdated(i int)
	tariffSet(j int)
}

// setListener installs l as the model's single mutation listener
// (nil detaches).
func (cm *CostModel) setListener(l mutationListener) { cm.listener = l }

// NewCostModel validates the instance and precomputes its cost tables.
// The moving-cost rows share one backing array, and each charger's
// tariff gets its two-price chord over the instance's demand range, so
// standaloneFor prices the tariff only where it can win.
func NewCostModel(in *Instance) (*CostModel, error) {
	cm := new(CostModel)
	if err := cm.build(in); err != nil {
		return nil, err
	}
	return cm, nil
}

// build validates in and fills cm's tables for it, reusing the backing
// arrays cm already holds where they are large enough (SolveOnce's pooled
// models); every entry is rewritten, and every other field reset.
func (cm *CostModel) build(in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	n, m := len(in.Devices), len(in.Chargers)
	old := *cm
	*cm = CostModel{
		inst:              in,
		flat:              resize(old.flat, n*m),
		move:              resize(old.move, n),
		standalone:        resize(old.standalone, n),
		standaloneCharger: resize(old.standaloneCharger, n),
		chord:             resize(old.chord, m),
		bound:             resize(old.bound, m),
	}
	lo, hi := demandRange(in.Devices)
	for j := range in.Chargers {
		c := &in.Chargers[j]
		if c.Mobile {
			cm.hasMobility = true
			if c.TravelBudget > 0 {
				cm.hasBudget = true
			}
		}
		cm.chord[j] = pricing.NewChord(c.Tariff, c.Efficiency, lo, hi)
	}
	for i, d := range in.Devices {
		row := cm.flat[i*m : (i+1)*m : (i+1)*m]
		cm.fillMove(d, row)
		cm.move[i] = row
		cm.standalone[i], cm.standaloneCharger[i] = cm.standaloneFor(d, row)
	}
	return nil
}

// demandRange returns the smallest and largest demand among devices.
// The chords span it; a device added later outside it still gets a valid
// bound, the top price above the range and 0 below it.
func demandRange(devices []Device) (lo, hi float64) {
	lo = math.Inf(1)
	for _, d := range devices {
		lo, hi = math.Min(lo, d.Demand), math.Max(hi, d.Demand)
	}
	return lo, hi
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// modelPool recycles the tables of SolveOnce's cost models; a pooled
// model holds no instance.
var modelPool sync.Pool // of *CostModel

// SolveOnce builds the cost model for in, runs sched on it and totals the
// schedule's cost — NewCostModel, Schedule and TotalCost in one call, for
// a caller that keeps only the schedule and its cost. The model's tables
// come from a pool and go back to it before SolveOnce returns, so
// back-to-back stateless solves reuse one set instead of allocating their
// own; the model never reaches the caller. sched must not keep the model
// past its Schedule call, which every Scheduler in this package honours.
func SolveOnce(in *Instance, sched Scheduler) (*Schedule, float64, error) {
	cm, _ := modelPool.Get().(*CostModel)
	if cm == nil {
		cm = new(CostModel)
	}
	defer func() {
		cm.inst = nil
		if cap(cm.flat) <= maxPooledEntries {
			modelPool.Put(cm)
		}
	}()
	if err := cm.build(in); err != nil {
		return nil, 0, err
	}
	plan, err := sched.Schedule(cm)
	if err != nil {
		return nil, 0, err
	}
	return plan, cm.TotalCost(plan), nil
}

// fillMove writes device d's moving cost to every charger into row.
func (cm *CostModel) fillMove(d Device, row []float64) {
	for j := range cm.inst.Chargers {
		if cm.inst.Chargers[j].Mobile {
			row[j] = 0 // the charger drives to the device
			continue
		}
		row[j] = d.MoveRate * d.Pos.Dist(cm.inst.Chargers[j].Pos)
	}
}

// deviceRow computes device d's moving-cost row and standalone cost
// against the model's chargers, for the incremental mutators. O(m).
func (cm *CostModel) deviceRow(d Device) (row []float64, standalone float64, standaloneCharger int) {
	row = make([]float64, len(cm.inst.Chargers))
	cm.fillMove(d, row)
	standalone, standaloneCharger = cm.standaloneFor(d, row)
	return row, standalone, standaloneCharger
}

// standaloneFor computes device d's cheapest singleton session over a
// precomputed moving-cost row: the lowest cost, ties to the lowest
// charger index, exactly as a scan pricing every charger the device fits
// alone would find it.
//
// It first writes a lower bound on every charger's singleton cost into
// the bound scratch row — Fee + chord(demand) + move, +Inf where the
// device does not fit alone — then prices the charger with the smallest
// bound, then walks the chargers in index order and prices only those
// whose bound is below the best cost so far, or equal to it at a lower
// index. A skipped charger's cost is at least its bound (IEEE addition is
// monotone, and a mobile charger's travel leg is nonnegative), so it
// could neither beat the best cost nor tie it at a lower index. DESIGN §5
// has the argument in full.
func (cm *CostModel) standaloneFor(d Device, row []float64) (float64, int) {
	bound := cm.bound
	first, firstBound := -1, math.Inf(1)
	for j := range cm.inst.Chargers {
		c := &cm.inst.Chargers[j]
		b := math.Inf(1)
		if c.fitsAlone(d.Demand, d.Pos) {
			b = c.Fee + cm.chord[j].Lower(d.Demand) + row[j]
			if b < firstBound {
				first, firstBound = j, b
			}
		}
		bound[j] = b
	}
	best, bestJ := math.Inf(1), -1
	if first < 0 {
		return best, bestJ
	}
	if cost := cm.singletonCost(d, row, first); cost < best {
		best, bestJ = cost, first
	}
	for j, b := range bound {
		if j == first || !(b < best || b == best && j < bestJ) {
			continue
		}
		if cost := cm.singletonCost(d, row, j); cost < best || cost == best && j < bestJ {
			best, bestJ = cost, j
		}
	}
	return best, bestJ
}

// singletonCost prices device d's session alone at charger j.
func (cm *CostModel) singletonCost(d Device, row []float64, j int) float64 {
	c := &cm.inst.Chargers[j]
	cost := c.Fee + c.Tariff.Price(d.Demand/c.Efficiency) + row[j]
	if c.Mobile {
		cost += c.MoveRate * 2 * c.Home().Dist(d.Pos)
	}
	return cost
}

// AddDevice appends one device to the model (and its instance), patching
// the move matrix and standalone rows in O(m) instead of rebuilding the
// whole model. The device is validated like Instance.Validate would —
// including that it fits some charger's session capacity — but the
// chargers and earlier devices, already validated at construction, are
// not re-checked. The tables are bit-identical to a fresh NewCostModel
// over the grown instance.
func (cm *CostModel) AddDevice(d Device) error {
	if !finitePoint(d.Pos) {
		return fmt.Errorf("core: device %s position %v non-finite", d.ID, d.Pos)
	}
	if d.Demand <= 0 || math.IsNaN(d.Demand) || math.IsInf(d.Demand, 0) {
		return fmt.Errorf("core: device %s demand %v invalid", d.ID, d.Demand)
	}
	if d.MoveRate < 0 || math.IsNaN(d.MoveRate) {
		return fmt.Errorf("core: device %s move rate %v invalid", d.ID, d.MoveRate)
	}
	row, standalone, standaloneCharger := cm.deviceRow(d)
	if standaloneCharger < 0 {
		return fmt.Errorf("core: device %s fits no charger's session capacity or travel budget", d.ID)
	}
	cm.inst.Devices = append(cm.inst.Devices, d)
	cm.move = append(cm.move, row)
	cm.standalone = append(cm.standalone, standalone)
	cm.standaloneCharger = append(cm.standaloneCharger, standaloneCharger)
	if cm.listener != nil {
		cm.listener.deviceAdded()
	}
	return nil
}

// RemoveDevice deletes device i from the model (and its instance),
// preserving the order — and therefore the indices — of the remaining
// devices. No cost is recomputed: the remaining rows shift down in place.
// Removing the last device leaves a temporarily empty model, valid only
// as a staging state between mutations.
//
// Index-shift semantics, pinned by TestWarmStartSurvivesRemoveReAdd:
// removing device i decrements the index of every device after it, and a
// later AddDevice of the same ID re-enters at the end of the order.
// Nothing keyed by device index survives a removal — but the WarmStart
// carrier is keyed by device ID, so a remove-then-re-add round trip
// leaves WarmStart.Seed mapping the device to its remembered charger at
// its new index, and an otherwise-unperturbed warm re-solve still
// confirms the previous equilibrium in one pass. Charger indices are
// never touched by device mutations, which is what keeps the carrier's
// remembered charger indices valid across any add/remove sequence.
func (cm *CostModel) RemoveDevice(i int) error {
	n := len(cm.inst.Devices)
	if i < 0 || i >= n {
		return fmt.Errorf("core: remove device %d of %d", i, n)
	}
	cm.inst.Devices = append(cm.inst.Devices[:i], cm.inst.Devices[i+1:]...)
	cm.move = append(cm.move[:i], cm.move[i+1:]...)
	cm.standalone = append(cm.standalone[:i], cm.standalone[i+1:]...)
	cm.standaloneCharger = append(cm.standaloneCharger[:i], cm.standaloneCharger[i+1:]...)
	if cm.listener != nil {
		cm.listener.deviceRemoved(i)
	}
	return nil
}

// UpdateDevice replaces device i in place — the "demand changed" (or
// position-drift) patch of a streaming workload — recomputing only that
// device's O(m) cost rows. The device keeps its index; the replacement
// is validated like AddDevice, and on any validation failure the model
// is left untouched. The tables stay bit-identical to a fresh
// NewCostModel over the patched instance.
func (cm *CostModel) UpdateDevice(i int, d Device) error {
	n := len(cm.inst.Devices)
	if i < 0 || i >= n {
		return fmt.Errorf("core: update device %d of %d", i, n)
	}
	if !finitePoint(d.Pos) {
		return fmt.Errorf("core: device %s position %v non-finite", d.ID, d.Pos)
	}
	if d.Demand <= 0 || math.IsNaN(d.Demand) || math.IsInf(d.Demand, 0) {
		return fmt.Errorf("core: device %s demand %v invalid", d.ID, d.Demand)
	}
	if d.MoveRate < 0 || math.IsNaN(d.MoveRate) {
		return fmt.Errorf("core: device %s move rate %v invalid", d.ID, d.MoveRate)
	}
	// Movement costs depend only on position and move rate, so a
	// demand-only update (the common streaming delta) keeps the existing
	// row and re-derives just the standalone baseline.
	old := cm.inst.Devices[i]
	row := cm.move[i]
	var standalone float64
	var standaloneCharger int
	if d.Pos == old.Pos && d.MoveRate == old.MoveRate {
		standalone, standaloneCharger = cm.standaloneFor(d, row)
	} else {
		row, standalone, standaloneCharger = cm.deviceRow(d)
	}
	if standaloneCharger < 0 {
		return fmt.Errorf("core: device %s fits no charger's session capacity or travel budget", d.ID)
	}
	cm.inst.Devices[i] = d
	cm.move[i] = row
	cm.standalone[i] = standalone
	cm.standaloneCharger[i] = standaloneCharger
	if cm.listener != nil {
		cm.listener.deviceUpdated(i)
	}
	return nil
}

// SetTariff swaps charger j's tariff — the "tariff changed" patch of a
// streaming workload. The new tariff is validated exactly like
// Instance.Validate would (nondecreasing, concave, zero at zero, spot-
// checked up to the instance's total purchase), and every device's
// standalone row is re-ranked because the tariff enters each device's
// cheapest-singleton choice: O(n·m), with the unchanged moving-cost
// matrix reused. On a validation failure the model is left untouched.
// Charger indices never shift, so remembered charger indices (e.g. in a
// WarmStart carrier) stay valid across tariff swaps.
func (cm *CostModel) SetTariff(j int, t pricing.Tariff) error {
	m := len(cm.inst.Chargers)
	if j < 0 || j >= m {
		return fmt.Errorf("core: set tariff on charger %d of %d", j, m)
	}
	if t == nil {
		return fmt.Errorf("core: charger %d (%s) has no tariff", j, cm.inst.Chargers[j].ID)
	}
	var sumDemand float64
	for _, d := range cm.inst.Devices {
		sumDemand += d.Demand
	}
	c := &cm.inst.Chargers[j]
	if err := pricing.Validate(t, sumDemand/c.Efficiency+1, 64); err != nil {
		return fmt.Errorf("core: charger %d (%s): %w", j, c.ID, err)
	}
	c.Tariff = t
	lo, hi := demandRange(cm.inst.Devices)
	cm.chord[j] = pricing.NewChord(t, c.Efficiency, lo, hi)
	for i := range cm.inst.Devices {
		cm.standalone[i], cm.standaloneCharger[i] = cm.standaloneFor(cm.inst.Devices[i], cm.move[i])
	}
	if cm.listener != nil {
		cm.listener.tariffSet(j)
	}
	return nil
}

// HasCapacity reports whether any charger constrains session energy.
func (cm *CostModel) HasCapacity() bool {
	for _, c := range cm.inst.Chargers {
		if c.Capacity > 0 {
			return true
		}
	}
	return false
}

// Feasible reports whether the members' combined purchase fits charger
// j's session capacity and, for a mobile charger with a travel budget,
// whether the planned round-trip tour over the members fits the budget.
func (cm *CostModel) Feasible(members []int, j int) bool {
	ch := &cm.inst.Chargers[j]
	if ch.Capacity > 0 && cm.Purchased(members, j) > ch.Capacity*(1+1e-12) {
		return false
	}
	if ch.Mobile && ch.TravelBudget > 0 && cm.TourLength(members, j) > ch.TravelBudget*(1+1e-12) {
		return false
	}
	return true
}

// ValidateCapacity checks every coalition of the schedule fits its
// charger's session capacity.
func (cm *CostModel) ValidateCapacity(s *Schedule) error {
	for k, c := range s.Coalitions {
		if !cm.Feasible(c.Members, c.Charger) {
			return fmt.Errorf("core: coalition %d exceeds charger %d capacity (%.1f J > %.1f J)",
				k, c.Charger, cm.Purchased(c.Members, c.Charger), cm.inst.Chargers[c.Charger].Capacity)
		}
	}
	return nil
}

// Instance returns the underlying instance.
func (cm *CostModel) Instance() *Instance { return cm.inst }

// NumDevices returns the number of devices.
func (cm *CostModel) NumDevices() int { return len(cm.inst.Devices) }

// NumChargers returns the number of chargers.
func (cm *CostModel) NumChargers() int { return len(cm.inst.Chargers) }

// MovingCost returns device i's travel cost to charger j, $.
func (cm *CostModel) MovingCost(i, j int) float64 { return cm.move[i][j] }

// Purchased returns the energy purchased when the members are charged at
// charger j: Σ demand_i / η_j, joules.
func (cm *CostModel) Purchased(members []int, j int) float64 {
	var e float64
	for _, i := range members {
		e += cm.inst.Devices[i].Demand
	}
	return e / cm.inst.Chargers[j].Efficiency
}

// ChargingCost returns the session's charging cost at charger j for the
// members: fee + tariff(purchased). Zero for an empty member list.
func (cm *CostModel) ChargingCost(members []int, j int) float64 {
	if len(members) == 0 {
		return 0
	}
	ch := cm.inst.Chargers[j]
	return ch.Fee + ch.Tariff.Price(cm.Purchased(members, j))
}

// SessionCost returns the comprehensive cost of serving the members in one
// session at charger j: charging cost plus every member's moving cost —
// plus, for a mobile charger, the charger's own travel cost over its
// planned rendezvous tour (TravelCost). Zero for an empty member list;
// this makes the per-charger session cost a normalized submodular set
// function in the stationary case (the tour term is subadditive but not
// submodular, which is why the exact schedulers reject mobile instances).
func (cm *CostModel) SessionCost(members []int, j int) float64 {
	if len(members) == 0 {
		return 0
	}
	cost := cm.ChargingCost(members, j)
	for _, i := range members {
		cost += cm.move[i][j]
	}
	if cm.hasMobility {
		cost += cm.TravelCost(members, j)
	}
	return cost
}

// StandaloneCost returns device i's cheapest singleton session cost and
// the charger attaining it.
func (cm *CostModel) StandaloneCost(i int) (float64, int) {
	return cm.standalone[i], cm.standaloneCharger[i]
}

// TotalCost returns the schedule's total comprehensive cost.
func (cm *CostModel) TotalCost(s *Schedule) float64 {
	var total float64
	for _, c := range s.Coalitions {
		total += cm.SessionCost(c.Members, c.Charger)
	}
	return total
}
