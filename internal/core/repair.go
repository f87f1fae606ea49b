package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// RepairState persists a converged CCSGA equilibrium — the charger game
// with its per-slot aggregates and device→slot assignment, plus each
// device's current cost share — across the delta ops of a streaming
// workload, so the next solve can re-run switch dynamics on the affected
// frontier only instead of sweeping every device against every slot.
//
// The state attaches to a CostModel as its mutation listener: AddDevice,
// RemoveDevice, UpdateDevice and SetTariff report which session slots
// they dirtied (the slots whose aggregates changed). ScheduleRepair then
// repairs from the previous equilibrium under the clean-slot invariant:
// a slot no delta touched has the same aggregates as at the last
// verified Nash point, so it cannot have become newly attractive to a
// device whose own parameters did not change. Members of dirty slots get
// a full best-response (their own share moved); every other device is
// tested against the dirty slots only — O(|dirty|) per device, using its
// cached share as the bar. Accepted switches dirty their source and
// target slots and the rounds drain in device-index order until a
// zero-move round, which is itself the Nash verification sweep.
//
// When incremental repair cannot run — the frontier exceeds half the
// population (maxFrontierFrac), the session-slot layout changed under
// capacities, a dirty slot is over capacity, an ESS tariff swap moved
// every standalone cost, or the dynamics hit the round cap — the solve
// falls back to a full warm solve and re-primes
// (CCSGAResult.FallbackReason names the reason).
//
// A RepairState is not safe for concurrent use, and at most one may be
// attached to a CostModel at a time (a second Attach replaces the
// first). The zero value is not usable; call NewRepairState.
type RepairState struct {
	cm   *CostModel
	game *chargerGame

	share []float64 // device -> share at its slot (game.cur), exact at convergence

	dirty    map[int]struct{} // slots whose aggregates changed since convergence
	unseeded int              // count of game.cur[i] == -1 entries (added, not yet seated)

	// updated collects the devices whose seat changed during the current
	// repair (seated newcomers plus accepted switches), so solve can patch
	// the WarmStart carrier in O(changes) instead of re-recording all n.
	updated     []int
	updatedMark []bool

	primed bool
	// baselineFilled defers the rs.share baseline (one Share eval per
	// device) from prime to the first actual repair: a clean slot's
	// aggregates are untouched since convergence, so the lazy values are
	// bit-identical to eager ones, and fallback-heavy workloads that
	// never repair skip the sweep entirely.
	baselineFilled bool
	// fullReason forces the next solve down the full path (e.g. an ESS
	// tariff swap); layoutSuspect forces a session-slot layout recheck
	// (capacitated slot counts depend on total demand).
	fullReason    string
	layoutSuspect bool

	// enumReverse reverses the candidate-slot lists repair hands the
	// kernel; a test hook proving the argmin tie-break makes results
	// enumeration-order-free.
	enumReverse bool
	// frontierFrac overrides maxFrontierFrac when nonzero; a test hook
	// that lifts or floors the frontier cap.
	frontierFrac float64
}

// maxFrontierFrac caps how much of the population an incremental repair
// may fully re-evaluate before falling back to a full warm solve.
const maxFrontierFrac = 0.5

// NewRepairState returns an empty, unprimed state. The first
// ScheduleRepair through it runs a full warm solve (byte-identical to
// ScheduleRepair with a nil state) and primes the state; later solves
// repair incrementally.
func NewRepairState() *RepairState {
	return &RepairState{dirty: make(map[int]struct{})}
}

// fallbackError aborts an incremental repair toward the full path.
type fallbackError struct{ reason string }

func (e *fallbackError) Error() string { return "ccsga repair fallback: " + e.reason }

// --- mutationListener (fires after each successful CostModel delta op) ---

func (rs *RepairState) deviceAdded() {
	if !rs.primed {
		return
	}
	rs.share = append(rs.share, 0)
	rs.game.deviceAdded()
	rs.unseeded++
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true // total demand grew; slot counts may change
	}
}

func (rs *RepairState) deviceRemoved(i int) {
	if !rs.primed {
		return
	}
	if s := rs.game.cur[i]; s >= 0 {
		rs.markDirty(s) // the slot's aggregates are rebuilt at solve time
	} else {
		rs.unseeded--
	}
	rs.share = append(rs.share[:i], rs.share[i+1:]...)
	rs.game.deviceRemoved(i)
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true
	}
}

func (rs *RepairState) deviceUpdated(i int) {
	if !rs.primed {
		return
	}
	rs.game.deviceUpdated(i)
	if s := rs.game.cur[i]; s >= 0 {
		// The device's own contributions changed, so its slot is dirty —
		// which also makes the device itself a frontier member with a
		// full best-response (its share against every slot moved, not
		// just against the dirty ones).
		rs.markDirty(s)
	}
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true
	}
}

func (rs *RepairState) tariffSet(j int) {
	if !rs.primed {
		return
	}
	if !rs.game.pds {
		// Under ESS every device's standalone cost enters every share, so
		// a tariff swap moves the whole landscape: nothing is clean.
		rs.fullReason = "ESS tariff swap invalidates every cached share"
		return
	}
	// Under PDS a tariff only prices its own charger's sessions; moving
	// costs and the other chargers' slots are untouched. (The sigma memo
	// goes stale, but PDS shares never read it.) The charger's chord is
	// rebuilt for the new tariff before its slots go dirty.
	g := rs.game
	g.buildChord(j)
	for s := g.firstSlot[j]; s < len(g.chargerOf) && g.chargerOf[s] == j; s++ {
		rs.markDirty(s)
	}
}

func (rs *RepairState) markDirty(s int) {
	rs.dirty[s] = struct{}{}
	rs.game.invalidate(s)
}

// markUpdated notes a device whose seat changed during the current
// repair. The mark array is reset at the top of each repair.
func (rs *RepairState) markUpdated(i int) {
	if !rs.updatedMark[i] {
		rs.updatedMark[i] = true
		rs.updated = append(rs.updated, i)
	}
}

// --- solve path ---

// solve is ScheduleRepair's engine: attach to cm if needed, repair if
// primed and possible, otherwise run the full warm path and re-prime.
func (rs *RepairState) solve(cm *CostModel, opts CCSGAOptions, ws *WarmStart) (*CCSGAResult, error) {
	if cm == nil {
		return nil, errors.New("ccsga repair: nil cost model")
	}
	if rs.cm != cm {
		if rs.cm != nil {
			rs.cm.setListener(nil)
		}
		rs.invalidate()
		rs.cm = cm
		cm.setListener(rs)
	}
	reason := ""
	switch {
	case !rs.primed:
		// First solve through this state: plain full path, not a fallback.
	case cm.HasMobility():
		// Tour-aware shares re-plan routes on every membership change;
		// the dirty-slot frontier cannot bound which slots a re-planned
		// tour touches, so mobile instances always take the full warm
		// path.
		reason = "mobile chargers (tour-aware shares)"
	case rs.fullReason != "":
		reason = rs.fullReason
	case rs.layoutSuspect && !rs.layoutUnchanged():
		reason = "session-slot layout changed"
	default:
		rs.layoutSuspect = false
		res, err := rs.repair(opts)
		if err == nil {
			if ws != nil {
				// Patch only the seats the repair changed; the carrier map
				// ends up identical to a full Record of res.Schedule.
				in := cm.Instance()
				g := rs.game
				for _, i := range rs.updated {
					ws.set(in.Devices[i].ID, g.chargerOf[g.cur[i]])
				}
			}
			return res, nil
		}
		var fb *fallbackError
		if !errors.As(err, &fb) {
			rs.invalidate()
			return nil, err
		}
		reason = fb.reason
	}
	return rs.full(opts, ws, reason)
}

// full runs the warm path (warmSolve, exactly ScheduleRepair's with a
// nil state) and primes the state from the converged game. reason is
// non-empty when this is a fallback from an attempted repair.
func (rs *RepairState) full(opts CCSGAOptions, ws *WarmStart, reason string) (*CCSGAResult, error) {
	rs.invalidate() // release the old game's memo for the new one to reuse
	res, game, err := warmSolve(rs.cm, opts, ws)
	if err != nil {
		return nil, err
	}
	rs.prime(game)
	res.FallbackReason = reason
	return res, nil
}

// prime adopts a converged game — its assignment, aggregates and share
// memo — as the repair baseline. Aggregates are rebuilt from scratch (one
// ascending join sweep) so the floating-point baseline is the same
// regardless of the switch history that reached the equilibrium; the
// rebuild invalidates every slot, so no share cached during the solve
// survives into the first repair.
func (rs *RepairState) prime(g *chargerGame) {
	rs.game = g
	g.reset(g.cur)
	n := len(g.cur)
	if cap(rs.share) < n {
		rs.share = make([]float64, n)
	}
	rs.share = rs.share[:n]
	rs.baselineFilled = false // per-device bars fill at the first repair
	clear(rs.dirty)
	rs.unseeded = 0
	rs.primed = true
	rs.fullReason = ""
	rs.layoutSuspect = false
}

// invalidate drops the primed equilibrium; the next solve is full.
func (rs *RepairState) invalidate() {
	rs.game.release()
	rs.game = nil
	rs.share = rs.share[:0]
	clear(rs.dirty)
	rs.unseeded = 0
	rs.primed = false
	rs.fullReason = ""
	rs.layoutSuspect = false
}

// layoutUnchanged reports whether the session-slot layout for the
// current instance still matches the primed game's (capacitated slot
// counts follow total demand, so membership and demand deltas can change
// it; a changed layout makes every cached slot index meaningless).
func (rs *RepairState) layoutUnchanged() bool {
	chargerOf, _ := SessionSlots(rs.cm)
	if len(chargerOf) != len(rs.game.chargerOf) {
		return false
	}
	for s, j := range chargerOf {
		if rs.game.chargerOf[s] != j {
			return false
		}
	}
	return true
}

// seatNew places devices added since the last convergence at their
// standalone charger by the seeding rule (pickSlot), with room judged
// against the game's current aggregates, dirtying the slots they land in.
func (rs *RepairState) seatNew() error {
	g, cm := rs.game, rs.cm
	in := g.in
	for i, s := range g.cur {
		if s != -1 {
			continue
		}
		sigma, target := cm.StandaloneCost(i)
		g.sigma[i] = sigma
		seat := pickSlot(cm, g.chargerOf, g.firstSlot, i, target, func(s int) bool {
			ch := &in.Chargers[g.chargerOf[s]]
			return ch.Capacity == 0 || g.purchased[s]+in.Devices[i].Demand/ch.Efficiency <= ch.Capacity*(1+1e-12)
		})
		if seat < 0 {
			return &fallbackError{fmt.Sprintf("device %s fits no session slot", in.Devices[i].ID)}
		}
		g.join(i, seat)
		g.cur[i] = seat
		rs.share[i] = 0 // dirty-slot member; refreshed in the first round
		rs.markDirty(seat)
		rs.markUpdated(i)
		rs.unseeded--
	}
	return nil
}

// rebuildDirty recomputes every dirty slot's aggregates exactly from the
// current assignment and cost model. Incremental add/subtract surgery
// would drift a few ulps per delta; rebuilding the touched slots each
// solve pins the drift to one repair's worth of moves, and the clean
// slots keep their prime-time-exact sums untouched.
func (rs *RepairState) rebuildDirty(isDirty []bool) {
	g := rs.game
	in := g.in
	for s := range rs.dirty {
		g.invalidate(s)
		g.count[s] = 0
		g.purchased[s] = 0
		g.moveSum[s] = 0
		g.sigmaSum[s] = 0
	}
	for i, s := range g.cur {
		if !isDirty[s] {
			continue
		}
		j := g.chargerOf[s]
		g.count[s]++
		g.purchased[s] += in.Devices[i].Demand / in.Chargers[j].Efficiency
		g.moveSum[s] += g.cm.MovingCost(i, j)
		g.sigmaSum[s] += g.sigma[i]
	}
}

// repair runs frontier-restricted switch dynamics from the primed
// equilibrium. Rounds sweep the devices in ascending index order:
// members of dirty slots best-respond against every slot, everyone else
// is tested against the current dirty set only, with each accepted
// switch dirtying its source and target slots for the next round. Both
// run the one kernel (bestResponse), whose argmin (share, slot index)
// makes the outcome independent of the dirty set's enumeration order.
// The terminating zero-move round is the Nash verification: combined
// with the clean-slot invariant it re-establishes isNash over the full
// strategy space.
func (rs *RepairState) repair(opts CCSGAOptions) (*CCSGAResult, error) {
	g, cm := rs.game, rs.cm
	n := cm.NumDevices()
	if n == 0 {
		return nil, errors.New("ccsga repair: instance has no devices")
	}
	maxRounds := passCap(opts.MaxPasses, n)
	frac := rs.frontierFrac
	if frac == 0 {
		frac = maxFrontierFrac
	}
	maxFrontier := int(frac * float64(n))
	if maxFrontier < 1 {
		maxFrontier = 1
	}

	rs.updated = rs.updated[:0]
	if cap(rs.updatedMark) < n {
		rs.updatedMark = make([]bool, n)
	} else {
		rs.updatedMark = rs.updatedMark[:n]
		clear(rs.updatedMark)
	}
	if rs.unseeded > 0 {
		if err := rs.seatNew(); err != nil {
			return nil, err
		}
	}
	numSlots := len(g.chargerOf)
	isDirty := make([]bool, numSlots)
	dirtyList := make([]int, 0, len(rs.dirty))
	for s := range rs.dirty {
		isDirty[s] = true
		dirtyList = append(dirtyList, s)
	}
	rs.sortSlots(dirtyList)
	rs.rebuildDirty(isDirty)
	base := 0 // dirty-slot membership: a lower bound on the frontier
	for _, s := range dirtyList {
		ch := &g.in.Chargers[g.chargerOf[s]]
		if ch.Capacity > 0 && g.purchased[s] > ch.Capacity*(1+1e-12) {
			return nil, &fallbackError{fmt.Sprintf("slot %d over charger %s capacity after deltas", s, ch.ID)}
		}
		base += g.count[s]
	}
	if base > maxFrontier {
		// Every dirty-slot member is a frontier device before a single
		// switch runs, so the cap is doomed — fall back without paying a
		// wasted partial sweep (batch deltas on small instances hit this).
		return nil, &fallbackError{fmt.Sprintf("repair frontier %d devices exceeds cap %d", base, maxFrontier)}
	}
	if !rs.baselineFilled {
		// Clean slots are exactly as they were at convergence, so this
		// fills the same bars prime would have; dirty-slot members refresh
		// theirs as frontier devices in the first round.
		for i, s := range g.cur {
			if !isDirty[s] {
				rs.share[i] = g.share(i, s)
			}
		}
		rs.baselineFilled = true
	}

	allSlots := g.allSlots
	if rs.enumReverse {
		allSlots = slices.Clone(allSlots)
		slices.Reverse(allSlots)
	}
	inFrontier := make([]bool, n)
	nextDirty := make([]bool, numSlots)
	frontier, switches, rounds := 0, 0, 0
	for len(dirtyList) > 0 {
		rounds++
		if rounds > maxRounds {
			return nil, &fallbackError{fmt.Sprintf("switch dynamics exceeded %d rounds", maxRounds)}
		}
		var next []int
		for i := 0; i < n; i++ {
			cur := g.cur[i]
			full := isDirty[cur]
			curShare, slots := rs.share[i], dirtyList
			if full {
				if !inFrontier[i] {
					inFrontier[i] = true
					if frontier++; frontier > maxFrontier {
						return nil, &fallbackError{fmt.Sprintf("repair frontier %d devices exceeds cap %d", frontier, maxFrontier)}
					}
				}
				curShare, slots = g.share(i, cur), allSlots
			}
			// Only this repair's own memo stamps can match for a clean
			// device: it looks at dirty slots only, and every dirty slot
			// was invalidated since the last repair.
			if s, sh := g.bestResponse(i, curShare, slots, !full); s >= 0 {
				g.move(i, cur, s)
				// The hypothetical-join share is computed from the same
				// aggregate additions join just applied, so it is the
				// post-move share bit-for-bit.
				rs.share[i] = sh
				rs.markUpdated(i)
				switches++
				for _, t := range [2]int{cur, s} {
					if !nextDirty[t] {
						nextDirty[t] = true
						next = append(next, t)
					}
				}
			} else if full {
				rs.share[i] = curShare
			}
		}
		rs.sortSlots(next)
		dirtyList = next
		isDirty, nextDirty = nextDirty, isDirty
		// The swap left nextDirty holding the previous round's flags.
		clear(nextDirty)
	}
	clear(rs.dirty)
	return &CCSGAResult{
		Schedule:        g.schedule(),
		Switches:        switches,
		Passes:          rounds,
		Converged:       true,
		NashStable:      true,
		Repaired:        true,
		FrontierDevices: frontier,
	}, nil
}

// sortSlots orders a candidate-slot list ascending, or descending under
// the enumReverse test hook.
func (rs *RepairState) sortSlots(slots []int) {
	sort.Ints(slots)
	if rs.enumReverse {
		slices.Reverse(slots)
	}
}
