package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// CCSGAOptions tunes the coalition-formation game algorithm.
type CCSGAOptions struct {
	// Scheme is the intragroup cost-sharing scheme the devices play
	// under. Default PDS (whose cross-monotonic shares make the selfish
	// dynamics converge).
	Scheme SharingScheme
	// Seed randomizes the per-pass visiting order when nonzero; zero
	// keeps deterministic round-robin.
	Seed int64
	// MaxPasses caps full sweeps; zero means 10·n + 100.
	MaxPasses int
	// Init, when non-nil, seeds the switch dynamics with a device→slot
	// assignment (typically a previous, related solve's equilibrium)
	// instead of the noncooperative cold start. Slot indices follow
	// SessionSlots. The seed must assign every device an in-range slot
	// and respect session capacities; CCSGA rejects it otherwise. A
	// warm-started run still converges to (and is verified as) a pure
	// Nash equilibrium — possibly a different one than the cold start
	// reaches.
	Init []int
}

// switchEps is the minimum strict share improvement a switch operation
// must bring, and the tolerance of the Nash verification.
const switchEps = 1e-9

// passCap is the sweep (or repair round) cap for n devices: maxPasses
// when positive, else 10·n + 100.
func passCap(maxPasses, n int) int {
	if maxPasses > 0 {
		return maxPasses
	}
	return 10*n + 100
}

// CCSGAResult carries the schedule plus game diagnostics.
type CCSGAResult struct {
	Schedule *Schedule
	// Switches is the number of accepted switch operations.
	Switches int
	// Passes is the number of full sweeps over the devices.
	Passes int
	// Converged reports whether a full pass saw no switch.
	Converged bool
	// NashStable reports whether the final assignment was verified to be
	// a pure Nash equilibrium (no device can lower its share).
	NashStable bool
	// Repaired reports whether the result came from the incremental
	// dirty-set repair path (ScheduleRepair) rather than a full solve.
	Repaired bool
	// FallbackReason is non-empty when a primed repair state could not
	// repair incrementally and fell back to a full warm solve (frontier
	// too large, session-slot layout change, ESS tariff swap, …).
	FallbackReason string
	// FrontierDevices counts the devices the repair fully re-evaluated
	// (members of dirty slots); zero for full solves.
	FrontierDevices int
}

// CCSGA runs the paper's game-theoretic algorithm for large instances:
// each device's strategy is the charging session it joins (one session
// slot per charger, or several when session capacities force splitting);
// the devices in a session form one coalition and split its cost with the
// sharing scheme; switch dynamics run until a pure Nash equilibrium. The
// initial assignment is the noncooperative one (every device at its
// standalone charger), packed greedily when capacities or travel budgets
// bind — exactly WarmStart.Seed over an empty carrier.
func CCSGA(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, error) {
	res, game, err := ccsgaSolve(cm, opts)
	game.release()
	return res, err
}

// ccsgaSolve is CCSGA plus the charger game the repair path persists:
// after the run the game's cur array holds the converged device→slot
// assignment and its per-slot aggregates match it.
func ccsgaSolve(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, *chargerGame, error) {
	g, err := seededGame(cm, opts)
	if err != nil {
		return nil, nil, err
	}
	switches, passes, converged := g.run(opts.Seed, opts.MaxPasses)
	return &CCSGAResult{
		Schedule:  g.schedule(),
		Switches:  switches,
		Passes:    passes,
		Converged: converged,
		// A converged run needs no separate Nash sweep: its final
		// zero-switch pass ran the kernel for every device against every
		// slot on an assignment that never changed during the pass.
		NashStable: converged || g.isNash(),
	}, g, nil
}

// seededGame builds the charger game for cm under opts.Scheme and seats
// every device at opts.Init, or at the cold start when Init is nil.
func seededGame(cm *CostModel, opts CCSGAOptions) (*chargerGame, error) {
	if opts.Scheme == nil {
		opts.Scheme = PDS{}
	}
	g, err := newChargerGame(cm, opts.Scheme)
	if err != nil {
		return nil, err
	}
	init := opts.Init
	if init != nil {
		err = g.validateInit(init)
	} else {
		init, err = seedSlots(cm, g.chargerOf, g.firstSlot, nil)
	}
	if err != nil {
		g.release()
		return nil, fmt.Errorf("ccsga: %w", err)
	}
	g.reset(init)
	return g, nil
}

// run plays full-pass switch dynamics from the installed assignment:
// each pass visits every device (in index order, or in an order shuffled
// per pass by seed when it is nonzero) and moves it to its best response,
// until a pass moves nobody or the pass cap is hit.
func (g *chargerGame) run(seed int64, maxPasses int) (switches, passes int, converged bool) {
	n := len(g.cur)
	var r *rand.Rand
	if seed != 0 {
		r = rand.New(rand.NewSource(seed))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for limit := passCap(maxPasses, n); passes < limit; {
		passes++
		if r != nil {
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		moved := false
		for _, i := range order {
			cur := g.cur[i]
			if s, _ := g.bestResponse(i, g.share(i, cur), g.allSlots, false); s >= 0 {
				g.move(i, cur, s)
				switches++
				moved = true
			}
		}
		if !moved {
			return switches, passes, true
		}
	}
	return switches, passes, false
}

// bestResponse is the one switch rule of every CCSGA path — full passes,
// repair rounds and the Nash check. Among the candidate slots it takes
// the argmin over (share, slot index), so the choice does not depend on
// the order slots are listed in, and returns it with its share only when
// the share undercuts bar, device i's current share, by more than
// switchEps; otherwise it returns -1.
//
// A slot is skipped unevaluated when its share bound cannot clear the bar
// or exceeds the current candidate's share (so it can never be the
// argmin); a skipped slot stays unstamped in the join memo, since the
// bound says nothing about its share against a future, higher bar.
//
// A clean device (repair: its slot saw no delta) also skips slots whose
// join share is still memoized. Memo invariant: a still-stamped share was
// evaluated against a bar no larger than the device's current one (its
// share only drops by moving to something strictly better, and only rises
// through a full best response that re-judged every slot), so it cannot
// clear the strict improvement test now. Other devices keep memoized
// shares as argmin candidates because their bar may just have moved.
func (g *chargerGame) bestResponse(i int, bar float64, slots []int, clean bool) (int, float64) {
	cur := g.cur[i]
	bounds := g.shareBounds(i)
	candS, candShare := -1, 0.0
	for _, s := range slots {
		if s == cur {
			continue
		}
		sh, memoized := g.memoized(i, s)
		if memoized && clean {
			continue
		}
		if !memoized {
			if bounds != nil && (bounds[s] >= bar-switchEps || (candS >= 0 && bounds[s] > candShare)) {
				continue
			}
			sh = g.memoize(i, s)
		}
		if candS < 0 || sh < candShare || (sh == candShare && s < candS) {
			candS, candShare = s, sh
		}
	}
	if candS >= 0 && candShare < bar-switchEps {
		return candS, candShare
	}
	return -1, 0
}

// isNash reports whether the installed assignment is a pure Nash
// equilibrium: no device has a strictly improving switch.
func (g *chargerGame) isNash() bool {
	for i, cur := range g.cur {
		if s, _ := g.bestResponse(i, g.share(i, cur), g.allSlots, false); s >= 0 {
			return false
		}
	}
	return true
}

// assignmentSchedule converts a device→charger assignment into a
// Schedule with one coalition per patronized charger.
func assignmentSchedule(assign []int, numChargers int) *Schedule {
	members := make([][]int, numChargers)
	for i, j := range assign {
		members[j] = append(members[j], i) // ascending: i iterates in order
	}
	s := &Schedule{}
	for j, ms := range members {
		if len(ms) > 0 {
			s.Coalitions = append(s.Coalitions, Coalition{Charger: j, Members: ms})
		}
	}
	return s
}

// chargerGame is the CCSGA cost-sharing game, with O(1) share queries via
// per-slot aggregates. A strategy is a session slot: exactly one per
// charger without capacities; ⌈total purchase / capacity⌉ slots per
// charger when a session capacity could force splitting.
//
// Shares are memoized under one epoch invariant that every path playing
// the game shares — cold, warm, repair and shard-cell solves alike.
// slotEpoch[s] starts at 1 and bumps whenever slot s's aggregates or its
// charger's tariff can have changed: on every join and leave, on reset,
// and whenever the repair path invalidates the slot (a delta event
// touched it, or it rebuilds the slot's sums). A cached value whose
// stamp equals its slot's epoch was computed from the same inputs a
// recomputation would read — the slot's aggregates, its charger, and the
// device's own parameters (the repair path drops a device's row when
// they change) — so it is bit-identical to recomputing it. Stamp 0 is
// never valid.
type chargerGame struct {
	cm     *CostModel
	scheme SharingScheme
	// in is the instance behind cm, hoisted once at construction: share,
	// join and leave sit on the innermost solver loop and must not pay a
	// method call (and pointer chase) per evaluation. The pointer stays
	// valid across CostModel delta ops, which mutate the Instance in
	// place.
	in *Instance

	// chargerOf maps slot → charger index.
	chargerOf []int
	// firstSlot maps charger → its first slot index.
	firstSlot []int
	// allSlots lists every slot in index order: the candidate list of a
	// full best response.
	allSlots []int

	cur []int // device -> slot; -1 = added but not yet seated (repair)
	// Aggregates per slot over current members.
	count     []int
	purchased []float64 // Σ demand_i/η
	moveSum   []float64
	sigmaSum  []float64

	// sigma memoizes each device's standalone cost at construction:
	// share's ESS branch needs it twice per evaluation and join/leave
	// once each, and it never changes during a solve. A persisted game
	// (RepairState) keeps it current through the mutation listener; under
	// PDS the values only feed the (unused) sigmaSum aggregate, so a
	// stale entry after a tariff swap is harmless there.
	sigma []float64

	// Mobility state, allocated only when the instance has mobile
	// chargers: slotMembers[s] lists slot s's current members in
	// ascending device order, and routeLen[s] is the canonical planned
	// tour length over them (tour.Plan from the charger's home, members
	// ascending). Join and leave re-plan the touched slot's tour, so
	// tour-aware shares depend only on the member set, never on join
	// history — the property the pure-Nash verification needs.
	mobility     bool
	slotMembers  [][]int
	routeLen     []float64
	tourScratch  []int     // planWith's reusable hypothetical member list
	boundScratch []float64 // shareBounds' per-slot row under capacities

	pds bool // scheme is PDS (otherwise ESS semantics)

	slotEpoch []uint32 // per slot; see the type comment
	// charge[s] caches slot s's session term at its current membership
	// (sessionCharge), valid while chargeStamp[s] == slotEpoch[s]; every
	// member's share of its own slot reads it.
	charge      []float64
	chargeStamp []uint32
	// memo caches hypothetical-join shares: memo.share[i*slots+s] is
	// share(i, s) computed while device i was outside slot s, valid while
	// memo.stamp[i*slots+s] == slotEpoch[s]. A matching stamp also
	// certifies that i is still outside s, since its own join or leave
	// would have bumped the epoch. Nil when n·slots exceeds maxJoinMemo.
	memo *joinMemo
}

// joinMemo is the n×slots table of hypothetical-join shares. A game
// discarded after its solve returns its table to memoPool, so
// back-to-back solves reuse one buffer instead of allocating one each.
type joinMemo struct {
	share []float64
	stamp []uint32
}

// maxJoinMemo caps the join memo at 4Mi entries (48 MiB). A capacitated
// instance can have up to one slot per device per charger, and the memo
// is only a cache: past the cap every join share is recomputed.
const maxJoinMemo = 1 << 22

// maxPooledMemo keeps one oversized solve from pinning its buffer in
// memoPool for every later, smaller solve.
const maxPooledMemo = 1 << 16

var memoPool sync.Pool // of *joinMemo

// newJoinMemo returns an all-invalid memo of size entries, recycling a
// pooled buffer when one is large enough.
func newJoinMemo(size int) *joinMemo {
	m, _ := memoPool.Get().(*joinMemo)
	// Both capacities: deviceAdded grows the two buffers by separate
	// appends, which round to different size classes.
	if m == nil || cap(m.share) < size || cap(m.stamp) < size {
		return &joinMemo{share: make([]float64, size), stamp: make([]uint32, size)}
	}
	m.share, m.stamp = m.share[:size], m.stamp[:size]
	clear(m.stamp)
	return m
}

// SessionSlots returns CCSGA's session-slot layout for the instance behind
// cm: chargerOf maps each slot to its charger index, firstSlot maps each
// charger to its first slot. Without session capacities every charger has
// exactly one slot; with capacities a charger gets ⌈total purchase /
// capacity⌉ slots (at most one per device). Use it to build a
// CCSGAOptions.Init seed by hand.
func SessionSlots(cm *CostModel) (chargerOf, firstSlot []int) {
	in := cm.Instance()
	var totalDemand float64
	for _, d := range in.Devices {
		totalDemand += d.Demand
	}
	firstSlot = make([]int, len(in.Chargers))
	for j, ch := range in.Chargers {
		firstSlot[j] = len(chargerOf)
		slots := 1
		if ch.Capacity > 0 {
			need := totalDemand / ch.Efficiency
			slots = int(math.Ceil(need / ch.Capacity))
			if slots < 1 {
				slots = 1
			}
			if slots > cm.NumDevices() {
				slots = cm.NumDevices()
			}
		}
		for t := 0; t < slots; t++ {
			chargerOf = append(chargerOf, j)
		}
	}
	return chargerOf, firstSlot
}

func newChargerGame(cm *CostModel, scheme SharingScheme) (*chargerGame, error) {
	g := &chargerGame{cm: cm, scheme: scheme, in: cm.Instance()}
	switch scheme.(type) {
	case PDS:
		g.pds = true
	case ESS:
		g.pds = false
	default:
		return nil, fmt.Errorf("ccsga: unsupported sharing scheme %q", scheme.Name())
	}
	g.chargerOf, g.firstSlot = SessionSlots(cm)
	n := len(g.chargerOf)
	g.allSlots = make([]int, n)
	for s := range g.allSlots {
		g.allSlots[s] = s
	}
	g.count = make([]int, n)
	g.purchased = make([]float64, n)
	g.moveSum = make([]float64, n)
	g.sigmaSum = make([]float64, n)
	g.cur = make([]int, cm.NumDevices())
	g.sigma = make([]float64, cm.NumDevices())
	for i := range g.sigma {
		g.sigma[i], _ = cm.StandaloneCost(i)
	}
	if cm.HasMobility() {
		g.mobility = true
		g.slotMembers = make([][]int, n)
		g.routeLen = make([]float64, n)
	}
	g.slotEpoch = make([]uint32, n)
	for s := range g.slotEpoch {
		g.slotEpoch[s] = 1
	}
	g.charge = make([]float64, n)
	g.chargeStamp = make([]uint32, n)
	if size := cm.NumDevices() * n; size <= maxJoinMemo {
		g.memo = newJoinMemo(size)
	}
	return g, nil
}

// release hands the game's join memo back to memoPool; the game must
// not be played afterwards. Nil-safe, and a no-op after the first call.
func (g *chargerGame) release() {
	if g == nil || g.memo == nil {
		return
	}
	if max(cap(g.memo.share), cap(g.memo.stamp)) <= maxPooledMemo {
		memoPool.Put(g.memo)
	}
	g.memo = nil
}

// invalidate makes every cached share of slot s stale. join, leave and
// reset call it; the repair path calls it when a delta touches the slot
// and when it rebuilds the slot's sums.
func (g *chargerGame) invalidate(s int) { g.slotEpoch[s]++ }

// memoized returns the cached hypothetical-join share(i, s) and whether
// its stamp is current.
func (g *chargerGame) memoized(i, s int) (float64, bool) {
	if g.memo == nil {
		return 0, false
	}
	k := i*len(g.chargerOf) + s
	return g.memo.share[k], g.memo.stamp[k] == g.slotEpoch[s]
}

// deviceAdded grows the per-device state by one unseated device (the
// repair path seats it later); its memo row starts all-invalid.
func (g *chargerGame) deviceAdded() {
	g.cur = append(g.cur, -1)
	g.sigma = append(g.sigma, 0) // set when the device is seated
	if m := g.memo; m != nil {
		m.share = append(m.share, make([]float64, len(g.chargerOf))...)
		m.stamp = append(m.stamp, make([]uint32, len(g.chargerOf))...)
	}
}

// deviceRemoved drops device i's per-device state; later devices shift
// down one index, and their memo rows with them.
func (g *chargerGame) deviceRemoved(i int) {
	g.cur = append(g.cur[:i], g.cur[i+1:]...)
	g.sigma = append(g.sigma[:i], g.sigma[i+1:]...)
	if m, w := g.memo, len(g.chargerOf); m != nil {
		m.share = append(m.share[:i*w], m.share[(i+1)*w:]...)
		m.stamp = append(m.stamp[:i*w], m.stamp[(i+1)*w:]...)
	}
}

// deviceUpdated refreshes device i's standalone cost and drops its memo
// row: the device's own parameters entered every share cached for it.
func (g *chargerGame) deviceUpdated(i int) {
	g.sigma[i], _ = g.cm.StandaloneCost(i)
	if m, w := g.memo, len(g.chargerOf); m != nil {
		clear(m.stamp[i*w : (i+1)*w])
	}
}

// validateInit checks a caller-supplied device→slot seed: one in-range
// slot per device, and per-slot purchases within the slot's session
// capacity.
func (g *chargerGame) validateInit(init []int) error {
	cm := g.cm
	in := cm.Instance()
	if len(init) != cm.NumDevices() {
		return fmt.Errorf("init length %d, want %d devices", len(init), cm.NumDevices())
	}
	purchased := make([]float64, len(g.chargerOf))
	for i, s := range init {
		if s < 0 || s >= len(g.chargerOf) {
			return fmt.Errorf("init assigns device %d slot %d of %d", i, s, len(g.chargerOf))
		}
		purchased[s] += in.Devices[i].Demand / in.Chargers[g.chargerOf[s]].Efficiency
	}
	for s, p := range purchased {
		if cap := in.Chargers[g.chargerOf[s]].Capacity; cap > 0 && p > cap*(1+1e-12) {
			return fmt.Errorf("init overfills slot %d (charger %d): %.1f J > %.1f J capacity",
				s, g.chargerOf[s], p, cap)
		}
	}
	if cm.HasTravelBudget() {
		members := make([][]int, len(g.chargerOf))
		for i, s := range init {
			members[s] = append(members[s], i) // ascending: i iterates in order
		}
		for s, ms := range members {
			j := g.chargerOf[s]
			ch := &in.Chargers[j]
			if !ch.Mobile || ch.TravelBudget == 0 || len(ms) == 0 {
				continue
			}
			if l := cm.TourLength(ms, j); l > ch.TravelBudget*(1+1e-12) {
				return fmt.Errorf("init overruns slot %d (charger %d) travel budget: %.1f m > %.1f m",
					s, j, l, ch.TravelBudget)
			}
		}
	}
	return nil
}

// schedule converts the installed device→slot assignment into a Schedule
// with one coalition per occupied slot, in slot order.
func (g *chargerGame) schedule() *Schedule {
	s := assignmentSchedule(g.cur, len(g.chargerOf))
	for k := range s.Coalitions {
		c := &s.Coalitions[k]
		c.Charger = g.chargerOf[c.Charger]
	}
	return s
}

// reset installs the assignment and rebuilds aggregates.
func (g *chargerGame) reset(assign []int) {
	for s := range g.count {
		g.count[s] = 0
		g.purchased[s] = 0
		g.moveSum[s] = 0
		g.sigmaSum[s] = 0
		g.invalidate(s) // an emptied slot's sums change too (drift reset)
	}
	if g.mobility {
		for s := range g.slotMembers {
			g.slotMembers[s] = g.slotMembers[s][:0]
			g.routeLen[s] = 0
		}
	}
	copy(g.cur, assign)
	for i, s := range assign {
		g.join(i, s)
	}
}

func (g *chargerGame) join(i, s int) {
	j := g.chargerOf[s]
	g.invalidate(s)
	g.count[s]++
	g.purchased[s] += g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
	g.moveSum[s] += g.cm.MovingCost(i, j)
	g.sigmaSum[s] += g.sigma[i]
	if g.mobility {
		ms := g.slotMembers[s]
		at := sort.SearchInts(ms, i)
		ms = append(ms, 0)
		copy(ms[at+1:], ms[at:])
		ms[at] = i
		g.slotMembers[s] = ms
		if g.in.Chargers[j].Mobile {
			g.routeLen[s] = g.cm.TourLength(ms, j)
		}
	}
}

func (g *chargerGame) leave(i, s int) {
	j := g.chargerOf[s]
	g.invalidate(s)
	g.count[s]--
	g.purchased[s] -= g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
	g.moveSum[s] -= g.cm.MovingCost(i, j)
	g.sigmaSum[s] -= g.sigma[i]
	if g.mobility {
		ms := g.slotMembers[s]
		at := sort.SearchInts(ms, i)
		g.slotMembers[s] = append(ms[:at], ms[at+1:]...)
		if g.in.Chargers[j].Mobile {
			g.routeLen[s] = g.cm.TourLength(g.slotMembers[s], j)
		}
	}
}

// share is device i's cost share if it joined session slot s, holding
// everyone else fixed; for s = cur[i] it is i's current share. Both cases
// read the epoch-stamped caches (see the type comment); a miss computes
// exactly what memberShare or joinShare computes.
func (g *chargerGame) share(i, s int) float64 {
	if g.cur[i] == s {
		if g.chargeStamp[s] != g.slotEpoch[s] {
			g.charge[s], g.chargeStamp[s] = g.sessionCharge(s), g.slotEpoch[s]
		}
		return g.memberShare(i, s, g.charge[s])
	}
	if sh, ok := g.memoized(i, s); ok {
		return sh
	}
	return g.memoize(i, s)
}

// memoize computes device i's join share of slot s and caches it.
func (g *chargerGame) memoize(i, s int) float64 {
	sh := g.joinShare(i, s)
	if m := g.memo; m != nil {
		k := i*len(g.chargerOf) + s
		m.share[k], m.stamp[k] = sh, g.slotEpoch[s]
	}
	return sh
}

// shareBounds returns a slice indexed by slot whose entry s is never
// larger than share(i, s) as computed in floating point, for every s other
// than i's current slot; nil means no bound. The slice is read-only and
// valid until the next call. The bound is device i's moving cost to each
// slot's charger. Under PDS a share is the moving cost plus
// charging·mine/purchased, and every factor of that product is
// nonnegative (Fee ≥ 0, a nondecreasing tariff with Price(0) = 0, a
// travel leg ≥ 0), so the product rounds to ≥ 0 and, IEEE addition being
// monotone, the rounded sum to ≥ the moving cost. The bound thus holds
// exactly in floating point, and a full slot's +Inf satisfies it
// trivially. ESS shares subtract a surplus and have no such bound.
func (g *chargerGame) shareBounds(i int) []float64 {
	if !g.pds {
		return nil
	}
	if row := g.cm.move[i]; len(row) == len(g.chargerOf) {
		return row // one slot per charger: slot s is charger s
	}
	return g.slotBounds(i)
}

// slotBounds maps device i's moving-cost row onto the session slots.
func (g *chargerGame) slotBounds(i int) []float64 {
	buf := g.boundScratch[:0]
	for _, j := range g.chargerOf {
		buf = append(buf, g.cm.move[i][j])
	}
	g.boundScratch = buf
	return buf
}

// sessionCharge is slot s's session-level term at its current
// membership: fee plus tariff over the purchase, plus the travel leg of
// a mobile charger's planned tour. Both schemes split it among members.
func (g *chargerGame) sessionCharge(s int) float64 {
	ch := &g.in.Chargers[g.chargerOf[s]]
	charging := ch.Fee + ch.Tariff.Price(g.purchased[s])
	if g.mobility && ch.Mobile {
		charging += ch.MoveRate * g.routeLen[s]
	}
	return charging
}

// memberShare is member i's share of its own slot s, given the slot's
// session term.
func (g *chargerGame) memberShare(i, s int, charging float64) float64 {
	j := g.chargerOf[s]
	if g.pds {
		myPurchased := g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
		return g.cm.move[i][j] + charging*myPurchased/g.purchased[s]
	}
	cost := charging + g.moveSum[s]
	surplusPer := (g.sigmaSum[s] - cost) / float64(g.count[s])
	return g.sigma[i] - surplusPer
}

// joinShare is device i's share were it to join slot s (i outside s),
// holding everyone else fixed: +Inf when the session capacity or the
// mobile charger's travel budget cannot take it.
func (g *chargerGame) joinShare(i, s int) float64 {
	j := g.chargerOf[s]
	ch := &g.in.Chargers[j]
	myPurchased := g.in.Devices[i].Demand / ch.Efficiency
	purch := g.purchased[s] + myPurchased
	if ch.Capacity > 0 && purch > ch.Capacity*(1+1e-12) {
		return math.Inf(1) // the session is full; joining is infeasible
	}
	charging := ch.Fee + ch.Tariff.Price(purch)
	if g.mobility && ch.Mobile {
		// Tour-aware share: the charger's travel over its re-planned
		// rendezvous tour is a session-level cost like the fee, so it
		// folds into the term both schemes split among the members. A
		// hypothetical join prices the marginal detour of the re-planned
		// tour with the device included — and is infeasible outright when
		// that tour overruns the charger's travel budget.
		tourLen := g.planWith(s, i)
		if ch.TravelBudget > 0 && tourLen > ch.TravelBudget*(1+1e-12) {
			return math.Inf(1)
		}
		charging += ch.MoveRate * tourLen
	}
	myMove := g.cm.move[i][j]
	if g.pds {
		return myMove + charging*myPurchased/purch
	}
	// ESS.
	cost := charging + (g.moveSum[s] + myMove)
	surplusPer := ((g.sigmaSum[s] + g.sigma[i]) - cost) / float64(g.count[s]+1)
	return g.sigma[i] - surplusPer
}

// move commits device i's switch from its current slot from to slot to.
func (g *chargerGame) move(i, from, to int) {
	g.leave(i, from)
	g.join(i, to)
	g.cur[i] = to
}

// planWith returns the planned tour length of slot s's members with
// device i hypothetically joined, reusing a scratch buffer so share's
// inner loop does not allocate the member list per evaluation.
func (g *chargerGame) planWith(s, i int) float64 {
	ms := g.slotMembers[s]
	at := sort.SearchInts(ms, i)
	buf := g.tourScratch[:0]
	buf = append(buf, ms[:at]...)
	buf = append(buf, i)
	buf = append(buf, ms[at:]...)
	g.tourScratch = buf
	return g.cm.TourLength(buf, g.chargerOf[s])
}
