package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/pricing"
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
		// The cold start is seeded straight into cur; reset reads it in
		// place.
		init, err = seedSlots(cm, g.chargerOf, g.firstSlot, nil, g.cur)
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
	order := resize(g.order, n)
	g.order = order
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
// A slot is skipped unevaluated when a lower bound on its share cannot
// clear the bar or exceeds the current candidate's share (so it can never
// be the argmin). Under PDS there are two exact bounds: the price floor,
// moving cost plus demand times the charger's floor price (shareBounds,
// floorDemand), and for a chord-bearing charger the chord bound
// (chordBound), which reads the slot's purchase and so runs second. A
// slot the chord rules out is stamped in the join memo as a bound entry:
// a later full best response re-tests its value against its own bar, and
// share never returns it.
//
// A clean device (repair: its slot saw no delta) also skips slots whose
// join share is still memoized, exact or bound. Memo invariant: a
// still-stamped entry was judged against a bar no larger than the
// device's current one (its share only drops by moving to something
// strictly better, and only rises through a full best response that
// re-judged every slot), so the share behind it cannot clear the strict
// improvement test now. Other devices keep memoized shares as argmin
// candidates because their bar may just have moved.
func (g *chargerGame) bestResponse(i int, bar float64, slots []int, clean bool) (int, float64) {
	cur := g.cur[i]
	move, dem := g.shareBounds(i), g.floorDemand(i)
	limit := bar - switchEps
	candS, candShare := -1, 0.0
	for _, s := range slots {
		// The price floor holds whatever the memo holds, so it is tested
		// before the memo stamp is read.
		if s == cur || move != nil && outranked(move[s]+dem*g.floor[s], limit, candS, candShare) {
			continue
		}
		sh, st := g.memoized(i, s)
		switch {
		case st != memoMiss && clean:
			continue
		case st == memoBound:
			if outranked(sh, limit, candS, candShare) {
				continue
			}
			sh = g.memoize(i, s)
		case st == memoMiss:
			if move != nil {
				if lb, ok := g.chordBound(i, s); ok && outranked(lb, limit, candS, candShare) {
					g.stampBound(i, s, lb)
					continue
				}
			}
			sh = g.memoize(i, s)
		}
		if candS < 0 || sh < candShare || (sh == candShare && s < candS) {
			candS, candShare = s, sh
		}
	}
	if candS >= 0 && candShare < limit {
		return candS, candShare
	}
	return -1, 0
}

// outranked reports whether a slot whose share is at least lb can be
// skipped: its share cannot get under limit, the bar less switchEps, or
// it exceeds the current candidate's share.
func outranked(lb, limit float64, candS int, candShare float64) bool {
	return lb >= limit || (candS >= 0 && lb > candShare)
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
// Schedule with one coalition per patronized charger; start is scratch
// of one entry more than there are chargers. Every member list is a
// slice of one flat array, capped at its own length so an append to one
// cannot write into the next, and sorted ascending.
func assignmentSchedule(assign, start []int) *Schedule {
	// Count each charger's members into start[j+1], then turn the counts
	// into prefix sums: charger j's members fill flat[start[j]:start[j+1]].
	clear(start)
	for _, j := range assign {
		start[j+1]++
	}
	used := 0
	for j := 1; j < len(start); j++ {
		if start[j] > 0 {
			used++
		}
		start[j] += start[j-1]
	}
	flat := make([]int, len(assign))
	s := &Schedule{Coalitions: make([]Coalition, 0, used)}
	for j := 0; j+1 < len(start); j++ {
		if lo, hi := start[j], start[j+1]; lo < hi {
			s.Coalitions = append(s.Coalitions, Coalition{Charger: j, Members: flat[lo:hi:hi]})
		}
	}
	for i, j := range assign {
		flat[start[j]] = i // ascending: i iterates in order
		start[j]++
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
// slotEpoch[s] is even: it starts at 2 and steps by 2 whenever slot s's
// aggregates or its charger's tariff can have changed: on every join and
// leave, on reset, and whenever the repair path invalidates the slot (a
// delta event touched it, or it rebuilds the slot's sums). A cached value
// whose stamp equals its slot's epoch was computed from the same inputs a
// recomputation would read — the slot's aggregates, its charger, and the
// device's own parameters (the repair path drops a device's row when
// they change) — so it is bit-identical to recomputing it. A join-memo
// stamp of epoch+1 marks a bound entry: its value is only a lower bound
// on the share, computed from those same inputs. Stamp 0 is never valid.
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
	order        []int     // run's visiting order
	slotStart    []int     // schedule's per-slot scratch

	pds bool // scheme is PDS (otherwise ESS semantics)

	slotEpoch []uint32 // per slot; see the type comment
	// term[s] caches slot s's session term at its current membership, and
	// its chord, valid while term[s].stamp == slotEpoch[s]; every
	// member's share of its own slot reads it.
	term []sessionTerm
	// chord[j] is the right end of charger j's chords; chordDemand is the
	// total demand, with headroom, they were sized for. floor[s] is the
	// price floor of slot s's charger, per joule stored (see buildChord).
	chord       []chordEnd
	chordDemand float64
	floor       []float64
	// memo caches hypothetical-join shares: memo.share[i*slots+s] is
	// share(i, s) computed while device i was outside slot s, valid while
	// memo.stamp[i*slots+s] == slotEpoch[s], or a lower bound on it while
	// the stamp is slotEpoch[s]+1. A matching stamp also certifies that i
	// is still outside s, since its own join or leave would have bumped
	// the epoch. Nil when n·slots exceeds maxJoinMemo.
	memo *joinMemo
}

// sessionTerm is a slot's cached session term and chord slope.
type sessionTerm struct {
	charge float64 // fee + tariff over the purchase (+ travel leg)
	slope  float64 // of the tariff's chord from the purchase to x
	x      float64 // the chord end slope was built with; < 0: no chord
	stamp  uint32
}

// chordEnd is a charger's chord right end x, an energy above every join
// purchase when it was sized, and its price px; x == 0 means the charger
// gets no chord (see chordBound).
type chordEnd struct{ x, px float64 }

// joinMemo is the n×slots table of hypothetical-join shares.
type joinMemo struct {
	share []float64
	stamp []uint32
}

// maxJoinMemo caps the join memo at 4Mi entries (48 MiB). A capacitated
// instance can have up to one slot per device per charger, and the memo
// is only a cache: past the cap every join share is recomputed.
const maxJoinMemo = 1 << 22

// maxPooledEntries keeps one oversized solve from pinning its buffers in
// a pool for every later, smaller solve: a game whose join memo, or a
// cost model whose move table, has more entries is not pooled.
const maxPooledEntries = 1 << 16

// memoPool recycles discarded games — their join memos and every other
// buffer they play on — so back-to-back solves reuse one set of buffers
// instead of allocating their own. A pooled game holds no model.
var memoPool sync.Pool // of *chargerGame

// newJoinMemo returns an all-invalid memo of size entries, recycling m
// when it is large enough.
func newJoinMemo(m *joinMemo, size int) *joinMemo {
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
	return sessionSlots(cm, nil, nil)
}

// sessionSlots is SessionSlots building into the given buffers' arrays
// where they are large enough.
func sessionSlots(cm *CostModel, chargerOf, firstSlot []int) ([]int, []int) {
	in := cm.Instance()
	var totalDemand float64
	for _, d := range in.Devices {
		totalDemand += d.Demand
	}
	chargerOf = chargerOf[:0]
	firstSlot = resize(firstSlot, len(in.Chargers))
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

// newChargerGame builds the game for cm under scheme on the buffers of a
// game from memoPool when there is one: every buffer is resized and
// rewritten, so nothing of the game that last used them survives.
func newChargerGame(cm *CostModel, scheme SharingScheme) (*chargerGame, error) {
	var pds bool
	switch scheme.(type) {
	case PDS:
		pds = true
	case ESS:
	default:
		return nil, fmt.Errorf("ccsga: unsupported sharing scheme %q", scheme.Name())
	}
	g, _ := memoPool.Get().(*chargerGame)
	if g == nil {
		g = new(chargerGame)
	}
	old := *g
	chargerOf, firstSlot := sessionSlots(cm, old.chargerOf, old.firstSlot)
	slots, n := len(chargerOf), cm.NumDevices()
	*g = chargerGame{
		cm:           cm,
		scheme:       scheme,
		in:           cm.Instance(),
		pds:          pds,
		chargerOf:    chargerOf,
		firstSlot:    firstSlot,
		allSlots:     resize(old.allSlots, slots),
		cur:          resize(old.cur, n),
		count:        resize(old.count, slots),
		purchased:    resize(old.purchased, slots),
		moveSum:      resize(old.moveSum, slots),
		sigmaSum:     resize(old.sigmaSum, slots),
		sigma:        resize(old.sigma, n),
		slotMembers:  old.slotMembers,
		routeLen:     old.routeLen,
		tourScratch:  old.tourScratch[:0],
		boundScratch: old.boundScratch[:0],
		order:        old.order,
		slotStart:    old.slotStart,
		slotEpoch:    resize(old.slotEpoch, slots),
		term:         resize(old.term, slots),
		chord:        resize(old.chord, len(cm.Instance().Chargers)),
		floor:        resize(old.floor, slots),
	}
	for s := range g.allSlots {
		g.allSlots[s] = s
		g.slotEpoch[s] = 2
	}
	clear(g.count)
	clear(g.purchased)
	clear(g.moveSum)
	clear(g.sigmaSum)
	clear(g.term) // stamp 0 is never valid
	clear(g.chord)
	clear(g.floor)
	for i := range g.sigma {
		g.sigma[i], _ = cm.StandaloneCost(i)
	}
	if cm.HasMobility() {
		g.mobility = true
		g.slotMembers = resize(g.slotMembers, slots)
		for s := range g.slotMembers {
			g.slotMembers[s] = g.slotMembers[s][:0]
		}
		g.routeLen = resize(g.routeLen, slots)
		clear(g.routeLen)
	}
	g.sizeChords()
	if size := n * slots; size <= maxJoinMemo {
		g.memo = newJoinMemo(old.memo, size)
	}
	return g, nil
}

// release hands the game, with every buffer it plays on, back to memoPool
// for the next game to reuse; the game must not be touched afterwards.
// Nil-safe.
func (g *chargerGame) release() {
	if g == nil || g.cm == nil {
		return
	}
	g.cm, g.in, g.scheme = nil, nil, nil
	if m := g.memo; m != nil && max(cap(m.share), cap(m.stamp)) <= maxPooledEntries {
		memoPool.Put(g)
	}
}

// invalidate makes every cached share of slot s stale. join, leave and
// reset call it; the repair path calls it when a delta touches the slot
// and when it rebuilds the slot's sums. Epochs stay even, so the odd
// stamps of bound entries never match one.
func (g *chargerGame) invalidate(s int) { g.slotEpoch[s] += 2 }

// memoState classifies a join-memo entry against its slot's epoch.
type memoState uint8

const (
	memoMiss  memoState = iota // stale or never written
	memoExact                  // the share, bit-identical to recomputing it
	memoBound                  // a lower bound on the share
)

// memoized returns the cached entry for device i joining slot s and
// whether it is current, and if so exact or only a bound.
func (g *chargerGame) memoized(i, s int) (float64, memoState) {
	if g.memo == nil {
		return 0, memoMiss
	}
	k := i*len(g.chargerOf) + s
	switch g.memo.stamp[k] {
	case g.slotEpoch[s]:
		return g.memo.share[k], memoExact
	case g.slotEpoch[s] + 1:
		return g.memo.share[k], memoBound
	}
	return 0, memoMiss
}

// deviceAdded grows the per-device state by one unseated device (the
// repair path seats it later); its memo row starts all-invalid.
func (g *chargerGame) deviceAdded() {
	g.sizeChords()
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
	g.sizeChords()
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
	g.slotStart = resize(g.slotStart, len(g.chargerOf)+1)
	s := assignmentSchedule(g.cur, g.slotStart)
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
		if g.term[s].stamp != g.slotEpoch[s] {
			g.refreshCharge(s)
		}
		return g.memberShare(i, s, g.term[s].charge)
	}
	if sh, st := g.memoized(i, s); st == memoExact {
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

// stampBound caches lb, a lower bound on device i's join share of slot
// s, as a bound entry.
func (g *chargerGame) stampBound(i, s int, lb float64) {
	if m := g.memo; m != nil {
		k := i*len(g.chargerOf) + s
		m.share[k], m.stamp[k] = lb, g.slotEpoch[s]+1
	}
}

// shareBounds returns device i's moving cost to each slot's charger,
// indexed by slot, under PDS; nil under ESS, whose shares subtract a
// surplus and have no such bound. The slice is read-only and valid until
// the next call. With floorDemand and floor it gives the price floor
// move[s] + dem·floor[s], which is never larger than share(i, s) as
// computed in floating point, for every s other than i's current slot:
//
//   - A PDS share is the moving cost plus charging·mine/purch, and every
//     factor of that product is nonnegative (Fee ≥ 0, a nondecreasing
//     tariff with Price(0) = 0, a travel leg ≥ 0), so the product rounds
//     to ≥ 0 and, IEEE addition being monotone, the share to ≥ the moving
//     cost. That is the whole floor where floor[s] or dem is 0, and a
//     full slot's +Inf satisfies any floor trivially.
//   - Where floor[s] > 0 the rounded product is at least dem·floor[s]:
//     buildChord has the argument.
func (g *chargerGame) shareBounds(i int) []float64 {
	if !g.pds {
		return nil
	}
	if row := g.cm.move[i]; len(row) == len(g.chargerOf) {
		return row // one slot per charger: slot s is charger s
	}
	return g.slotBounds(i)
}

// floorDemand returns device i's demand, the factor of its price floor
// (see buildChord), or 0 when it lies outside [1/floorRange, floorRange]
// and the floor falls back to the moving cost.
func (g *chargerGame) floorDemand(i int) float64 {
	if d := g.in.Devices[i].Demand; d >= 1/floorRange && d <= floorRange {
		return d
	}
	return 0
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

// refreshCharge recomputes slot s's session-level term at its current
// membership — fee plus tariff over the purchase, plus the travel leg of
// a mobile charger's planned tour; both schemes split it among members —
// and the slot's chord slope, and stamps both with the slot's epoch.
func (g *chargerGame) refreshCharge(s int) {
	j := g.chargerOf[s]
	ch := &g.in.Chargers[j]
	p := g.purchased[s]
	price := tariffPrice(&ch.Tariff, p)
	charging := ch.Fee + price
	if g.mobility && ch.Mobile {
		charging += ch.MoveRate * g.routeLen[s]
	}
	t := sessionTerm{charge: charging, x: -1, stamp: g.slotEpoch[s]}
	// An emptied slot's running sum can land a few ulps below 0, where
	// Price is 0 and φ is not concave across 0: no chord there.
	if c := g.chord[j]; p >= 0 && p < c.x {
		t.slope, t.x = (c.px-price)/(c.x-p), c.x
	}
	g.term[s] = t
}

// chordMargin scales a chord bound's session term down by 1e-9
// relative, three orders of magnitude above the rounding it must absorb;
// chordMinCharge is the smallest scaled term a bound may use, so every
// value it rests on is a normal float carrying only relative error (see
// chordBound).
const (
	chordMargin    = 1 - 1e-9
	chordMinCharge = 1e-290
	// chordHeadroom sizes chords for 1/64 more total demand than the
	// instance has, so a stream of joins that keeps total demand near
	// its level rarely rebuilds them.
	chordHeadroom = 1 + 1.0/64
	// chordSlack is the least headroom chords keep: sizeChords rebuilds
	// them once total demand comes within 2⁻¹⁰ of what they were sized
	// for, so every slot's running purchase stays below the right end
	// however it drifts (see buildChord).
	chordSlack = 1 + 0x1p-10
	// floorRange bounds the demands and floor prices a price floor is
	// built from to [1/floorRange, floorRange], so every value it and
	// the share it bounds rest on is a normal float (see buildChord).
	floorRange = 1e100
)

// sizeChords resizes every charger's chord, and with it its price floor,
// when total demand comes within chordSlack of the demand the chords
// were sized for. A PDS game sizes them at construction, and the repair
// path calls it after a device is added or updated. A slot keeps the
// slope it was refreshed with until its epoch moves; term[s].x records
// which right end that slope belongs to.
func (g *chargerGame) sizeChords() {
	if !g.pds {
		return
	}
	var total float64
	for _, d := range g.in.Devices {
		total += d.Demand
	}
	if total*chordSlack <= g.chordDemand {
		return
	}
	g.chordDemand = total * chordHeadroom
	for j := range g.in.Chargers {
		g.buildChord(j)
	}
}

// buildChord sets charger j's chord end and its price, and the price
// floor of its slots: only a stationary charger whose tariff is a power
// law in concaveByForm's region over [0, x] gets them (under ESS
// chordDemand stays 0, so none does); any other charger's floor is 0.
// The repair path calls it again when the charger's tariff is swapped;
// the swap dirties the charger's slots, so no slope of the old tariff
// survives.
//
// The floor is k = (Fee + φ(x))/x/η, scaled by chordMargin, and device
// i's share of any slot s of the charger is at least move + D_i·k. Its
// PDS share is move + w·(Fee + φ(y))/y with w = D_i/η and y = P + w the
// join purchase, and the average price (Fee + φ(y))/y is nonincreasing
// in y for a concave φ with φ(0) = 0 and Fee ≥ 0, so it is at least
// (Fee + φ(x))/x wherever y ≤ x. Every slot's purchase is a sum of
// member purchases whose total is below x/chordSlack (sizeChords keeps
// it so); the running sum drifts by at most half an ulp of x per join
// or leave since the slot's sums were last rebuilt, so it would take
// 2⁴² of them to pass x. In floating point both sides carry a few
// roundings and math.Pow's ~1e-13, each relative, three orders below
// the margin, provided every value is normal or overflows (which only
// raises the share): a scaled Fee + φ(x) of at least chordMinCharge
// makes a subnormal φ(x) negligible, and k and D_i in [1/floorRange,
// floorRange] keep D_i·k in [1e-200, 1e200], the session term (at least
// D_i·k/chordMargin) and its product with w (at least D_i²·k) at or
// above 1e-300, and the join purchase, at least D_i and at most x,
// inside the region where Price carries relative error. floorDemand
// drops a device outside the range to the moving-cost bound.
func (g *chargerGame) buildChord(j int) {
	ch := &g.in.Chargers[j]
	g.chord[j] = chordEnd{}
	k := 0.0
	if x := g.chordDemand / ch.Efficiency; !ch.Mobile && !g.cm.chordless {
		if px, ok := pricing.PowerLawOver(&ch.Tariff, x); ok {
			g.chord[j] = chordEnd{x: x, px: px}
			if c := (ch.Fee + px) * chordMargin; c >= chordMinCharge {
				if f := c / x / ch.Efficiency; f >= 1/floorRange && f <= floorRange {
					k = f
				}
			}
		}
	}
	for s := g.firstSlot[j]; s < len(g.chargerOf) && g.chargerOf[s] == j; s++ {
		g.floor[s] = k
	}
}

// chordBound returns a lower bound on joinShare(i, s) under PDS, never
// larger than the computed share, and whether one applies: slot s must
// belong to a chord-bearing charger, and the join purchase must not pass
// the right end its slope was built with. It refreshes the slot's
// session term when stale, which costs one tariff price per slot epoch.
//
// With P the slot's purchase, w device i's and X ≥ P+w the chord's right
// end, concavity of φ with φ(0) = 0 gives
// φ(P+w) ≥ φ(P) + w·(φ(X) − φ(P))/(X − P), so the session term
// Fee + φ(P+w) is at least c = term[s].charge + w·term[s].slope, scaled
// by chordMargin. The bound is move + c·w/purch, evaluated exactly as
// joinShare evaluates move + charging·w/purch; IEEE rounding is
// monotone, so c ≤ fl(Fee + Price(purch)) carries through to the share.
// That inequality holds in floating point because every error on either
// side is relative and small: the prices carry math.Pow's ~1e-13, the
// slope's error is at most a few of those relative to φ(P+w) (w ≤ X − P
// and concavity bound both w·φ(X)/(X − P) and φ(P) by 2φ(P+w)), and
// pricing at the rounded purch costs one more rounding. Their sum is
// under 1e-12, three orders below the margin. Relative error needs
// normal floats: the region PowerLawOver checks keeps X and every price
// finite, and a scaled term below 1e-290 gets no bound, so any
// subnormal price or product, off by under 1e-320, cannot matter.
//
// The chord must not be extrapolated: past X a concave φ lies under the
// chord's line, so a purchase above the X a slope was built with gets no
// bound.
func (g *chargerGame) chordBound(i, s int) (float64, bool) {
	j := g.chargerOf[s]
	if g.chord[j].x == 0 {
		return 0, false
	}
	if g.term[s].stamp != g.slotEpoch[s] {
		g.refreshCharge(s)
	}
	t := &g.term[s]
	mine := g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
	purch := g.purchased[s] + mine
	if !(purch <= t.x) {
		return 0, false
	}
	c := (t.charge + mine*t.slope) * chordMargin
	if !(c >= chordMinCharge) {
		return 0, false
	}
	return g.cm.move[i][j] + c*mine/purch, true
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
	charging := ch.Fee + tariffPrice(&ch.Tariff, purch)
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
