package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

// plainSolve is the plain-path referee for ccsgaSolve: the same seeded
// game, played by plainRun, with the Nash verdict of bruteForceNash.
func plainSolve(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, *chargerGame, error) {
	g, err := seededGame(cm, opts)
	if err != nil {
		return nil, nil, err
	}
	res := &CCSGAResult{}
	res.Switches, res.Passes, res.Converged = plainRun(g, opts.Seed, opts.MaxPasses)
	res.Schedule = g.schedule()
	res.NashStable = res.Converged || bruteForceNash(g)
	return res, g, nil
}

// plainRun is the reference for chargerGame.run: the same switch rule —
// argmin over (share, slot index), accepted only on a strict switchEps
// improvement — played in full passes with every share from
// referenceShare, so no share bound and no memo is involved. Moves still
// go through the game, so its aggregates evolve exactly as on the fast
// path.
func plainRun(g *chargerGame, seed int64, maxPasses int) (switches, passes int, converged bool) {
	n := len(g.cur)
	var r *rand.Rand
	if seed != 0 {
		r = rand.New(rand.NewSource(seed))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for limit := passCap(maxPasses, n); passes < limit && !converged; {
		passes++
		if r != nil {
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		converged = true
		for _, i := range order {
			if s := plainBestResponse(g, i); s >= 0 {
				g.move(i, g.cur[i], s)
				switches++
				converged = false
			}
		}
	}
	return switches, passes, converged
}

// plainBestResponse is bestResponse over every slot with every share
// recomputed: the lowest-share slot (lowest index among equal shares) if
// it undercuts device i's current share by more than switchEps, else -1.
func plainBestResponse(g *chargerGame, i int) int {
	cur := g.cur[i]
	best, bestShare := -1, 0.0
	for s := range g.chargerOf {
		if s == cur {
			continue
		}
		if sh := referenceShare(g, i, s); best < 0 || sh < bestShare {
			best, bestShare = s, sh
		}
	}
	if best >= 0 && bestShare < referenceShare(g, i, cur)-switchEps {
		return best
	}
	return -1
}

// bruteForceNash is the independent Nash referee: it reports whether no
// device of g's installed assignment can lower its referenceShare by
// more than switchEps with any unilateral switch.
func bruteForceNash(g *chargerGame) bool {
	for i, cur := range g.cur {
		bar := referenceShare(g, i, cur) - switchEps
		for s := range g.chargerOf {
			if s != cur && referenceShare(g, i, s) < bar {
				return false
			}
		}
	}
	return true
}

// referenceShare is chargerGame.share as it was before the share memo:
// every call recomputes the share from the slot aggregates.
func referenceShare(g *chargerGame, i, s int) float64 {
	j := g.chargerOf[s]
	ch := &g.in.Chargers[j]
	myPurchased := g.in.Devices[i].Demand / ch.Efficiency
	myMove := g.cm.MovingCost(i, j)

	cnt := g.count[s]
	purch := g.purchased[s]
	moveSum := g.moveSum[s]
	sigmaSum := g.sigmaSum[s]
	if g.cur[i] != s { // hypothetical join
		if ch.Capacity > 0 && purch+myPurchased > ch.Capacity*(1+1e-12) {
			return math.Inf(1)
		}
		cnt++
		purch += myPurchased
		moveSum += myMove
		sigmaSum += g.sigma[i]
	}
	charging := ch.Fee + ch.Tariff.Price(purch)
	if g.mobility && ch.Mobile {
		tourLen := g.routeLen[s]
		if g.cur[i] != s {
			tourLen = g.planWith(s, i)
			if ch.TravelBudget > 0 && tourLen > ch.TravelBudget*(1+1e-12) {
				return math.Inf(1)
			}
		}
		charging += ch.MoveRate * tourLen
	}
	if g.pds {
		return myMove + charging*myPurchased/purch
	}
	cost := charging + moveSum
	surplusPer := (sigmaSum - cost) / float64(cnt)
	return g.sigma[i] - surplusPer
}

// countingTariff counts Price evaluations, the unit of work the share
// memo and the moving-cost bound exist to save.
type countingTariff struct {
	pricing.Tariff
	calls *int
}

func (c countingTariff) Price(e float64) float64 {
	*c.calls++
	return c.Tariff.Price(e)
}

// withCountingTariffs returns a copy of in whose tariffs all count into
// one shared counter.
func withCountingTariffs(in *Instance) (*Instance, *int) {
	calls := new(int)
	cp := cloneInstance(in)
	for j := range cp.Chargers {
		cp.Chargers[j].Tariff = countingTariff{cp.Chargers[j].Tariff, calls}
	}
	return cp, calls
}

// solveBothPaths solves in on the fast path and on the plain path, each
// over its own cost model, and returns both outcomes with the tariff
// prices each solve evaluated (model construction excluded). Each
// outcome's Nash verdict must match the brute-force referee's.
func solveBothPaths(t *testing.T, in *Instance, opts CCSGAOptions) (fast, plain ccsgaOutcome) {
	t.Helper()
	run := func(solve func(*CostModel, CCSGAOptions) (*CCSGAResult, *chargerGame, error)) ccsgaOutcome {
		cp, calls := withCountingTariffs(in)
		cm := mustCostModel(t, cp)
		*calls = 0
		res, g, err := solve(cm, opts)
		if err != nil {
			t.Fatal(err)
		}
		prices := *calls
		if nash := bruteForceNash(g); res.NashStable != nash {
			t.Fatalf("NashStable = %v, brute-force referee says %v", res.NashStable, nash)
		}
		assign := slices.Clone(g.cur)
		g.release()
		return ccsgaOutcome{res: res, assign: assign, prices: prices}
	}
	return run(ccsgaSolve), run(plainSolve)
}

type ccsgaOutcome struct {
	res    *CCSGAResult
	assign []int
	prices int
}

// sameOutcome reports the first field on which two solves differ, or "".
func sameOutcome(a, b ccsgaOutcome) string {
	switch {
	case !reflect.DeepEqual(a.assign, b.assign):
		return fmt.Sprintf("assignment %v vs %v", a.assign, b.assign)
	case a.res.Passes != b.res.Passes:
		return fmt.Sprintf("passes %d vs %d", a.res.Passes, b.res.Passes)
	case a.res.Switches != b.res.Switches:
		return fmt.Sprintf("switches %d vs %d", a.res.Switches, b.res.Switches)
	case a.res.Converged != b.res.Converged:
		return fmt.Sprintf("converged %v vs %v", a.res.Converged, b.res.Converged)
	case a.res.NashStable != b.res.NashStable:
		return fmt.Sprintf("nash %v vs %v", a.res.NashStable, b.res.NashStable)
	case !schedulesEqual(a.res.Schedule, b.res.Schedule):
		return "schedules differ"
	}
	return ""
}

// TestShareMemoMatchesPlainPath is the differential referee for the
// share memo and the moving-cost bound: on seeded instances covering
// both sharing schemes, session capacities, mobile chargers with travel
// budgets, randomized visiting orders, warm seeds and pass-capped runs,
// the fast path must reproduce the plain path's assignment, pass and
// switch counts, convergence and Nash verdict exactly — and never
// evaluate more tariff prices. Both Nash verdicts must also match the
// brute-force referee, pass-capped runs included.
func TestShareMemoMatchesPlainPath(t *testing.T) {
	r := rand.New(rand.NewSource(1414))
	var fastPrices, plainPrices int
	for trial := 0; trial < 48; trial++ {
		n, m := 4+r.Intn(40), 2+r.Intn(6) // m ≥ 2: one stationary charger seats what budgets cannot
		var in *Instance
		kind := trial % 4
		switch kind {
		case 0:
			in = randInstance(r, n, m)
		case 1:
			in = warmInstance(r, n, m, true)
		case 2:
			in = randMobileInstance(r, n, m)
		default:
			in = warmInstance(r, n, m, false)
		}
		var opts CCSGAOptions
		if trial%3 == 1 {
			opts.Scheme = ESS{}
		}
		if trial%5 == 2 {
			opts.Seed = int64(trial) + 1
		}
		if trial%8 == 5 {
			opts.MaxPasses = 1
		}
		if kind == 3 {
			// Warm seed: the equilibrium of a perturbed predecessor.
			ws := NewWarmStart()
			prev := mustCostModel(t, cloneInstance(in))
			res, err := CCSGA(prev, CCSGAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ws.Record(prev.Instance(), res.Schedule)
			in = perturb(r, in, trial)
			init, err := ws.Seed(mustCostModel(t, cloneInstance(in)))
			if err != nil {
				t.Fatal(err)
			}
			opts.Init = init
		}
		tag := fmt.Sprintf("trial %d (n=%d m=%d kind=%d scheme=%v seed=%d passes=%d)",
			trial, len(in.Devices), m, kind, opts.Scheme, opts.Seed, opts.MaxPasses)
		fast, plain := solveBothPaths(t, in, opts)
		if d := sameOutcome(fast, plain); d != "" {
			t.Fatalf("%s: fast path diverged from plain path: %s", tag, d)
		}
		if fast.prices > plain.prices {
			t.Errorf("%s: fast path priced %d tariffs, plain path %d", tag, fast.prices, plain.prices)
		}
		fastPrices += fast.prices
		plainPrices += plain.prices
	}
	t.Logf("tariff prices over all trials: fast %d, plain %d", fastPrices, plainPrices)
}

// TestShareMemoPricesFewerTariffs pins that the shortcuts are live: on
// a fixed instance the fast path must evaluate strictly fewer tariff
// prices than the plain path, under PDS (bound and memo) and under ESS
// (memo only), so a silently disabled memo fails here.
func TestShareMemoPricesFewerTariffs(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(7)), 60, 8)
	for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
		fast, plain := solveBothPaths(t, in, CCSGAOptions{Scheme: scheme})
		if d := sameOutcome(fast, plain); d != "" {
			t.Fatalf("%s: fast path diverged from plain path: %s", scheme.Name(), d)
		}
		if fast.prices >= plain.prices {
			t.Errorf("%s: fast path priced %d tariffs, plain path %d; want strictly fewer",
				scheme.Name(), fast.prices, plain.prices)
		}
		t.Logf("%s: fast %d prices, plain %d", scheme.Name(), fast.prices, plain.prices)
	}
}

// opaqueTariff hides a tariff's closed form, so the cost model gives it
// no chord and bounds its prices by zero.
type opaqueTariff struct{ pricing.Tariff }

// skipTestTariff draws a random concave tariff: linear (sometimes free,
// so bounds and costs tie exactly), power-law, multi-tier, or one of
// those hidden behind opaqueTariff.
func skipTestTariff(r *rand.Rand) pricing.Tariff {
	var t pricing.Tariff
	switch r.Intn(4) {
	case 0:
		t = pricing.Linear{Rate: 0.01 + r.Float64()*0.05}
	case 1:
		t = pricing.PowerLaw{Coeff: 0.05 + r.Float64()*0.4, Exponent: 0.5 + r.Float64()*0.5}
	case 2:
		tiers := []pricing.Tier{}
		rate, upTo := 0.03+r.Float64()*0.05, 0.0
		for k := r.Intn(4); k > 0; k-- {
			upTo += 20 + r.Float64()*300
			tiers = append(tiers, pricing.Tier{UpTo: upTo, Rate: rate})
			rate *= 0.3 + r.Float64()*0.7
		}
		t = testutil.MustTiered(append(tiers, pricing.Tier{UpTo: math.Inf(1), Rate: rate}))
	default:
		t = pricing.Linear{}
	}
	if r.Intn(5) == 0 {
		t = opaqueTariff{t}
	}
	return t
}

// skipTestInstance is randInstance with skipTestTariff tariffs, session
// capacities on some chargers, budgeted mobile chargers, and exact
// duplicates of some chargers (equal costs, so ties must go to the lower
// index). Charger 0 stays stationary and uncapacitated, so every device,
// however large, fits somewhere.
func skipTestInstance(r *rand.Rand, n, m int) *Instance {
	in := randInstance(r, n, m)
	for j := range in.Chargers {
		c := &in.Chargers[j]
		c.Tariff = skipTestTariff(r)
		if j == 0 {
			continue
		}
		switch r.Intn(6) {
		case 0:
			c.Capacity = 200 + r.Float64()*400
		case 1:
			c.Mobile = true
			c.MoveRate = 0.01 + r.Float64()*0.05
			c.TravelBudget = 1500 + r.Float64()*2000
		case 2:
			*c = in.Chargers[r.Intn(j)]
			if r.Intn(2) == 0 {
				c.Tariff = opaqueTariff{c.Tariff}
			}
		}
	}
	return in
}

// requireStandaloneMatchesPlainScan checks every device's standalone
// cost and charger against a scan that prices every charger the device
// fits alone at, with the moving costs recomputed from the positions.
func requireStandaloneMatchesPlainScan(t *testing.T, cm *CostModel, tag string) {
	t.Helper()
	in := cm.Instance()
	for i, d := range in.Devices {
		best, bestJ := math.Inf(1), -1
		for j, c := range in.Chargers {
			move := d.MoveRate * d.Pos.Dist(c.Pos)
			if c.Mobile {
				move = 0
			}
			if got := cm.MovingCost(i, j); got != move {
				t.Fatalf("%s: device %d charger %d moving cost %v, want %v", tag, i, j, got, move)
			}
			if c.Capacity > 0 && d.Demand/c.Efficiency > c.Capacity*(1+1e-12) {
				continue
			}
			cost := c.Fee + c.Tariff.Price(d.Demand/c.Efficiency) + move
			if c.Mobile {
				if !c.reaches(d.Pos) {
					continue
				}
				cost += c.MoveRate * 2 * c.Home().Dist(d.Pos)
			}
			if cost < best {
				best, bestJ = cost, j
			}
		}
		if got, gotJ := cm.StandaloneCost(i); got != best || gotJ != bestJ {
			t.Fatalf("%s: device %d standalone (%v, %d), plain scan (%v, %d)", tag, i, got, gotJ, best, bestJ)
		}
	}
}

// TestStandaloneSkipMatchesPlainScan is the differential referee for the
// chord skip in standaloneFor: over linear, power-law, tiered and
// chordless tariffs, capacities, budgeted mobile chargers, duplicate
// chargers and m > 64, every device's (standalone cost, charger) must
// equal the plain scan's — after the build and after every op of a delta
// stream of AddDevice and UpdateDevice (often with demands above or
// below the build-time demand range), RemoveDevice and SetTariff.
func TestStandaloneSkipMatchesPlainScan(t *testing.T) {
	r := rand.New(rand.NewSource(2121))
	for trial := 0; trial < 40; trial++ {
		n, m := 1+r.Intn(30), 1+r.Intn(9)
		if trial%5 == 4 {
			m = 65 + r.Intn(30)
		}
		var in *Instance
		switch trial % 4 {
		case 0:
			in = randInstance(r, n, m)
		case 1:
			in = warmInstance(r, n, m, true)
		case 2:
			in = randMobileInstance(r, n, m)
		default:
			in = skipTestInstance(r, n, m)
		}
		cm := mustCostModel(t, in)
		tag := fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m)
		requireStandaloneMatchesPlainScan(t, cm, tag+" build")
		if trial%4 == 1 {
			continue // warmInstance's capacities may not fit grown demands
		}
		lo, hi := demandRange(cm.Instance().Devices)
		for op := 0; op < 12; op++ {
			d := Device{
				ID:       fmt.Sprintf("op-%d", op),
				Pos:      geom.UniformPoints(r, in.Field, 1)[0],
				Demand:   50 + r.Float64()*300,
				MoveRate: 0.005 + r.Float64()*0.02,
			}
			switch r.Intn(3) {
			case 0:
				d.Demand = hi * (1 + r.Float64()*2)
			case 1:
				d.Demand = lo * r.Float64()
			}
			var err error
			switch k := r.Intn(4); {
			case k == 0:
				err = cm.AddDevice(d)
			case k == 1 && cm.NumDevices() > 1:
				err = cm.RemoveDevice(r.Intn(cm.NumDevices()))
			case k == 2:
				i := r.Intn(cm.NumDevices())
				if r.Intn(2) == 0 {
					d.Pos, d.MoveRate = cm.Instance().Devices[i].Pos, cm.Instance().Devices[i].MoveRate
				}
				err = cm.UpdateDevice(i, d)
			default:
				j := r.Intn(m)
				tariff := skipTestTariff(r)
				if r.Intn(2) == 0 {
					// Far cheaper than any tariff drawn at build time:
					// the charger must win devices its old chord would
					// have ruled out.
					tariff = pricing.PowerLaw{Coeff: 0.001 + r.Float64()*0.01, Exponent: 0.5}
				}
				err = cm.SetTariff(j, tariff)
			}
			if err != nil {
				t.Fatalf("%s op %d: %v", tag, op, err)
			}
			requireStandaloneMatchesPlainScan(t, cm, fmt.Sprintf("%s op %d", tag, op))
		}
	}
}

// TestShareMemoHitsAndInvalidates pins each cache on its own: a repeated
// hypothetical join and a repeated own-slot share price the tariff once,
// and a move into the slot makes the next join share recompute — to the
// value the plain evaluation gives.
func TestShareMemoHitsAndInvalidates(t *testing.T) {
	for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
		in, calls := withCountingTariffs(randInstance(rand.New(rand.NewSource(3)), 12, 4))
		cm := mustCostModel(t, in)
		g, err := newChargerGame(cm, scheme)
		if err != nil {
			t.Fatal(err)
		}
		init, err := seedSlots(cm, g.chargerOf, g.firstSlot, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.reset(init)
		i, k := 0, 1
		s := (g.cur[i] + 1) % len(g.chargerOf)
		priced := func(f func() float64) (float64, int) {
			*calls = 0
			v := f()
			return v, *calls
		}
		join := func() float64 { return g.share(i, s) }
		if _, n := priced(join); n != 1 {
			t.Fatalf("%s: first join share priced %d tariffs, want 1", scheme.Name(), n)
		}
		if _, n := priced(join); n != 0 {
			t.Errorf("%s: repeated join share priced %d tariffs, want 0 (memo hit)", scheme.Name(), n)
		}
		own := func() float64 { return g.share(k, g.cur[k]) }
		priced(own)
		if _, n := priced(own); n != 0 {
			t.Errorf("%s: repeated own-slot share priced %d tariffs, want 0 (session-term hit)", scheme.Name(), n)
		}
		if g.cur[k] == s {
			k = 2
		}
		g.move(k, g.cur[k], s)
		got, n := priced(join)
		if n != 1 {
			t.Errorf("%s: join share after a move into the slot priced %d tariffs, want 1", scheme.Name(), n)
		}
		if want := referenceShare(g, i, s); got != want {
			t.Errorf("%s: join share after a move = %v, plain evaluation %v", scheme.Name(), got, want)
		}
	}
}

// requireMemoExact asserts the memo invariant directly: every exact
// entry equals the plain evaluation bit for bit, every bound entry is at
// most it, and every share the game answers equals it bit for bit. It
// returns the number of bound entries it found.
func requireMemoExact(t *testing.T, g *chargerGame, tag string) (bounds int) {
	t.Helper()
	for i := range g.cur {
		if g.cur[i] < 0 {
			continue // added by a delta, seated at the next repair
		}
		for s := 0; s < len(g.chargerOf); s++ {
			want := referenceShare(g, i, s)
			switch v, st := g.memoized(i, s); {
			case s == g.cur[i]:
			case st == memoExact && math.Float64bits(v) != math.Float64bits(want):
				t.Fatalf("%s: memo entry (%d, %d) = %v, plain evaluation %v", tag, i, s, v, want)
			case st == memoBound && !(v <= want):
				t.Fatalf("%s: bound entry (%d, %d) = %v above the plain evaluation %v", tag, i, s, v, want)
			case st == memoBound:
				bounds++
			}
			if got := g.share(i, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: share(%d, %d) = %v from the caches, plain evaluation %v", tag, i, s, got, want)
			}
		}
	}
	return bounds
}

// TestShareMemoExactAcrossLifecycle checks the memo invariant through
// everything that can change a share: switch dynamics, the aggregate
// rebuild when a repair state primes, random moves, and a stream of
// delta events with the repairs between them (the delta listener's
// invalidations, row drops and row shifts).
func TestShareMemoExactAcrossLifecycle(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		r := rand.New(rand.NewSource(515))
		in := warmInstance(r, 24, 4, capacitated)
		cm := mustCostModel(t, in)
		ws, rs := NewWarmStart(), NewRepairState()
		sched := CCSGAScheduler{}
		if _, err := sched.ScheduleRepair(cm, ws, rs); err != nil {
			t.Fatal(err)
		}
		requireMemoExact(t, rs.game, "after prime")
		for step := 0; step < 40; step++ {
			tag, err := randomRepairDelta(r, cm, step)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, tag, err)
			}
			if rs.primed {
				requireMemoExact(t, rs.game, fmt.Sprintf("step %d after %s", step, tag))
			}
			if _, err := sched.ScheduleRepair(cm, ws, rs); err != nil {
				t.Fatalf("step %d %s: %v", step, tag, err)
			}
			requireMemoExact(t, rs.game, fmt.Sprintf("step %d repaired after %s", step, tag))
		}

		// Random moves on a cold game: every join and leave must
		// invalidate exactly what it changed.
		g, err := newChargerGame(cm, PDS{})
		if err != nil {
			t.Fatal(err)
		}
		init, err := seedSlots(cm, g.chargerOf, g.firstSlot, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.reset(init)
		for step := 0; step < 60; step++ {
			requireMemoExact(t, g, fmt.Sprintf("move %d", step))
			i, to := r.Intn(cm.NumDevices()), r.Intn(len(g.chargerOf))
			if from := g.cur[i]; from != to {
				g.move(i, from, to)
			}
		}
		g.reset(append([]int(nil), g.cur...))
		requireMemoExact(t, g, "after reset")
	}
}

// TestShareMemoPoolConcurrentSolves shares memoPool between goroutines
// solving instances of different sizes, so buffers are recycled across
// solves, sizes and goroutines; every answer must equal its serial
// solve. Run under -race.
func TestShareMemoPoolConcurrentSolves(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	var models []*CostModel
	var want []*CCSGAResult
	for k := 0; k < 6; k++ {
		cm := mustCostModel(t, warmInstance(r, 10+15*k, 2+k, k%2 == 1))
		res, err := CCSGA(cm, CCSGAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		models, want = append(models, cm), append(want, res)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for step := 0; step < 12; step++ {
				k := (w + step) % len(models)
				got, err := CCSGA(models[k], CCSGAOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !schedulesEqual(got.Schedule, want[k].Schedule) || got.Passes != want[k].Passes ||
					got.Switches != want[k].Switches {
					t.Errorf("worker %d step %d: instance %d solved differently than serially", w, step, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestJoinMemoReuseChecksBothBuffers recycles a memo whose buffers grew
// apart (repair's deviceAdded appends to each separately): reuse must
// check both capacities rather than slice the shorter one out of range.
func TestJoinMemoReuseChecksBothBuffers(t *testing.T) {
	m := newJoinMemo(&joinMemo{share: make([]float64, 0, 128), stamp: make([]uint32, 0, 120)}, 128)
	if len(m.share) != 128 || len(m.stamp) != 128 {
		t.Fatalf("memo lengths %d/%d, want 128", len(m.share), len(m.stamp))
	}
	for k, st := range m.stamp {
		if st != 0 {
			t.Fatalf("stamp %d = %d, want an all-invalid memo", k, st)
		}
	}
}
