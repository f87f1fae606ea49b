package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

// chordTariff draws a power law for the chord tests: its exponent at one
// of the analytic region's ends, 2⁻¹⁰ and 1, or between them, a
// coefficient spread over eight decades.
func chordTariff(r *rand.Rand) pricing.Tariff {
	exp := []float64{1.0 / 1024, 1, 0.3 + 0.7*r.Float64()}[r.Intn(3)]
	return pricing.Tariff{Kind: pricing.PowerLaw, Coeff: math.Pow(10, -6+8*r.Float64()), Exponent: exp}
}

// chordInstance is warmInstance with chordTariff tariffs, some free
// sessions, session capacities that split chargers into several slots,
// and budgeted mobile chargers, which must get no chord. Charger 0 stays
// stationary and uncapacitated, so every device fits somewhere.
func chordInstance(r *rand.Rand, n, m int) *Instance {
	in := warmInstance(r, n, m, false)
	for j := range in.Chargers {
		c := &in.Chargers[j]
		c.Tariff = chordTariff(r)
		if r.Intn(3) == 0 {
			c.Fee = 0
		}
		if j == 0 {
			continue
		}
		switch r.Intn(4) {
		case 0:
			c.Capacity = 700 + r.Float64()*600
		case 1:
			c.Mobile = true
			c.MoveRate = 0.05 + r.Float64()*0.05
			c.Speed = 2 + r.Float64()*4
			c.TravelBudget = 2900 + r.Float64()*1100
		}
	}
	return in
}

// requireChordSound checks the chord bound against the plain evaluation
// for every device and every slot outside its own: a mobile charger's
// slot must get no bound, and every bound must be at most the computed
// share. It returns how many bounds applied, and how many of those were
// to empty slots.
func requireChordSound(t *testing.T, g *chargerGame, tag string) (applied, empty int) {
	t.Helper()
	for i, cur := range g.cur {
		if cur < 0 {
			continue // added by a delta, seated at the next repair
		}
		for s := range g.chargerOf {
			if s == cur {
				continue
			}
			lb, ok := g.chordBound(i, s)
			if !ok {
				continue
			}
			if g.in.Chargers[g.chargerOf[s]].Mobile {
				t.Fatalf("%s: mobile slot %d got a chord bound", tag, s)
			}
			if want := referenceShare(g, i, s); !(lb <= want) {
				t.Fatalf("%s: chord bound (%d, %d) = %v above the computed share %v", tag, i, s, lb, want)
			}
			applied++
			if g.count[s] == 0 {
				empty++
			}
		}
	}
	return applied, empty
}

// TestChordBoundNeverExceedsShare is the soundness referee of the chord
// bound: over power laws at both exponent ends, free sessions,
// capacitated multi-slot chargers and mobile chargers, through random
// moves and to convergence, every bound must be at most the share
// joinShare computes, compared as floats with no tolerance.
func TestChordBoundNeverExceedsShare(t *testing.T) {
	r := rand.New(rand.NewSource(2424))
	var applied, empty int
	for trial := 0; trial < 60; trial++ {
		n, m := 2+r.Intn(30), 1+r.Intn(7)
		cm := mustCostModel(t, chordInstance(r, n, m))
		g, err := seededGame(cm, CCSGAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			a, e := requireChordSound(t, g, fmt.Sprintf("trial %d step %d", trial, step))
			applied, empty = applied+a, empty+e
			i, to := r.Intn(n), r.Intn(len(g.chargerOf))
			if from := g.cur[i]; from != to {
				g.move(i, from, to)
			}
		}
		g.run(0, 0)
		a, e := requireChordSound(t, g, fmt.Sprintf("trial %d converged", trial))
		applied, empty = applied+a, empty+e
		g.release()
	}
	if applied == 0 || empty == 0 {
		t.Fatalf("chord bounds applied %d times, %d to empty slots; want both > 0", applied, empty)
	}
	t.Logf("%d chord bounds checked, %d to empty slots", applied, empty)
}

// chordlessModel builds in's cost model with the chordless hook set, so
// neither the model nor any game built on it has a chord or price floor.
func chordlessModel(t *testing.T, in *Instance) *CostModel {
	t.Helper()
	cm := mustCostModel(t, in)
	cm.chordless = true
	clear(cm.chord)
	return cm
}

// floorlessSolve is ccsgaSolve with every price floor hidden (set to 0,
// which leaves the moving-cost bound).
func floorlessSolve(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, *chargerGame, error) {
	return hiddenSolve(cm, opts, func(g *chargerGame) { clear(g.floor) })
}

// chordlessSolve is ccsgaSolve with every chord and price floor hidden,
// so the game plays as it would were no tariff in the analytic region.
func chordlessSolve(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, *chargerGame, error) {
	return hiddenSolve(cm, opts, func(g *chargerGame) {
		clear(g.chord)
		clear(g.floor)
	})
}

// hiddenSolve is ccsgaSolve with the shortcuts hide clears from the
// seeded game.
func hiddenSolve(cm *CostModel, opts CCSGAOptions, hide func(*chargerGame)) (*CCSGAResult, *chargerGame, error) {
	g, err := seededGame(cm, opts)
	if err != nil {
		return nil, nil, err
	}
	hide(g)
	switches, passes, converged := g.run(opts.Seed, opts.MaxPasses)
	return &CCSGAResult{Schedule: g.schedule(), Switches: switches, Passes: passes,
		Converged: converged, NashStable: converged || g.isNash()}, g, nil
}

// TestChordSkipMatchesPlainPath is the differential referee for the
// chord and price-floor skips: with both live, the fast path must
// reproduce the plain path's assignment, passes, switches, convergence
// and Nash verdict, and the floorless path's too; over the battery it
// must price fewer tariffs than with the chords hidden, and than with
// the floors hidden.
func TestChordSkipMatchesPlainPath(t *testing.T) {
	r := rand.New(rand.NewSource(2525))
	var chordPrices, hiddenPrices, floorlessPrices int
	for trial := 0; trial < 30; trial++ {
		in := chordInstance(r, 4+r.Intn(40), 2+r.Intn(6))
		var opts CCSGAOptions
		if trial%3 == 1 {
			opts.Seed = int64(trial) + 1
		}
		if trial%7 == 5 {
			opts.MaxPasses = 1
		}
		type solver func(*CostModel, CCSGAOptions) (*CCSGAResult, *chargerGame, error)
		run := func(solve solver) (ccsgaOutcome, int) {
			cm := mustCostModel(t, cloneInstance(in))
			var (
				res *CCSGAResult
				g   *chargerGame
				err error
			)
			prices := CountPrices(func() { res, g, err = solve(cm, opts) })
			if err != nil {
				t.Fatal(err)
			}
			if nash := bruteForceNash(g); res.NashStable != nash {
				t.Fatalf("trial %d: NashStable = %v, brute-force referee says %v", trial, res.NashStable, nash)
			}
			assign := slices.Clone(g.cur)
			g.release()
			return ccsgaOutcome{res: res, assign: assign}, prices
		}
		chord, cp := run(ccsgaSolve)
		_, hp := run(chordlessSolve)
		plain, _ := run(plainSolve)
		if d := sameOutcome(chord, plain); d != "" {
			t.Fatalf("trial %d: fast path with chords diverged from plain path: %s", trial, d)
		}
		floorless, fp := run(floorlessSolve)
		if d := sameOutcome(chord, floorless); d != "" {
			t.Fatalf("trial %d: fast path with price floors diverged from the path without: %s", trial, d)
		}
		chordPrices, hiddenPrices, floorlessPrices = chordPrices+cp, hiddenPrices+hp, floorlessPrices+fp
	}
	if chordPrices >= hiddenPrices || chordPrices >= floorlessPrices {
		t.Errorf("chord runs priced %d tariffs, runs without chords %d and without price floors %d; want fewer than both",
			chordPrices, hiddenPrices, floorlessPrices)
	}
	t.Logf("tariff prices: with chords and floors %d, without chords %d, without floors %d", chordPrices, hiddenPrices, floorlessPrices)
}

// requireFloorSound checks the price floor against the plain
// evaluation: a mobile charger's slots, and those of a charger without a
// chord, carry no floor; for every seated device and every slot outside
// its own, the floor is at most the computed share; and for every device
// and floored charger, it is at most the share the device would pay in
// one session holding the whole instance's demand, the largest purchase
// any slot can reach. All comparisons are of floats, with no tolerance.
// It returns how many nonzero floors it compared.
func requireFloorSound(t *testing.T, g *chargerGame, tag string) (floored int) {
	t.Helper()
	in := g.in
	for s, j := range g.chargerOf {
		if k := g.floor[s]; k != 0 && (in.Chargers[j].Mobile || g.chord[j].x == 0) {
			t.Fatalf("%s: slot %d of charger %d (mobile %v, chord end %v) has floor %v",
				tag, s, j, in.Chargers[j].Mobile, g.chord[j].x, k)
		}
	}
	for i, cur := range g.cur {
		if cur < 0 {
			continue // added by a delta, seated at the next repair
		}
		dem := g.floorDemand(i)
		for s, j := range g.chargerOf {
			if s == cur || g.floor[s] == 0 {
				continue
			}
			lb := g.cm.move[i][j] + dem*g.floor[s]
			if want := referenceShare(g, i, s); !(lb <= want) {
				t.Fatalf("%s: price floor (%d, %d) = %v above the computed share %v", tag, i, s, lb, want)
			}
			floored++
		}
	}
	for j := range in.Chargers {
		ch := &in.Chargers[j]
		k := g.floor[g.firstSlot[j]]
		if k == 0 {
			continue
		}
		var whole float64
		for _, d := range in.Devices {
			whole += d.Demand / ch.Efficiency
		}
		charging := ch.Fee + ch.Tariff.Price(whole)
		for i, d := range in.Devices {
			move := g.cm.move[i][j]
			lb, share := move+g.floorDemand(i)*k, move+charging*(d.Demand/ch.Efficiency)/whole
			if !(lb <= share) {
				t.Fatalf("%s: price floor (%d, charger %d) = %v above the share %v of a session with all %.6g J",
					tag, i, j, lb, share, whole)
			}
		}
	}
	return floored
}

// TestPriceFloorNeverExceedsShare is the soundness referee of the price
// floor, on chordTariff's power laws at both exponent ends, decorated
// tariffs, free sessions, capacitated multi-slot chargers and mobile
// chargers: through random moves and to convergence, requireFloorSound
// must hold.
func TestPriceFloorNeverExceedsShare(t *testing.T) {
	r := rand.New(rand.NewSource(2626))
	floored := 0
	for trial := 0; trial < 60; trial++ {
		n, m := 2+r.Intn(30), 1+r.Intn(7)
		cm := mustCostModel(t, chordInstance(r, n, m))
		g, err := seededGame(cm, CCSGAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			floored += requireFloorSound(t, g, fmt.Sprintf("trial %d step %d", trial, step))
			i, to := r.Intn(n), r.Intn(len(g.chargerOf))
			if from := g.cur[i]; from != to {
				g.move(i, from, to)
			}
		}
		g.run(0, 0)
		floored += requireFloorSound(t, g, fmt.Sprintf("trial %d converged", trial))
		g.release()
	}
	if floored == 0 {
		t.Fatal("no price floor applied; want some")
	}
	t.Logf("%d price floors checked", floored)
}

// TestPriceFloorOnlyStationaryPDS pins where the floor applies: under PDS
// every stationary power-law charger's slots get one and no mobile
// charger's do; under ESS no slot does.
func TestPriceFloorOnlyStationaryPDS(t *testing.T) {
	r := rand.New(rand.NewSource(2727))
	var mobile, stationary int
	for trial := 0; trial < 30; trial++ {
		cm := mustCostModel(t, chordInstance(r, 4+r.Intn(30), 2+r.Intn(6)))
		for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
			g, err := seededGame(cm, CCSGAOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for s, j := range g.chargerOf {
				ch := &g.in.Chargers[j]
				switch k := g.floor[s]; {
				case !g.pds && k != 0:
					t.Fatalf("trial %d: ESS slot %d has floor %v", trial, s, k)
				case !g.pds:
				case ch.Mobile && k != 0:
					t.Fatalf("trial %d: mobile charger %d's slot %d has floor %v", trial, j, s, k)
				case ch.Mobile:
					mobile++
				case !(k > 0):
					t.Fatalf("trial %d: stationary power-law charger %d's slot %d has floor %v", trial, j, s, k)
				default:
					stationary++
				}
			}
			g.release()
		}
	}
	if mobile == 0 || stationary == 0 {
		t.Fatalf("checked %d mobile and %d stationary slots; want both > 0", mobile, stationary)
	}
}

// chordDelta applies one random delta op to twin models: cmA and cmB
// carry the same devices and tariffs, but cmB is chordless, so only cmA
// has chords and price floors. Joins are often
// big enough to push total demand past the chords' right ends, updates
// raise a device's demand, and tariff swaps trade a power law for a
// linear or tiered tariff and back. Demands stay at most maxDemand so every device fits alone.
func chordDelta(r *rand.Rand, cmA, cmB *CostModel, step int, maxDemand float64) (string, error) {
	in := cmA.Instance()
	var total float64
	for _, d := range in.Devices {
		total += d.Demand
	}
	var tag string
	var op func(cm *CostModel) error
	switch n := cmA.NumDevices(); {
	case n > 2 && r.Float64() < 0.2:
		i := r.Intn(n)
		tag = fmt.Sprintf("leave %d", i)
		op = func(cm *CostModel) error { return cm.RemoveDevice(i) }
	case r.Float64() < 0.3:
		i := r.Intn(n)
		d := in.Devices[i]
		d.Demand = math.Min(d.Demand*(1.2+0.8*r.Float64()), maxDemand)
		tag = fmt.Sprintf("raise %d to %.0f", i, d.Demand)
		op = func(cm *CostModel) error { return cm.UpdateDevice(i, d) }
	case r.Float64() < 0.45:
		j := r.Intn(cmA.NumChargers())
		var t pricing.Tariff
		switch {
		case in.Chargers[j].Tariff.Kind != pricing.PowerLaw:
			t = chordTariff(r)
		case r.Intn(2) == 0:
			t = pricing.Tariff{Kind: pricing.Linear, Rate: 0.001 + 0.05*r.Float64()}
		default:
			t = testutil.MustTiered([]pricing.Tier{
				{UpTo: 100 + 400*r.Float64(), Rate: 0.01 + 0.05*r.Float64()},
				{UpTo: math.Inf(1), Rate: 0.001 + 0.009*r.Float64()},
			})
		}
		tag = fmt.Sprintf("tariff %d %s", j, t.Name())
		op = func(cm *CostModel) error { return cm.SetTariff(j, t) }
	default:
		d := Device{
			ID:       fmt.Sprintf("join-%03d", step),
			Pos:      geom.UniformPoints(r, in.Field, 1)[0],
			Demand:   50 + r.Float64()*300,
			MoveRate: 0.005 + r.Float64()*0.02,
		}
		if r.Intn(2) == 0 {
			// Past the headroom: a join purchase can now exceed the right
			// end that clean slots' slopes were built with.
			d.Demand = math.Min(total*(0.3+0.7*r.Float64()), maxDemand)
		}
		tag = fmt.Sprintf("join %.0f", d.Demand)
		op = func(cm *CostModel) error { return cm.AddDevice(d) }
	}
	errA, errB := op(cmA), op(cmB)
	if (errA == nil) != (errB == nil) {
		return tag, fmt.Errorf("twins disagree: %v vs %v", errA, errB)
	}
	return tag, errA
}

// TestChordMemoAcrossLifecycle runs the repair path over power-law
// instances through a delta stream that grows total demand past the
// chords' right ends, raises demands and swaps tariffs between power law
// and linear or tiered. After every delta and every repair, every chord
// bound and price floor must be sound and every memo entry exact or, if a
// bound entry, at most the share. A chordless twin model, with no chords
// or price floors at all, must return deeply equal results at every
// step, with the default frontier cap and with the cap lifted to the
// whole population.
func TestChordMemoAcrossLifecycle(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		for _, frac := range []float64{0, 1} {
			name := fmt.Sprintf("capacitated=%v frontier=%v", capacitated, frac)
			r := rand.New(rand.NewSource(616))
			in := warmInstance(r, 24, 4, capacitated)
			for j := range in.Chargers {
				in.Chargers[j].Tariff = chordTariff(r)
			}
			maxDemand := math.Inf(1)
			if capacitated {
				maxDemand = 400 // fits alone at any capacity warmInstance draws
			}
			cmA, cmB := mustCostModel(t, in), chordlessModel(t, cloneInstance(in))
			wsA, wsB := NewWarmStart(), NewWarmStart()
			rsA, rsB := NewRepairState(), NewRepairState()
			rsA.frontierFrac, rsB.frontierFrac = frac, frac
			sched := CCSGAScheduler{}
			var bounds, resized, repaired, curved int
			solveTwins := func(tag string) bool {
				t.Helper()
				a, err := sched.ScheduleRepair(cmA, wsA, rsA)
				if err != nil {
					t.Fatalf("%s %s: %v", name, tag, err)
				}
				b, err := sched.ScheduleRepair(cmB, wsB, rsB)
				if err != nil {
					t.Fatalf("%s %s: twin: %v", name, tag, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %s: result %+v, twin without chords %+v", name, tag, a, b)
				}
				if slices.ContainsFunc(rsB.game.chord, func(c chordEnd) bool { return c.x != 0 }) ||
					slices.ContainsFunc(rsB.game.floor, func(k float64) bool { return k != 0 }) {
					t.Fatalf("%s %s: chordless twin built a chord or price floor", name, tag)
				}
				for j, c := range rsA.game.chord {
					if tf := cmA.Instance().Chargers[j].Tariff; c.x != 0 && tf.Kind == pricing.PowerLaw && tf.Exponent != 1 {
						curved++
					}
				}
				return a.Repaired
			}
			solveTwins("prime")
			for step := 0; step < 40; step++ {
				sized := rsA.game.chordDemand
				tag, err := chordDelta(r, cmA, cmB, step, maxDemand)
				if err != nil {
					t.Fatalf("%s step %d %s: %v", name, step, tag, err)
				}
				tag = fmt.Sprintf("step %d after %s", step, tag)
				if rsA.primed {
					if rsA.game.chordDemand > sized {
						resized++
					}
					requireChordSound(t, rsA.game, name+" "+tag)
					requireFloorSound(t, rsA.game, name+" "+tag)
					requireMemoExact(t, rsA.game, name+" "+tag)
				}
				if solveTwins(tag) {
					repaired++
				}
				requireChordSound(t, rsA.game, name+" solved "+tag)
				requireFloorSound(t, rsA.game, name+" solved "+tag)
				bounds += requireMemoExact(t, rsA.game, name+" solved "+tag)
			}
			if bounds == 0 || resized == 0 || repaired == 0 || curved == 0 {
				t.Errorf("%s: %d bound entries checked, chords resized %d times, %d repairs, %d curved chords; want all > 0",
					name, bounds, resized, repaired, curved)
			}
			t.Logf("%s: %d bound entries checked, chords resized %d times, %d of 40 deltas repaired, %d curved chords solved against the twin",
				name, bounds, resized, repaired, curved)
		}
	}
}
