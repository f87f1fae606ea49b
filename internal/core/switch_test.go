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
)

// twoChargerInstance is the fee-split game in charger form: two chargers
// with a $10 fee and free energy, and three equal devices that each pay
// $1 of moving cost to charger 0 and $5 to charger 1. Under PDS a device
// pays its moving cost plus the fee over its session's size. The returned
// seed splits the devices {0, 1, 1}.
func twoChargerInstance() (*Instance, []int) {
	in := &Instance{Field: geom.Square(1000)}
	for k := 0; k < 3; k++ {
		in.Devices = append(in.Devices, Device{
			ID: fmt.Sprintf("d%d", k), Pos: geom.Pt(0, 0), Demand: 100, MoveRate: 0.01,
		})
	}
	for k, x := range []float64{100, 500} {
		in.Chargers = append(in.Chargers, Charger{
			ID: fmt.Sprintf("c%d", k), Pos: geom.Pt(x, 0), Fee: 10,
			Tariff: pricing.Linear{}, Efficiency: 1,
		})
	}
	return in, []int{0, 1, 1}
}

// From {0, 1, 1} device 0 moves first: alone at charger 0 it pays 11,
// joining charger 1 it pays 5 + 10/3. Everyone then sits at charger 1, a
// pure Nash equilibrium (each pays ≈ 8.33; leaving alone costs 11).
func TestSwitchDynamicsConvergeToNash(t *testing.T) {
	in, init := twoChargerInstance()
	res, g, err := ccsgaSolve(mustCostModel(t, in), CCSGAOptions{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	defer g.release()
	if !res.Converged || !res.NashStable {
		t.Fatalf("Converged=%v NashStable=%v, want both", res.Converged, res.NashStable)
	}
	if want := []int{1, 1, 1}; !reflect.DeepEqual(g.cur, want) {
		t.Errorf("assignment %v, want %v", g.cur, want)
	}
	if res.Switches != 1 || res.Passes != 2 {
		t.Errorf("Switches=%d Passes=%d, want 1 and 2", res.Switches, res.Passes)
	}
	if !bruteForceNash(g) {
		t.Error("brute-force referee finds a profitable switch")
	}
}

// A shuffled visiting order from an arbitrary seed still converges to a
// pure Nash equilibrium.
func TestSwitchDynamicsRandomOrderConverges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cm := mustCostModel(t, randInstance(r, 12, 4))
		init := make([]int, 12)
		for i := range init {
			init[i] = r.Intn(4)
		}
		res, g, err := ccsgaSolve(cm, CCSGAOptions{Seed: int64(trial) + 1, Init: init})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence in %d passes", trial, res.Passes)
		}
		if !bruteForceNash(g) {
			t.Fatalf("trial %d: converged to a non-Nash assignment", trial)
		}
		g.release()
	}
}

func TestCCSGAMaxPassesCap(t *testing.T) {
	in, init := twoChargerInstance()
	res, err := CCSGA(mustCostModel(t, in), CCSGAOptions{Init: init, MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 || res.Converged {
		t.Errorf("Passes=%d Converged=%v, want 1 and false", res.Passes, res.Converged)
	}
}

func TestCCSGADoesNotMutateInit(t *testing.T) {
	in, init := twoChargerInstance()
	want := slices.Clone(init)
	if _, err := CCSGA(mustCostModel(t, in), CCSGAOptions{Init: init}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(init, want) {
		t.Errorf("CCSGA changed Init to %v, want %v", init, want)
	}
}

// TestShareBoundSkipsWithoutChangingResult isolates the moving-cost
// bound: with the join memo released, the kernel's full passes must reach
// plainRun's assignment with the same switch and pass counts, and price
// fewer tariffs over the battery.
func TestShareBoundSkipsWithoutChangingResult(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var boundedPrices, plainPrices int
	for trial := 0; trial < 40; trial++ {
		n, m := 2+r.Intn(30), 1+r.Intn(8)
		var in *Instance
		switch trial % 3 {
		case 0:
			in = randInstance(r, n, m)
		case 1:
			in = warmInstance(r, n, m, true)
		default:
			in = randMobileInstance(r, n, m+1)
		}
		opts := CCSGAOptions{}
		if trial%2 == 1 {
			opts.Seed = int64(trial)
		}
		type outcome struct {
			assign                   []int
			switches, passes, prices int
			converged                bool
		}
		play := func(run func(*chargerGame) (int, int, bool)) outcome {
			cp, calls := withCountingTariffs(in)
			g, err := seededGame(mustCostModel(t, cp), opts)
			if err != nil {
				t.Fatal(err)
			}
			g.release() // no memo: the bound is the only shortcut left
			*calls = 0
			var o outcome
			o.switches, o.passes, o.converged = run(g)
			o.assign, o.prices = g.cur, *calls
			return o
		}
		bounded := play(func(g *chargerGame) (int, int, bool) { return g.run(opts.Seed, opts.MaxPasses) })
		plain := play(func(g *chargerGame) (int, int, bool) { return plainRun(g, opts.Seed, opts.MaxPasses) })
		if !reflect.DeepEqual(bounded.assign, plain.assign) || bounded.switches != plain.switches ||
			bounded.passes != plain.passes || bounded.converged != plain.converged {
			t.Fatalf("trial %d: bounded run %+v, plain run %+v", trial, bounded, plain)
		}
		boundedPrices += bounded.prices
		plainPrices += plain.prices
	}
	if boundedPrices >= plainPrices {
		t.Errorf("bounded runs priced %d tariffs, plain runs %d; want fewer", boundedPrices, plainPrices)
	}
}

// A hypothetical join share must be the share the device then pays after
// the move, bit for bit: repair adopts it as the device's new bar.
func TestJoinShareMatchesRealizedShare(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
		for trial := 0; trial < 10; trial++ {
			in := randInstance(r, 10, 4)
			if trial%2 == 1 {
				in = randMobileInstance(r, 10, 4)
			}
			g, err := seededGame(mustCostModel(t, in), CCSGAOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 20; step++ {
				i, s := r.Intn(10), r.Intn(len(g.chargerOf))
				from := g.cur[i]
				want := g.share(i, s)
				if s == from || math.IsInf(want, 1) {
					continue
				}
				g.move(i, from, s)
				if got := g.share(i, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s trial %d: join share %v, realized share %v", scheme.Name(), trial, want, got)
				}
			}
			g.release()
		}
	}
}

func TestAssignmentSchedule(t *testing.T) {
	got := assignmentSchedule([]int{0, 2, 0, 1, 2}, 4)
	want := &Schedule{Coalitions: []Coalition{
		{Charger: 0, Members: []int{0, 2}},
		{Charger: 1, Members: []int{3}},
		{Charger: 2, Members: []int{1, 4}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("assignmentSchedule = %+v, want %+v", got, want)
	}
}

// edgeRuleInstance has one device on an expensive charger 0 and two
// chargers, 1 and 2, at one position. Charger 2 is a duplicate of charger
// 1 when gap is zero, and otherwise cheaper by gap in fee. expensive
// prices chargers 1 and 2 out of reach, so the device stays on charger 0.
func edgeRuleInstance(gap float64, expensive bool) *Instance {
	cheap := pricing.Tariff(pricing.Linear{})
	if expensive {
		cheap = pricing.Linear{Rate: 1}
	}
	return &Instance{
		Field:   geom.Square(1000),
		Devices: []Device{{ID: "d", Pos: geom.Pt(0, 0), Demand: 100, MoveRate: 0.01}},
		Chargers: []Charger{
			{ID: "c0", Pos: geom.Pt(0, 0), Fee: 10, Tariff: pricing.Linear{Rate: 0.1}, Efficiency: 1},
			{ID: "c1", Pos: geom.Pt(100, 0), Fee: 1, Tariff: cheap, Efficiency: 1},
			{ID: "c2", Pos: geom.Pt(100, 0), Fee: 1 - gap, Tariff: cheap, Efficiency: 1},
		},
	}
}

// TestSwitchRuleEdges pins the one switch rule where first-improvement
// and argmin part ways. The device on charger 0 (share 20) can move to
// charger 1 (share 2) or charger 2. With exact duplicates the shares tie
// and the lower slot must win; with charger 2 cheaper by less than
// switchEps both moves clear the bar and the true argmin, charger 2, must
// win — a first-improvement chain would keep charger 1, because charger
// 2 does not undercut it by switchEps. Each case must land on the same
// slot on the full path and on repair, over the dirty list (a clean
// device) and over every slot (a frontier member), in forward and
// reversed enumeration.
func TestSwitchRuleEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  float64
		want int
	}{
		{"exact tie", 0, 1},
		{"sub-epsilon gap", 4e-10, 2},
	} {
		res, err := CCSGA(mustCostModel(t, edgeRuleInstance(tc.gap, false)), CCSGAOptions{Init: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Schedule.Coalitions[0].Charger; got != tc.want {
			t.Errorf("%s: full path seats the device at charger %d, want %d", tc.name, got, tc.want)
		}
		for _, reverse := range []bool{false, true} {
			for _, frontier := range []bool{false, true} {
				cm := mustCostModel(t, edgeRuleInstance(tc.gap, true))
				rs := NewRepairState()
				rs.enumReverse = reverse
				sched := CCSGAScheduler{}
				if _, err := sched.ScheduleRepair(cm, nil, rs); err != nil {
					t.Fatal(err)
				}
				retariff := []int{1, 2}
				if frontier {
					retariff = append(retariff, 0) // dirties the device's own slot
				}
				for _, j := range retariff {
					tariff := cm.Instance().Chargers[j].Tariff
					if j != 0 {
						tariff = pricing.Linear{}
					}
					if err := cm.SetTariff(j, tariff); err != nil {
						t.Fatal(err)
					}
				}
				res, err := sched.ScheduleRepair(cm, nil, rs)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%s (reverse=%v frontier=%v)", tc.name, reverse, frontier)
				if !res.Repaired {
					t.Fatalf("%s: repair fell back: %s", tag, res.FallbackReason)
				}
				if got := res.Schedule.Coalitions[0].Charger; got != tc.want {
					t.Errorf("%s: repair seats the device at charger %d, want %d", tag, got, tc.want)
				}
			}
		}
	}
}
