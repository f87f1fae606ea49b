package coalition

import (
	"math"
	"math/rand"
	"testing"
)

// feeSplitGame is a minimal cost-sharing game: each strategy (facility) has
// a fixed fee split equally among the agents using it, plus a per-agent
// distance cost. This is the fee-amortization core of CCSGA.
type feeSplitGame struct {
	fee   []float64   // per facility
	dist  [][]float64 // dist[agent][facility]
	count []int       // members per facility
	cur   []int       // agent -> facility
}

func newFeeSplitGame(fee []float64, dist [][]float64, init []int) *feeSplitGame {
	g := &feeSplitGame{
		fee:   fee,
		dist:  dist,
		count: make([]int, len(fee)),
		cur:   append([]int(nil), init...),
	}
	for _, s := range init {
		g.count[s]++
	}
	return g
}

func (g *feeSplitGame) NumAgents() int     { return len(g.dist) }
func (g *feeSplitGame) NumStrategies() int { return len(g.fee) }

func (g *feeSplitGame) Share(agent, s int) float64 {
	members := g.count[s]
	if g.cur[agent] != s {
		members++ // hypothetical join
	}
	return g.dist[agent][s] + g.fee[s]/float64(members)
}

func (g *feeSplitGame) Move(agent, from, to int) {
	g.count[from]--
	g.count[to]++
	g.cur[agent] = to
}

func (g *feeSplitGame) TotalCost() float64 {
	var total float64
	for s, c := range g.count {
		if c > 0 {
			total += g.fee[s]
		}
	}
	for a, s := range g.cur {
		total += g.dist[a][s]
	}
	return total
}

var _ SocialGame = (*feeSplitGame)(nil)

func twoFacilityGame() (*feeSplitGame, []int) {
	// Two facilities, fee 10 each; three agents all closer to facility 0.
	fee := []float64{10, 10}
	dist := [][]float64{
		{1, 5},
		{1, 5},
		{1, 5},
	}
	init := []int{0, 1, 1} // start split
	return newFeeSplitGame(fee, dist, init), init
}

func TestRunSelfishConvergesToNash(t *testing.T) {
	g, init := twoFacilityGame()
	res, err := Run(g, init, Options{Rule: Selfish})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Agent 0 moves first (alone it pays 1+10=11; joining pays 5+10/3),
	// so everyone gathers at facility 1 — a Nash equilibrium: each pays
	// 5+10/3 ≈ 8.33 and deviating to facility 0 alone costs 11.
	for a, s := range res.Assignment {
		if s != 1 {
			t.Errorf("agent %d at facility %d, want 1", a, s)
		}
	}
	if !IsNash(g, res.Assignment, 1e-9) {
		t.Error("result is not Nash-stable")
	}
	if len(NashViolations(g, res.Assignment, 1e-9)) != 0 {
		t.Error("NashViolations nonempty at equilibrium")
	}
}

func TestRunSocialFindsCheaperLocalOptimum(t *testing.T) {
	// From {0,1,1}, the social rule merges everyone at facility 1 (total
	// 25, saving facility 0's fee); no single social move improves on it.
	g, init := twoFacilityGame()
	res, err := Run(g, init, Options{Rule: Social})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for a, s := range res.Assignment {
		if s != 1 {
			t.Errorf("agent %d at facility %d, want 1", a, s)
		}
	}
	if got := g.TotalCost(); math.Abs(got-25) > 1e-9 {
		t.Errorf("TotalCost = %v, want 25", got)
	}
}

func TestRunDoesNotMutateInit(t *testing.T) {
	g, init := twoFacilityGame()
	want := append([]int(nil), init...)
	if _, err := Run(g, init, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if init[i] != want[i] {
			t.Fatal("Run mutated init")
		}
	}
}

func TestRunValidation(t *testing.T) {
	g, init := twoFacilityGame()
	if _, err := Run(g, init[:1], Options{}); err == nil {
		t.Error("short init should error")
	}
	bad := append([]int(nil), init...)
	bad[0] = 99
	if _, err := Run(g, bad, Options{}); err == nil {
		t.Error("out-of-range strategy should error")
	}
	type plainGame struct{ *feeSplitGame }
	// Social rule on a game that does not implement SocialGame must error.
	pg := struct{ Game }{g}
	if _, err := Run(pg, init, Options{Rule: Social}); err == nil {
		t.Error("Social rule without SocialGame should error")
	}
	_ = plainGame{}
}

func TestNashViolationsDetectsProfitableMove(t *testing.T) {
	g, _ := twoFacilityGame()
	// Current state: agent0@0, agents1,2@1. Agent 1 gains by moving to 0:
	// now 5 + 10/2 = 10, after 1 + 10/2 = 6.
	assign := []int{0, 1, 1}
	vs := NashViolations(g, assign, 1e-9)
	if len(vs) == 0 {
		t.Fatal("expected violations")
	}
	found := false
	for _, v := range vs {
		if v.Agent == 1 && v.To == 0 && v.Gain > 3.99 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing expected violation, got %+v", vs)
	}
	if IsNash(g, assign, 1e-9) {
		t.Error("IsNash true despite violations")
	}
}

func TestRunRandomOrderStillConverges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n, m := 12, 4
		fee := make([]float64, m)
		for j := range fee {
			fee[j] = 5 + r.Float64()*20
		}
		dist := make([][]float64, n)
		init := make([]int, n)
		for i := range dist {
			dist[i] = make([]float64, m)
			for j := range dist[i] {
				dist[i][j] = r.Float64() * 10
			}
			init[i] = r.Intn(m)
		}
		g := newFeeSplitGame(fee, dist, init)
		res, err := Run(g, init, Options{Rand: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence in %d passes", trial, res.Passes)
		}
		if !IsNash(g, res.Assignment, 1e-9) {
			t.Fatalf("trial %d: non-Nash result", trial)
		}
	}
}

func TestSocialRuleNeverIncreasesTotalCost(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n, m := 10, 3
	fee := []float64{15, 10, 25}
	dist := make([][]float64, n)
	init := make([]int, n)
	for i := range dist {
		dist[i] = make([]float64, m)
		for j := range dist[i] {
			dist[i][j] = r.Float64() * 8
		}
		init[i] = r.Intn(m)
	}
	g := newFeeSplitGame(fee, dist, init)
	before := g.TotalCost()
	res, err := Run(g, init, Options{Rule: Social})
	if err != nil {
		t.Fatal(err)
	}
	after := g.TotalCost()
	if after > before+1e-9 {
		t.Errorf("total cost rose from %v to %v", before, after)
	}
	if !res.Converged {
		t.Error("social dynamics must converge (finite potential)")
	}
}

func TestCoalitions(t *testing.T) {
	got := Coalitions([]int{0, 2, 0, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if len(got[0]) != 2 || got[0][0] != 0 || got[0][1] != 2 {
		t.Errorf("coalition 0 = %v", got[0])
	}
	if len(got[1]) != 1 || got[1][0] != 3 {
		t.Errorf("coalition 1 = %v", got[1])
	}
	if len(got[2]) != 1 || got[2][0] != 1 {
		t.Errorf("coalition 2 = %v", got[2])
	}
	// Out-of-range strategies are dropped, not panicking.
	got = Coalitions([]int{-1, 5, 0}, 2)
	if len(got[0]) != 1 {
		t.Errorf("out-of-range handling: %v", got)
	}
}

func TestRuleString(t *testing.T) {
	if Selfish.String() != "selfish" || Social.String() != "social" {
		t.Error("Rule.String wrong")
	}
	if Rule(42).String() == "" {
		t.Error("unknown rule String empty")
	}
}

func TestMaxPassesCap(t *testing.T) {
	g, init := twoFacilityGame()
	res, err := Run(g, init, Options{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("Passes = %d, want 1", res.Passes)
	}
}

func TestShareHypotheticalConsistency(t *testing.T) {
	// Share(agent, other) must equal the share actually obtained after the
	// move — the contract the engine relies on.
	g, _ := twoFacilityGame()
	want := g.Share(1, 0)
	g.Move(1, 1, 0)
	got := g.Share(1, 0)
	if math.Abs(want-got) > 1e-12 {
		t.Errorf("hypothetical share %v != realized share %v", want, got)
	}
}

// countingGame counts the Share evaluations the engine asks for.
type countingGame struct {
	Game
	shares *int
}

func (c countingGame) Share(agent, s int) float64 {
	*c.shares++
	return c.Game.Share(agent, s)
}

// distBoundGame adds feeSplitGame's exact lower bound: an agent pays at
// least its distance, since the fee share is nonnegative.
type distBoundGame struct {
	countingGame
	dist [][]float64
}

func (b distBoundGame) ShareBounds(agent int) []float64 { return b.dist[agent] }

var _ BoundedGame = distBoundGame{}

// TestRunShareBoundSkipsWithoutChangingResult checks that an exact share
// bound only saves Share evaluations: on random fee-split games, with and
// without a shuffled visiting order, the bounded run must reach the same
// assignment with the same switch and pass counts as the unbounded one.
func TestRunShareBoundSkipsWithoutChangingResult(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var plainShares, boundedShares int
	for trial := 0; trial < 40; trial++ {
		n, m := 2+r.Intn(30), 1+r.Intn(8)
		fee := make([]float64, m)
		for s := range fee {
			fee[s] = r.Float64() * 50
		}
		dist := make([][]float64, n)
		init := make([]int, n)
		for a := range dist {
			dist[a] = make([]float64, m)
			for s := range dist[a] {
				dist[a][s] = r.Float64() * 40
			}
			init[a] = r.Intn(m)
		}
		run := func(bounded bool) Result {
			var g Game = countingGame{newFeeSplitGame(fee, dist, init), &plainShares}
			if bounded {
				g = distBoundGame{countingGame{newFeeSplitGame(fee, dist, init), &boundedShares}, dist}
			}
			opts := Options{}
			if trial%2 == 1 {
				opts.Rand = rand.New(rand.NewSource(int64(trial)))
			}
			res, err := Run(g, init, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, bounded := run(false), run(true)
		if plain.Switches != bounded.Switches || plain.Passes != bounded.Passes ||
			plain.Converged != bounded.Converged {
			t.Fatalf("trial %d: bounded run %+v, plain run %+v", trial, bounded, plain)
		}
		for a := range plain.Assignment {
			if plain.Assignment[a] != bounded.Assignment[a] {
				t.Fatalf("trial %d: agent %d ends at %d with the bound, %d without",
					trial, a, bounded.Assignment[a], plain.Assignment[a])
			}
		}
	}
	if boundedShares >= plainShares {
		t.Errorf("bounded runs evaluated %d shares, plain runs %d; want fewer", boundedShares, plainShares)
	}
}
