package core

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceOptimal enumerates every partition of the devices (with the
// best charger per block) — exponential ground truth for tiny n.
func bruteForceOptimal(cm *CostModel) float64 {
	n := cm.NumDevices()
	blocks := make([][]int, 0, n)
	best := math.Inf(1)
	var recurse func(i int)
	recurse = func(i int) {
		if i == n {
			var total float64
			for _, b := range blocks {
				bestJ := math.Inf(1)
				for j := 0; j < cm.NumChargers(); j++ {
					if c := cm.SessionCost(b, j); c < bestJ {
						bestJ = c
					}
				}
				total += bestJ
			}
			if total < best {
				best = total
			}
			return
		}
		for k := range blocks {
			blocks[k] = append(blocks[k], i)
			recurse(i + 1)
			blocks[k] = blocks[k][:len(blocks[k])-1]
		}
		blocks = append(blocks, []int{i})
		recurse(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	recurse(0)
	return best
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(5) // up to 6 devices
		in := randInstance(r, n, 1+r.Intn(3))
		cm := mustCostModel(t, in)
		sched, err := Optimal(cm)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(n, cm.NumChargers()); err != nil {
			t.Fatalf("trial %d: invalid optimal schedule: %v", trial, err)
		}
		got := cm.TotalCost(sched)
		want := bruteForceOptimal(cm)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d (n=%d): Optimal = %v, brute force = %v", trial, n, got, want)
		}
	}
}

func TestOptimalRefusesLargeInstances(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	in := randInstance(r, MaxOptimalDevices+1, 2)
	cm := mustCostModel(t, in)
	if _, err := Optimal(cm); err == nil {
		t.Error("Optimal should refuse n > MaxOptimalDevices")
	}
}

func TestNoncooperativeIsSingletons(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	in := randInstance(r, 10, 4)
	cm := mustCostModel(t, in)
	s := Noncooperative(cm)
	if err := s.Validate(10, 4); err != nil {
		t.Fatal(err)
	}
	if len(s.Coalitions) != 10 {
		t.Fatalf("coalitions = %d, want 10 singletons", len(s.Coalitions))
	}
	var want float64
	for i := 0; i < 10; i++ {
		sigma, _ := cm.StandaloneCost(i)
		want += sigma
	}
	if got := cm.TotalCost(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("noncoop total %v, Σ standalone %v", got, want)
	}
}

func TestAlgorithmOrdering(t *testing.T) {
	// OPT <= CCSA <= NONCOOP and OPT <= CCSGA <= NONCOOP (PDS),
	// LB <= OPT, on random instances small enough for the exact solver.
	r := rand.New(rand.NewSource(74))
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(6)
		in := randInstance(r, n, 2+r.Intn(3))
		cm := mustCostModel(t, in)

		opt, err := Optimal(cm)
		if err != nil {
			t.Fatal(err)
		}
		optCost := cm.TotalCost(opt)

		ccsaRes, err := CCSA(cm, CCSAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ccsaRes.Schedule.Validate(n, cm.NumChargers()); err != nil {
			t.Fatalf("trial %d: CCSA schedule invalid: %v", trial, err)
		}
		ccsaCost := cm.TotalCost(ccsaRes.Schedule)

		gaRes, err := CCSGA(cm, CCSGAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := gaRes.Schedule.Validate(n, cm.NumChargers()); err != nil {
			t.Fatalf("trial %d: CCSGA schedule invalid: %v", trial, err)
		}
		gaCost := cm.TotalCost(gaRes.Schedule)

		nonCost := cm.TotalCost(Noncooperative(cm))
		lb := LowerBound(cm)

		const eps = 1e-6
		if optCost > ccsaCost+eps*(1+ccsaCost) {
			t.Errorf("trial %d: OPT %v > CCSA %v", trial, optCost, ccsaCost)
		}
		if ccsaCost > nonCost+eps*(1+nonCost) {
			t.Errorf("trial %d: CCSA %v > NONCOOP %v", trial, ccsaCost, nonCost)
		}
		if optCost > gaCost+eps*(1+gaCost) {
			t.Errorf("trial %d: OPT %v > CCSGA %v", trial, optCost, gaCost)
		}
		if gaCost > nonCost+eps*(1+nonCost) {
			t.Errorf("trial %d: CCSGA %v > NONCOOP %v (PDS equilibrium must not cost more)",
				trial, gaCost, nonCost)
		}
		if lb > optCost+eps*(1+optCost) {
			t.Errorf("trial %d: LB %v > OPT %v", trial, lb, optCost)
		}
	}
}

func TestCCSAOracleModesAgreeOnLinearTariffs(t *testing.T) {
	// With linear tariffs the prefix oracle is exact, so both oracles
	// must produce equally cheap schedules.
	r := rand.New(rand.NewSource(75))
	for trial := 0; trial < 8; trial++ {
		in := randInstance(r, 9, 3)
		for j := range in.Chargers {
			in.Chargers[j].Tariff = pricingLinear(0.03)
		}
		cm := mustCostModel(t, in)
		sfm, err := CCSA(cm, CCSAOptions{Oracle: SFMOracle})
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := CCSA(cm, CCSAOptions{Oracle: PrefixOracle})
		if err != nil {
			t.Fatal(err)
		}
		a, b := cm.TotalCost(sfm.Schedule), cm.TotalCost(prefix.Schedule)
		if math.Abs(a-b) > 1e-6*(1+a) {
			t.Errorf("trial %d: SFM %v vs prefix %v", trial, a, b)
		}
	}
}

func TestCCSASFMRefusesOver64(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	in := randInstance(r, 65, 2)
	cm := mustCostModel(t, in)
	if _, err := CCSA(cm, CCSAOptions{Oracle: SFMOracle}); err == nil {
		t.Error("SFMOracle with 65 devices should error")
	}
	// Auto mode must fall back to the prefix oracle and succeed.
	res, err := CCSA(cm, CCSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(65, 2); err != nil {
		t.Error(err)
	}
}

func TestCCSADiagnostics(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	in := randInstance(r, 8, 3)
	cm := mustCostModel(t, in)
	res, err := CCSA(cm, CCSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.OracleCalls < res.Rounds {
		t.Errorf("diagnostics: rounds=%d oracleCalls=%d", res.Rounds, res.OracleCalls)
	}
}

func TestCCSGAConvergesToNash(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(r, 20, 5)
		cm := mustCostModel(t, in)
		res, err := CCSGA(cm, CCSGAOptions{Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence (passes=%d)", trial, res.Passes)
		}
		if !res.NashStable {
			t.Fatalf("trial %d: converged but not Nash-stable", trial)
		}
		if err := res.Schedule.Validate(20, 5); err != nil {
			t.Fatal(err)
		}
		if res.Switches == 0 {
			// Possible but suspicious on 20 devices; verify it really is
			// an equilibrium of the initial noncoop assignment.
			t.Logf("trial %d: zero switches", trial)
		}
	}
}

func TestCCSGAESSSchemeRuns(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	in := randInstance(r, 15, 4)
	cm := mustCostModel(t, in)
	res, err := CCSGA(cm, CCSGAOptions{Scheme: ESS{}, MaxPasses: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(15, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCCSGARejectsUnknownScheme(t *testing.T) {
	cm := mustCostModel(t, testInstance())
	if _, err := CCSGA(cm, CCSGAOptions{Scheme: fakeScheme{}}); err == nil {
		t.Error("unknown scheme should error")
	}
}

type fakeScheme struct{}

func (fakeScheme) Name() string { return "fake" }
func (fakeScheme) Shares(*CostModel, Coalition) ([]float64, error) {
	return nil, nil
}

// The headline economics: on fee-heavy instances cooperation must yield a
// strictly cheaper schedule than noncooperation.
func TestCooperationBeatsNoncooperationOnFeeHeavyInstances(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	var better int
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		in := randInstance(r, 12, 3)
		for j := range in.Chargers {
			in.Chargers[j].Fee = 30 // heavy per-session fee
		}
		cm := mustCostModel(t, in)
		ccsaRes, err := CCSA(cm, CCSAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cm.TotalCost(ccsaRes.Schedule) < cm.TotalCost(Noncooperative(cm))-1e-9 {
			better++
		}
	}
	if better < trials {
		t.Errorf("CCSA beat noncoop on only %d/%d fee-heavy instances", better, trials)
	}
}

func pricingLinear(rate float64) linearTariff { return linearTariff{rate} }

type linearTariff struct{ rate float64 }

func (l linearTariff) Price(e float64) float64 {
	if e <= 0 {
		return 0
	}
	return l.rate * e
}
func (l linearTariff) Name() string { return "test-linear" }
