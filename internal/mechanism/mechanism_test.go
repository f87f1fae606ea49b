package mechanism

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

func testModel(t *testing.T, seed int64, n, m int) *core.CostModel {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	in := &core.Instance{Field: geom.Square(500)}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       "d",
			Pos:      geom.Pt(r.Float64()*500, r.Float64()*500),
			Demand:   100 + r.Float64()*200,
			MoveRate: 0.005 + r.Float64()*0.01,
		})
	}
	for j := 0; j < m; j++ {
		in.Chargers = append(in.Chargers, core.Charger{
			ID:         "c",
			Pos:        geom.Pt(r.Float64()*500, r.Float64()*500),
			Fee:        3 + r.Float64()*10,
			Tariff:     pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.1 + r.Float64()*0.2, Exponent: 0.85},
			Efficiency: 0.7 + r.Float64()*0.3,
		})
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestFirstPricePicksCheapestTotal(t *testing.T) {
	cm := testModel(t, 1, 4, 3)
	members := []int{0, 1, 2}
	bids := TruthfulBids(cm, members)
	out, err := FirstPrice(cm, members, bids)
	if err != nil {
		t.Fatal(err)
	}
	// The winner must minimize bid + travel over all bids.
	for _, b := range bids {
		if s := b.Price + moveCost(cm, members, b.Charger); s < out.BuyerCost-1e-9 {
			t.Errorf("charger %d total %v beats winner's %v", b.Charger, s, out.BuyerCost)
		}
	}
	if out.Payment != bids[out.Winner].Price {
		t.Error("first-price payment must equal the winning bid")
	}
}

func TestSecondPriceIndividualRationality(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cm := testModel(t, seed, 5, 4)
		members := []int{0, 2, 4}
		out, err := SecondPrice(cm, members, TruthfulBids(cm, members))
		if err != nil {
			t.Fatal(err)
		}
		if trueCost := TrueCost(cm, members, out.Winner); out.Payment < trueCost-1e-9 {
			t.Errorf("seed %d: winner paid %v below its cost %v", seed, out.Payment, trueCost)
		}
	}
}

// Truthfulness: under the second-price rule, no unilateral misreport
// improves a charger's utility (payment − true cost, 0 when losing).
func TestSecondPriceTruthful(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 15; seed++ {
		cm := testModel(t, seed, 5, 4)
		members := []int{0, 1, 3}
		truthful := TruthfulBids(cm, members)

		utility := func(bids []Bid, j int) float64 {
			out, err := SecondPrice(cm, members, bids)
			if err != nil {
				t.Fatal(err)
			}
			if out.Winner != j {
				return 0
			}
			return out.Payment - TrueCost(cm, members, j)
		}
		for j := 0; j < cm.NumChargers(); j++ {
			base := utility(truthful, j)
			if base < -1e-9 {
				t.Fatalf("seed %d: truthful bidding gave charger %d negative utility %v", seed, j, base)
			}
			for trial := 0; trial < 10; trial++ {
				dev := append([]Bid(nil), truthful...)
				// Misreport anywhere from half to double the true cost.
				dev[j].Price = truthful[j].Price * (0.5 + 1.5*r.Float64())
				if got := utility(dev, j); got > base+1e-9 {
					t.Fatalf("seed %d: charger %d gained %v > %v by misreporting %v (true %v)",
						seed, j, got, base, dev[j].Price, truthful[j].Price)
				}
			}
		}
	}
}

// First price is NOT truthful: a winner can shade its bid upward and gain.
func TestFirstPriceNotTruthful(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 10 && !found; seed++ {
		cm := testModel(t, seed, 4, 3)
		members := []int{0, 1}
		truthful := TruthfulBids(cm, members)
		out, err := FirstPrice(cm, members, truthful)
		if err != nil {
			t.Fatal(err)
		}
		w := out.Winner
		// Truthful winner utility is exactly zero; shade up slightly.
		dev := append([]Bid(nil), truthful...)
		dev[w].Price += 0.01
		out2, err := FirstPrice(cm, members, dev)
		if err != nil {
			t.Fatal(err)
		}
		if out2.Winner == w && out2.Payment-TrueCost(cm, members, w) > 1e-9 {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one profitable first-price deviation")
	}
}

func TestSecondPriceSingleBidder(t *testing.T) {
	cm := testModel(t, 7, 3, 1)
	members := []int{0, 1, 2}
	bids := TruthfulBids(cm, members)
	out, err := SecondPrice(cm, members, bids)
	if err != nil {
		t.Fatal(err)
	}
	if out.Payment != bids[0].Price || out.Winner != 0 {
		t.Errorf("single-bidder outcome %+v", out)
	}
}

func TestAuctionValidation(t *testing.T) {
	cm := testModel(t, 3, 3, 2)
	if _, err := FirstPrice(cm, nil, TruthfulBids(cm, []int{0})); err == nil {
		t.Error("empty coalition should error")
	}
	if _, err := SecondPrice(cm, []int{0}, nil); err == nil {
		t.Error("no bids should error")
	}
	if _, err := SecondPrice(cm, []int{0}, []Bid{{Charger: 9, Price: 1}}); err == nil {
		t.Error("bad charger index should error")
	}
	if _, err := SecondPrice(cm, []int{0}, []Bid{{0, 1}, {0, 2}}); err == nil {
		t.Error("duplicate bids should error")
	}
	if _, err := SecondPrice(cm, []int{0}, []Bid{{0, math.NaN()}}); err == nil {
		t.Error("NaN bid should error")
	}
	if _, err := SecondPrice(cm, []int{0}, []Bid{{0, -1}}); err == nil {
		t.Error("negative bid should error")
	}
}

func TestSecondPriceBuyerCostAtMostPostedPrice(t *testing.T) {
	// With truthful bids, the buyer's total never exceeds the posted-
	// price comprehensive cost at its own best charger (the auction can
	// only find the same or a better deal... up to the Vickrey premium).
	// At minimum, the allocation itself is efficient: the winner is the
	// charger minimizing true total cost.
	cm := testModel(t, 11, 4, 4)
	members := []int{0, 1, 2, 3}
	out, err := SecondPrice(cm, members, TruthfulBids(cm, members))
	if err != nil {
		t.Fatal(err)
	}
	bestTotal := math.Inf(1)
	bestJ := -1
	for j := 0; j < cm.NumChargers(); j++ {
		if s := cm.SessionCost(members, j); s < bestTotal {
			bestTotal, bestJ = s, j
		}
	}
	if out.Winner != bestJ {
		t.Errorf("winner %d, efficient charger %d", out.Winner, bestJ)
	}
}
