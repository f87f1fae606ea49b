package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file preserves the dedicated cold-start packer CCSGA used before
// every start went through the one seeding rule (seedSlots / pickSlot),
// verbatim, as the reference the cold seed is checked against.

// initialAssignment returns the starting device→slot assignment: the
// noncooperative one, except that under session capacities or travel
// budgets devices are packed greedily (largest demand first, cheapest
// slot with room — capacity room and, for budgeted mobile chargers,
// tour-budget room).
func (g *chargerGame) initialAssignment() ([]int, error) {
	cm := g.cm
	in := cm.Instance()
	init := make([]int, cm.NumDevices())
	if !cm.HasCapacity() && !cm.HasTravelBudget() {
		for i := range init {
			_, j := cm.StandaloneCost(i)
			init[i] = g.firstSlot[j]
		}
		return init, nil
	}
	order := make([]int, cm.NumDevices())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Devices[order[a]].Demand > in.Devices[order[b]].Demand
	})
	remaining := make([]float64, len(g.chargerOf))
	for s, j := range g.chargerOf {
		remaining[s] = in.Chargers[j].Capacity // 0 = unlimited
	}
	fitter := newBudgetFitter(cm, g.chargerOf)
	for _, i := range order {
		bestS, bestCost := -1, 0.0
		for s, j := range g.chargerOf {
			ch := in.Chargers[j]
			need := in.Devices[i].Demand / ch.Efficiency
			if ch.Capacity > 0 && need > remaining[s]*(1+1e-12) {
				continue
			}
			if !fitter.fits(i, s) {
				continue
			}
			if c := cm.SessionCost([]int{i}, j); bestS < 0 || c < bestCost {
				bestS, bestCost = s, c
			}
		}
		if bestS < 0 {
			return nil, fmt.Errorf("device %s fits no session slot: capacities or travel budgets too tight", in.Devices[i].ID)
		}
		init[i] = bestS
		fitter.take(i, bestS)
		if cap := in.Chargers[g.chargerOf[bestS]].Capacity; cap > 0 {
			remaining[bestS] -= in.Devices[i].Demand / in.Chargers[g.chargerOf[bestS]].Efficiency
		}
	}
	return init, nil
}

// TestColdSeedMatchesReferencePacker is the differential test for the
// seeding merge: over plain, capacitated, budgeted-mobile and
// capacitated-mobile instances — with tightened capacities mixed in so
// some packings fail — WarmStart.Seed over an empty carrier, and the cold
// start over the game's own slot layout, return exactly the reference
// packer's assignment, or fail on the same instance with the same
// message.
func TestColdSeedMatchesReferencePacker(t *testing.T) {
	families := []struct {
		name string
		gen  func(r *rand.Rand, n, m int) *Instance
	}{
		{"plain", randInstance},
		{"capacitated", randCapacitatedInstance},
		{"mobile", randMobileInstance},
		{"capacitated-mobile", func(r *rand.Rand, n, m int) *Instance {
			in := randMobileInstance(r, n, m)
			for j := range in.Chargers {
				in.Chargers[j].Capacity = (500 + r.Float64()*1500) / in.Chargers[j].Efficiency
			}
			return in
		}},
	}
	totalFailed := 0
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			compared, failed := 0, 0
			for seed := int64(1); seed <= 500; seed++ {
				r := rand.New(rand.NewSource(seed))
				in := fam.gen(r, 4+r.Intn(30), 1+r.Intn(6))
				if seed%3 == 0 {
					// Tighten capacities toward a single purchase so the
					// greedy packing runs out of room on some instances.
					for j := range in.Chargers {
						if c := &in.Chargers[j]; c.Capacity > 0 {
							c.Capacity *= 0.3 + 0.4*r.Float64()
						}
					}
				}
				cm, err := NewCostModel(in)
				if err != nil {
					continue // a device fits no charger at all: not a packing case
				}
				g, err := newChargerGame(cm, PDS{})
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := g.initialAssignment()
				cold, coldErr := seedSlots(cm, g.chargerOf, g.firstSlot, nil, nil)
				seed0, seedErr := NewWarmStart().Seed(cm)
				g.release()
				compared++
				if wantErr != nil {
					failed++
					if coldErr == nil || coldErr.Error() != wantErr.Error() {
						t.Errorf("seed %d: cold start err %v, reference %v", seed, coldErr, wantErr)
					}
					if seedErr == nil || seedErr.Error() != "core: "+wantErr.Error() {
						t.Errorf("seed %d: Seed err %v, reference %v", seed, seedErr, wantErr)
					}
					continue
				}
				if coldErr != nil || seedErr != nil {
					t.Errorf("seed %d: cold start err %v, Seed err %v; reference succeeded", seed, coldErr, seedErr)
					continue
				}
				if !reflect.DeepEqual(cold, want) {
					t.Errorf("seed %d: cold start %v, reference %v", seed, cold, want)
				}
				if !reflect.DeepEqual(seed0, want) {
					t.Errorf("seed %d: empty-carrier Seed %v, reference %v", seed, seed0, want)
				}
			}
			t.Logf("%d instances compared, %d failing packings", compared, failed)
			if compared < 400 {
				t.Errorf("only %d valid instances compared", compared)
			}
			totalFailed += failed
		})
	}
	if totalFailed == 0 {
		t.Error("no instance exercised the packing-failure path")
	}
}
