package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxOptimalDevices bounds the exact solver: the set-partition dynamic
// program enumerates 3^n (group, rest) splits.
const MaxOptimalDevices = 18

// Optimal solves the CCS instance exactly with a Bellman set-partition
// dynamic program: dp[mask] is the cheapest cost of serving the devices in
// mask, split as the coalition containing mask's lowest-indexed device
// plus an optimal schedule of the rest. Runs in O(3^n + 2^n·m) time and
// O(2^n) space; refuses instances above MaxOptimalDevices.
func Optimal(cm *CostModel) (*Schedule, error) {
	n, m := cm.NumDevices(), cm.NumChargers()
	if n > MaxOptimalDevices {
		return nil, fmt.Errorf("core: Optimal limited to %d devices, got %d", MaxOptimalDevices, n)
	}
	if cm.HasMobility() {
		// The DP prices sessions as fee + tariff + member moving costs;
		// a mobile charger's tour term would silently be dropped.
		return nil, fmt.Errorf("core: Optimal does not support mobile chargers (tour-aware session costs); use CCSA or CCSGA")
	}
	size := 1 << uint(n)
	in := cm.Instance()

	// demandSum[mask] = Σ demand over mask, via lowest-set-bit recurrence.
	demandSum := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		lsb := mask & -mask
		i := bits.TrailingZeros(uint(mask))
		demandSum[mask] = demandSum[mask^lsb] + in.Devices[i].Demand
	}

	// groupCost[mask] = min over chargers of the session cost of mask;
	// groupCharger[mask] = the argmin, smallest charger index on ties.
	groupCost := make([]float64, size)
	groupCharger := make([]int, size)
	for mask := 1; mask < size; mask++ {
		groupCost[mask] = math.Inf(1)
		groupCharger[mask] = m
	}
	// Chargers are processed cheapest-looking first (by full-set session
	// cost) so the Fee+moveSum lower bound below prunes most tariff
	// evaluations; the lexicographic (cost, charger) update makes the
	// result independent of processing order, so this is purely a
	// pruning heuristic.
	chOrder := make([]int, m)
	fullCost := make([]float64, m)
	slope := make([]float64, m)
	for j := range chOrder {
		chOrder[j] = j
		ch := in.Chargers[j]
		full := demandSum[size-1] / ch.Efficiency
		p := tariffPrice(&ch.Tariff, full)
		fullCost[j] = ch.Fee + p
		if full > 0 {
			// Validated tariffs are concave, nondecreasing, and zero at
			// zero, so Price(e) ≥ (e/E)·Price(E) for e ≤ E. The 1e-9
			// shave absorbs rounding in the chord slope, keeping the
			// prune below strictly conservative.
			slope[j] = p / full * (1 - 1e-9)
		}
	}
	sort.Slice(chOrder, func(a, b int) bool {
		if fullCost[chOrder[a]] != fullCost[chOrder[b]] {
			return fullCost[chOrder[a]] < fullCost[chOrder[b]]
		}
		return chOrder[a] < chOrder[b]
	})
	moveSum := make([]float64, size)
	for _, j := range chOrder {
		ch := in.Chargers[j]
		moveSum[0] = 0
		for mask := 1; mask < size; mask++ {
			lsb := mask & -mask
			i := bits.TrailingZeros(uint(mask))
			moveSum[mask] = moveSum[mask^lsb] + cm.MovingCost(i, j)
			purchased := demandSum[mask] / ch.Efficiency
			if ch.Capacity > 0 && purchased > ch.Capacity*(1+1e-12) {
				continue // session capacity exceeded
			}
			if ch.Fee+slope[j]*purchased+moveSum[mask] > groupCost[mask] {
				// The chord lower bound cannot beat the incumbent — and
				// on an exact tie the bound does not prune, keeping the
				// smallest-index tie-break intact. Skipping the tariff
				// call here is the big win: math.Pow dominates this
				// sweep for power-law tariffs.
				continue
			}
			cost := ch.Fee + tariffPrice(&ch.Tariff, purchased) + moveSum[mask]
			if cost < groupCost[mask] || (cost == groupCost[mask] && j < groupCharger[mask]) {
				groupCost[mask] = cost
				groupCharger[mask] = j
			}
		}
	}

	// dp over partitions: the coalition containing the lowest-indexed
	// uncovered device ranges over submasks including that device.
	dp := make([]float64, size)
	choice := make([]int, size) // submask chosen as first coalition
	for mask := 1; mask < size; mask++ {
		dp[mask] = math.Inf(1)
		low := mask & -mask
		rest := mask ^ low
		// Enumerate submasks sub of rest; coalition = sub | low.
		for sub := rest; ; sub = (sub - 1) & rest {
			grp := sub | low
			if c := groupCost[grp] + dp[mask^grp]; c < dp[mask] {
				dp[mask] = c
				choice[mask] = grp
			}
			if sub == 0 {
				break
			}
		}
	}

	if math.IsInf(dp[size-1], 1) {
		return nil, fmt.Errorf("core: no feasible schedule (session capacities too tight)")
	}

	// Reconstruct.
	s := &Schedule{}
	for mask := size - 1; mask != 0; {
		grp := choice[mask]
		members := make([]int, 0, bits.OnesCount(uint(grp)))
		for t := grp; t != 0; t &= t - 1 {
			members = append(members, bits.TrailingZeros(uint(t)))
		}
		s.Coalitions = append(s.Coalitions, Coalition{
			Charger: groupCharger[grp],
			Members: members,
		})
		mask ^= grp
	}
	// Merging same-charger sessions is only safe without capacities.
	if !cm.HasCapacity() {
		s.MergeSameCharger()
	}
	return s, nil
}
