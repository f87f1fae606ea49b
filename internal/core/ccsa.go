package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/par"
	"repro/internal/submodular"
)

// OracleKind selects how CCSA finds, per charger, the uncovered coalition
// with minimum average cost.
type OracleKind int

const (
	// AutoOracle uses the exact SFM oracle when the uncovered set fits a
	// 64-bit ground set and the prefix heuristic otherwise. Default.
	AutoOracle OracleKind = iota
	// SFMOracle forces Dinkelbach + Fujishige–Wolfe minimum-norm-point
	// submodular minimization (exact up to solver tolerance).
	SFMOracle
	// PrefixOracle forces the sorted-prefix heuristic (fast, exact for
	// linear tariffs).
	PrefixOracle
)

// CCSAOptions tunes the CCSA approximation algorithm.
type CCSAOptions struct {
	// Oracle selects the min-ratio subroutine. Default AutoOracle.
	Oracle OracleKind
	// SFM tunes the submodular solver used by the SFM oracle.
	SFM submodular.Options
	// Workers bounds the goroutines evaluating per-charger oracles within
	// a full-rescan round. Values below 2 keep the scan serial. Any value
	// yields the same schedule: results land in per-charger slots and the
	// argmin is taken in charger order.
	Workers int
}

// CCSAResult carries the schedule plus run diagnostics.
type CCSAResult struct {
	Schedule *Schedule
	// Rounds is the number of greedy iterations (coalitions committed
	// before same-charger merging).
	Rounds int
	// OracleCalls counts min-ratio oracle invocations. With the exact SFM
	// oracle, rounds after the first reuse stale per-charger ratios as
	// lower bounds (lazy greedy), so this is typically far below
	// Rounds × NumChargers.
	OracleCalls int
}

// CCSA runs the paper's approximation algorithm: a set-cover-style greedy
// that repeatedly commits the (charger, coalition-of-uncovered-devices)
// pair with minimum average comprehensive cost. With the exact SFM oracle
// the greedy inherits the H_n approximation factor of weighted set cover.
//
// Rounds served by the exact oracle use lazy (CELF-style) evaluation: a
// charger's min ratio over a shrunken uncovered set can only rise, so a
// ratio computed in an earlier exact round is a valid lower bound and most
// chargers never need re-evaluation. The committed coalition is always
// freshly computed against the current uncovered set, and ties fall to the
// smallest charger index — exactly what the full rescan produces — so the
// schedule is bit-identical to the eager greedy's.
func CCSA(cm *CostModel, opts CCSAOptions) (*CCSAResult, error) {
	n := cm.NumDevices()
	m := cm.NumChargers()
	uncovered := make([]int, n)
	for i := range uncovered {
		uncovered[i] = i
	}

	// Per-charger oracle state: the last ratio and coalition computed, and
	// the round they were computed in. entriesExact records that every
	// entry was produced by the exact oracle (the lazy lower-bound
	// argument needs exactness both when the entry was computed and now).
	ratio := make([]float64, m)
	sets := make([][]int, m)
	computedIn := make([]int, m)
	for j := range computedIn {
		computedIn[j] = -1
	}
	entriesExact := false

	res := &CCSAResult{Schedule: &Schedule{}}
	for round := 0; len(uncovered) > 0; round++ {
		exact, err := oracleIsExact(cm, len(uncovered), opts)
		if err != nil {
			return nil, fmt.Errorf("ccsa: charger 0 oracle: %w", err)
		}

		var bestJ int
		if exact && entriesExact && round > 0 {
			// Lazy round: pop the smallest bound; commit it if fresh,
			// otherwise refresh it against the current uncovered set.
			for {
				bestJ = 0
				for j := 1; j < m; j++ {
					if ratio[j] < ratio[bestJ] {
						bestJ = j
					}
				}
				if computedIn[bestJ] == round {
					break
				}
				set, r, err := minRatioCoalition(cm, bestJ, uncovered, opts)
				if err != nil {
					return nil, fmt.Errorf("ccsa: charger %d oracle: %w", bestJ, err)
				}
				res.OracleCalls++
				sets[bestJ], ratio[bestJ], computedIn[bestJ] = set, r, round
			}
		} else {
			// Full rescan, optionally parallel across chargers. Slots are
			// pre-indexed per charger, so worker count never changes the
			// outcome.
			if m == 0 {
				return nil, fmt.Errorf("ccsa: no coalition found for %d uncovered devices", len(uncovered))
			}
			workers := opts.Workers
			if workers < 1 {
				workers = 1
			}
			err := par.Map(context.Background(), workers, m, func(_ context.Context, j int) error {
				set, r, err := minRatioCoalition(cm, j, uncovered, opts)
				if err != nil {
					return fmt.Errorf("ccsa: charger %d oracle: %w", j, err)
				}
				sets[j], ratio[j], computedIn[j] = set, r, round
				return nil
			})
			if err != nil {
				return nil, err
			}
			res.OracleCalls += m
			entriesExact = exact
			bestJ = 0
			for j := 1; j < m; j++ {
				if ratio[j] < ratio[bestJ] {
					bestJ = j
				}
			}
		}

		bestSet := sets[bestJ]
		if len(bestSet) == 0 {
			return nil, fmt.Errorf("ccsa: no coalition found for %d uncovered devices", len(uncovered))
		}
		sort.Ints(bestSet)
		res.Schedule.Coalitions = append(res.Schedule.Coalitions,
			Coalition{Charger: bestJ, Members: bestSet})
		res.Rounds++
		uncovered = removeAll(uncovered, bestSet)
		// ratio[bestJ] stays: it was computed on a superset of the shrunken
		// uncovered set, so it remains a valid lower bound for later rounds
		// (the charger is typically popped and refreshed first next round).
	}
	// Merging same-charger sessions never raises cost under concave
	// tariffs (for mobile chargers the merged tour is subadditive in the
	// same way) — but it can overflow a session capacity or a travel
	// budget, so those schedules keep their sessions separate.
	if !cm.HasCapacity() && !cm.HasTravelBudget() {
		res.Schedule.MergeSameCharger()
	}
	return res, nil
}

// oracleIsExact resolves opts.Oracle for the current uncovered-set size,
// mirroring minRatioCoalition's dispatch, and surfaces the forced-SFM
// configuration errors up front.
func oracleIsExact(cm *CostModel, numUncovered int, opts CCSAOptions) (bool, error) {
	switch opts.Oracle {
	case SFMOracle:
		if numUncovered > 64 {
			return false, fmt.Errorf("SFM oracle limited to 64 devices, got %d", numUncovered)
		}
		if cm.HasCapacity() {
			return false, fmt.Errorf("SFM oracle does not support session capacities (the constraint breaks submodularity); use PrefixOracle")
		}
		if cm.HasMobility() {
			return false, fmt.Errorf("SFM oracle does not support mobile chargers (the tour term breaks submodularity); use PrefixOracle")
		}
		return true, nil
	case PrefixOracle:
		return false, nil
	default:
		return numUncovered <= 64 && !cm.HasCapacity() && !cm.HasMobility(), nil
	}
}

// minRatioCoalition finds a subset S of the uncovered devices minimizing
// SessionCost(S, j)/|S|.
func minRatioCoalition(cm *CostModel, j int, uncovered []int, opts CCSAOptions) ([]int, float64, error) {
	useSFM, err := oracleIsExact(cm, len(uncovered), opts)
	if err != nil {
		return nil, 0, err
	}
	if useSFM {
		return sfmOracle(cm, j, uncovered, opts.SFM)
	}
	set, ratio := prefixOracle(cm, j, uncovered)
	return set, ratio, nil
}

// sfmOracle minimizes the ratio exactly (up to solver tolerance) with
// Dinkelbach iteration over submodular minimizations. The set function
// decodes members into a reused buffer in ascending-bit order — the same
// order Set.Elems produced — so SessionCost sums in identical sequence.
func sfmOracle(cm *CostModel, j int, uncovered []int, sfmOpts submodular.Options) ([]int, float64, error) {
	buf := make([]int, 0, len(uncovered))
	f := submodular.FuncOf(len(uncovered), func(s submodular.Set) float64 {
		if s.Empty() {
			return 0
		}
		buf = buf[:0]
		for t := uint64(s); t != 0; t &= t - 1 {
			buf = append(buf, uncovered[bits.TrailingZeros64(t)])
		}
		return cm.SessionCost(buf, j)
	})
	set, ratio, err := submodular.MinimizeRatio(f, sfmOpts)
	if err != nil {
		return nil, 0, err
	}
	members := make([]int, 0, set.Card())
	for _, e := range set.Elems() {
		members = append(members, uncovered[e])
	}
	return members, ratio, nil
}

// prefixOracle is the fast heuristic: sort the uncovered devices by their
// marginal cost at charger j and take the best prefix by average cost.
// For linear tariffs the best prefix is the exact minimizer; for strictly
// concave tariffs it is a high-quality heuristic (the CCSA greedy remains
// a feasible schedule either way).
//
// The per-device weight is computed once per device (not once per
// comparison) and prefix costs come from running demand and moving-cost
// sums, so the scan is O(n log n) in SessionCost-equivalent work instead
// of O(n²). Weight ties break on device index, which is the permutation
// the previous stable sort produced on the ascending candidate list.
func prefixOracle(cm *CostModel, j int, uncovered []int) ([]int, float64) {
	in := cm.Instance()
	ch := &in.Chargers[j]
	// Linearized per-device weight: moving cost + energy at the
	// full-volume average rate.
	vol := cm.Purchased(uncovered, j)
	rate := 0.0
	if vol > 0 {
		rate = tariffPrice(&ch.Tariff, vol) / vol
	}
	order := make([]int, 0, len(uncovered))
	one := make([]int, 1)
	for _, i := range uncovered {
		one[0] = i
		if cm.Feasible(one, j) {
			order = append(order, i)
		}
	}
	weight := make([]float64, len(order))
	for k, i := range order {
		weight[k] = cm.MovingCost(i, j) + rate*in.Devices[i].Demand/ch.Efficiency
		if ch.Mobile {
			// Linearized travel: the round trip the charger would drive
			// for this device alone, so nearby devices sort first and
			// the prefix grows a compact tour.
			weight[k] += ch.MoveRate * 2 * ch.Home().Dist(in.Devices[i].Pos)
		}
	}
	sort.Sort(&byWeight{order: order, weight: weight})
	var (
		bestK     = 0
		bestRatio = math.Inf(1)
		demand    float64
		moveSum   float64
		prefix    []int // mobile only: the prefix members, for tour re-planning
	)
	for k := 1; k <= len(order); k++ {
		i := order[k-1]
		demand += in.Devices[i].Demand
		if ch.Capacity > 0 && demand/ch.Efficiency > ch.Capacity*(1+1e-12) {
			break // demands are positive: larger prefixes stay infeasible
		}
		moveSum += cm.MovingCost(i, j)
		cost := ch.Fee + tariffPrice(&ch.Tariff, demand/ch.Efficiency) + moveSum
		if ch.Mobile {
			// Re-plan the charger's tour for every candidate prefix: the
			// greedy commits coalition and route jointly.
			prefix = append(prefix, i)
			tourLen := cm.TourLength(prefix, j)
			if ch.TravelBudget > 0 && tourLen > ch.TravelBudget*(1+1e-12) {
				break // heuristic prune: larger prefixes plan longer tours
			}
			cost += ch.MoveRate * tourLen
		}
		ratio := cost / float64(k)
		if ratio < bestRatio {
			bestRatio, bestK = ratio, k
		}
	}
	return append([]int(nil), order[:bestK]...), bestRatio
}

// byWeight sorts the candidate devices by linearized weight, breaking ties
// on device index so the order is unique (equivalent to a stable sort of
// the ascending candidate list).
type byWeight struct {
	order  []int
	weight []float64
}

func (s *byWeight) Len() int { return len(s.order) }
func (s *byWeight) Less(a, b int) bool {
	if s.weight[a] != s.weight[b] {
		return s.weight[a] < s.weight[b]
	}
	return s.order[a] < s.order[b]
}
func (s *byWeight) Swap(a, b int) {
	s.order[a], s.order[b] = s.order[b], s.order[a]
	s.weight[a], s.weight[b] = s.weight[b], s.weight[a]
}

// removeAll returns uncovered minus the sorted slice taken, preserving
// order.
func removeAll(uncovered, taken []int) []int {
	inTaken := make(map[int]bool, len(taken))
	for _, t := range taken {
		inTaken[t] = true
	}
	out := uncovered[:0]
	for _, u := range uncovered {
		if !inTaken[u] {
			out = append(out, u)
		}
	}
	return out
}
