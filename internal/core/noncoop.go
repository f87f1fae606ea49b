package core

// Noncooperative is the baseline scheduler: every device ignores the
// others and buys its own singleton session from the charger minimizing
// its comprehensive cost. Each session pays the full per-session fee and
// the small-volume tariff rate — exactly the inefficiency cooperation
// removes.
//
// Same-charger singletons are deliberately NOT merged: in the
// noncooperative world each device transacts separately.
func Noncooperative(cm *CostModel) *Schedule {
	s := &Schedule{Coalitions: make([]Coalition, 0, cm.NumDevices())}
	for i := 0; i < cm.NumDevices(); i++ {
		_, j := cm.StandaloneCost(i)
		s.Coalitions = append(s.Coalitions, Coalition{Charger: j, Members: []int{i}})
	}
	return s
}

// LowerBound returns a valid lower bound on the optimal total cost: each
// device must at least travel to some charger and buy its energy at no
// less than that charger's cheapest conceivable per-joule rate (the
// average rate at the maximum possible session volume — concavity makes
// per-joule prices decrease with volume). Fees are dropped entirely.
func LowerBound(cm *CostModel) float64 {
	in := cm.Instance()
	// Cheapest per-joule rate per charger, at full-network volume.
	rate := make([]float64, len(in.Chargers))
	var totalDemand float64
	for _, d := range in.Devices {
		totalDemand += d.Demand
	}
	for j, ch := range in.Chargers {
		maxVol := totalDemand / ch.Efficiency
		if maxVol > 0 {
			rate[j] = tariffPrice(&ch.Tariff, maxVol) / maxVol
		}
	}
	var lb float64
	for i, d := range in.Devices {
		best := -1.0
		for j, ch := range in.Chargers {
			c := cm.MovingCost(i, j) + rate[j]*d.Demand/ch.Efficiency
			if best < 0 || c < best {
				best = c
			}
		}
		lb += best
	}
	return lb
}
