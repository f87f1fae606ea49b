package core_test

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// Build a small instance by hand, run all four schedulers, and split the
// CCSA bill among the devices under both sharing schemes.
func Example() {
	// Six mobile devices on a 500 m field. Demands in joules, moving
	// costs in $/m.
	devices := []core.Device{
		{ID: "drone-1", Pos: geom.Pt(50, 80), Demand: 220, MoveRate: 0.012},
		{ID: "drone-2", Pos: geom.Pt(90, 140), Demand: 180, MoveRate: 0.012},
		{ID: "cart-1", Pos: geom.Pt(120, 60), Demand: 350, MoveRate: 0.008},
		{ID: "cart-2", Pos: geom.Pt(420, 380), Demand: 300, MoveRate: 0.008},
		{ID: "mule-1", Pos: geom.Pt(380, 430), Demand: 260, MoveRate: 0.010},
		{ID: "mule-2", Pos: geom.Pt(460, 330), Demand: 240, MoveRate: 0.010},
	}
	// Two chargers with volume-discount tariffs: bulk energy is cheaper
	// per joule, which is what makes cooperation pay.
	tiered, err := pricing.NewTiered([]pricing.Tier{
		{UpTo: 300, Rate: 0.12},
		{UpTo: 900, Rate: 0.08},
		{UpTo: math.Inf(1), Rate: 0.05},
	})
	if err != nil {
		panic(err)
	}
	chargers := []core.Charger{
		{
			ID: "north", Pos: geom.Pt(100, 100), Fee: 8,
			Tariff:     pricing.PowerLaw{Coeff: 0.35, Exponent: 0.88},
			Efficiency: 0.85,
		},
		{
			ID: "south", Pos: geom.Pt(400, 400), Fee: 6,
			Tariff:     tiered,
			Efficiency: 0.80,
		},
	}
	in := &core.Instance{Field: geom.Square(500), Devices: devices, Chargers: chargers}
	cm, err := core.NewCostModel(in)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lower bound $%.2f\n", core.LowerBound(cm))
	for _, s := range []core.Scheduler{
		core.NoncoopScheduler{},
		core.CCSGAScheduler{},
		core.CCSAScheduler{},
		core.OptimalScheduler{},
	} {
		sched, err := s.Schedule(cm)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s $%.2f:", s.Name(), cm.TotalCost(sched))
		for _, c := range sched.Coalitions {
			fmt.Printf(" %s%v", in.Chargers[c.Charger].ID, c.Members)
		}
		fmt.Println()
	}

	res, err := core.CCSA(cm, core.CCSAOptions{})
	if err != nil {
		panic(err)
	}
	pds, err := core.ScheduleShares(cm, res.Schedule, core.PDS{})
	if err != nil {
		panic(err)
	}
	ess, err := core.ScheduleShares(cm, res.Schedule, core.ESS{})
	if err != nil {
		panic(err)
	}
	for i, d := range in.Devices {
		sigma, _ := cm.StandaloneCost(i)
		fmt.Printf("%s alone $%.2f, PDS $%.2f, ESS $%.2f\n", d.ID, sigma, pds[i], ess[i])
	}
	// Output:
	// lower bound $151.45
	// NONCOOP $274.58: south[0] south[1] south[2] south[3] south[4] south[5]
	// CCSGA $157.45: south[0 1 2 3 4 5]
	// CCSA $157.45: south[0 1 2 3 4 5]
	// OPT $157.45: south[0 1 2 3 4 5]
	// drone-1 alone $44.69, PDS $25.83, ESS $25.17
	// drone-2 alone $37.86, PDS $21.33, ESS $18.33
	// cart-1 alone $56.52, PDS $35.56, ESS $37.00
	// cart-2 alone $48.23, PDS $27.69, ESS $28.71
	// mule-1 alone $44.36, PDS $24.16, ESS $24.84
	// mule-2 alone $42.92, PDS $22.89, ESS $23.40
}
