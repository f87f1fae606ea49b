package core

// Scheduler is the common interface the lifetime simulator, the testbed
// and the experiment harness use to run any of the four algorithms
// interchangeably.
type Scheduler interface {
	// Name returns the algorithm's table label (NONCOOP, CCSA, CCSGA, OPT).
	Name() string
	// Schedule solves the instance behind cm.
	Schedule(cm *CostModel) (*Schedule, error)
}

// NoncoopScheduler wraps Noncooperative.
type NoncoopScheduler struct{}

var _ Scheduler = NoncoopScheduler{}

// Name implements Scheduler.
func (NoncoopScheduler) Name() string { return "NONCOOP" }

// Schedule implements Scheduler.
func (NoncoopScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	return Noncooperative(cm), nil
}

// CCSAScheduler wraps CCSA.
type CCSAScheduler struct {
	Opts CCSAOptions
}

var _ Scheduler = CCSAScheduler{}

// Name implements Scheduler.
func (CCSAScheduler) Name() string { return "CCSA" }

// Schedule implements Scheduler.
func (s CCSAScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	res, err := CCSA(cm, s.Opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// RepairScheduler is a Scheduler that carries an equilibrium across
// related solves, returning full solver diagnostics. It is the one
// stateful entry point of the CCSGA solve engine.
type RepairScheduler interface {
	Scheduler
	// ScheduleRepair solves like Schedule, starting the switch dynamics
	// from ws's seed when ws is non-nil (and recording the new
	// equilibrium back into it); a nil ws is exactly the cold path plus
	// diagnostics. A non-nil rs additionally persists the equilibrium:
	// the first solve through it (or any solve repair cannot handle —
	// see RepairState) runs the same warm path and primes rs, and later
	// solves repair the primed equilibrium over the dirty-slot frontier.
	ScheduleRepair(cm *CostModel, ws *WarmStart, rs *RepairState) (*CCSGAResult, error)
}

// CCSGAScheduler wraps CCSGA.
type CCSGAScheduler struct {
	Opts CCSGAOptions
}

var (
	_ Scheduler       = CCSGAScheduler{}
	_ RepairScheduler = CCSGAScheduler{}
)

// Name implements Scheduler.
func (CCSGAScheduler) Name() string { return "CCSGA" }

// Schedule implements Scheduler.
func (s CCSGAScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	res, err := CCSGA(cm, s.Opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// ScheduleRepair implements RepairScheduler. Any Opts.Init is
// overridden by the carrier's seed when ws is non-nil.
func (s CCSGAScheduler) ScheduleRepair(cm *CostModel, ws *WarmStart, rs *RepairState) (*CCSGAResult, error) {
	if rs != nil {
		return rs.solve(cm, s.Opts, ws)
	}
	res, game, err := warmSolve(cm, s.Opts, ws)
	game.release()
	return res, err
}

// warmSolve is the one warm path behind ScheduleRepair: seed the
// dynamics from ws when it is non-nil, solve, and record the new
// equilibrium back into ws. It returns the converged game so a
// RepairState can adopt it.
func warmSolve(cm *CostModel, opts CCSGAOptions, ws *WarmStart) (*CCSGAResult, *chargerGame, error) {
	if ws != nil {
		init, err := ws.Seed(cm)
		if err != nil {
			return nil, nil, err
		}
		opts.Init = init
	}
	res, game, err := ccsgaSolve(cm, opts)
	if err != nil {
		return nil, nil, err
	}
	if ws != nil {
		ws.Record(cm.Instance(), res.Schedule)
	}
	return res, game, nil
}

// OptimalScheduler wraps Optimal; it fails on instances larger than
// MaxOptimalDevices.
type OptimalScheduler struct{}

var _ Scheduler = OptimalScheduler{}

// Name implements Scheduler.
func (OptimalScheduler) Name() string { return "OPT" }

// Schedule implements Scheduler.
func (OptimalScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	return Optimal(cm)
}
