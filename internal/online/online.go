// Package online studies cooperative charging when devices arrive over
// time instead of all at once: a batching policy decides when to trigger
// a cooperative scheduling round over the devices currently waiting,
// trading waiting time against coalition size (bigger batches buy deeper
// volume discounts). Deadlines are honored by forcing a round whenever a
// waiting device's deadline approaches.
package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
)

// Arrival is one device's service request.
type Arrival struct {
	// Device carries position, demand and moving-cost rate.
	Device core.Device
	// At is the request time, seconds.
	At float64
	// Deadline is the latest acceptable service time, seconds (> At).
	Deadline float64
}

// BatchPolicy decides when to run a cooperative round.
type BatchPolicy interface {
	// Name labels the policy in tables.
	Name() string
	// Trigger reports whether a round should run now. lastRound is the
	// time of the previous round (-Inf before the first).
	Trigger(now, lastRound float64, waiting []Arrival) bool
}

// Immediate serves every arrival the moment it appears — the online
// noncooperative baseline (batches of one, unless arrivals coincide).
type Immediate struct{}

// Name implements BatchPolicy.
func (Immediate) Name() string { return "immediate" }

// Trigger implements BatchPolicy.
func (Immediate) Trigger(now, lastRound float64, waiting []Arrival) bool {
	return len(waiting) > 0
}

// Periodic runs a round every Interval seconds (when anyone is waiting).
type Periodic struct {
	Interval float64
}

// Name implements BatchPolicy.
func (p Periodic) Name() string { return fmt.Sprintf("periodic(%.0fs)", p.Interval) }

// Trigger implements BatchPolicy.
func (p Periodic) Trigger(now, lastRound float64, waiting []Arrival) bool {
	return len(waiting) > 0 && now-lastRound >= p.Interval
}

// Threshold runs a round once K devices are waiting.
type Threshold struct {
	K int
}

// Name implements BatchPolicy.
func (t Threshold) Name() string { return fmt.Sprintf("threshold(%d)", t.K) }

// Trigger implements BatchPolicy.
func (t Threshold) Trigger(now, lastRound float64, waiting []Arrival) bool {
	return len(waiting) >= t.K
}

// Config configures an online run.
type Config struct {
	// Chargers are the available service providers.
	Chargers []core.Charger
	// Arrivals is the request sequence (any order; sorted internally).
	Arrivals []Arrival
	// Policy batches the arrivals.
	Policy BatchPolicy
	// Scheduler solves each round.
	Scheduler core.Scheduler
	// DeadlineGuard forces a round when a waiting deadline is within
	// this many seconds; zero means 1.
	DeadlineGuard float64
	// Field is carried into round instances (informational).
	Field geom.Rect
	// WarmStart carries each round's equilibrium into the next round's
	// solve: devices the carrier remembers (matched by ID — returning
	// devices in recurring workloads) are seeded at their previous
	// charger, new arrivals start standalone. The batching, serving and
	// accounting semantics are unchanged; only the solver's starting
	// point differs, so the dynamics may land on a different (still
	// pure-Nash) equilibrium. Requires a Scheduler implementing
	// core.RepairScheduler, e.g. core.CCSGAScheduler. The round instances
	// are additionally maintained incrementally (CostModel.AddDevice /
	// RemoveDevice) instead of being rebuilt from scratch.
	WarmStart bool
	// Shard, when Shard.CellSize > 0, solves each round spatially
	// sharded: the field is gridded once, each cell's chargers form a
	// sub-instance solved by a warm-started per-shard CCSGA in parallel,
	// and boundary devices are reconciled through Shard.Overlap (see
	// internal/shard). The per-shard warm carriers persist across
	// rounds, so recurring workloads re-solve only the perturbation —
	// sharding replaces rather than composes with WarmStart (setting
	// both is an error: the global incrementally-patched CostModel that
	// WarmStart maintains is exactly the O(devices × chargers) table
	// sharding exists to avoid). Requires a core.RepairScheduler and a
	// non-degenerate Field. The zero value leaves every code path —
	// and every output byte — exactly as without this field.
	Shard shard.Config
	// Obs, when non-nil, receives the run's solver diagnostics as
	// labeled metrics (rounds, served devices, batch sizes, CCSGA
	// passes/switches, Nash-stability, deadline misses) so service
	// harnesses and ccsim can snapshot them. Nil disables the
	// instruments at zero cost, and the returned Metrics are identical
	// either way.
	Obs *obs.Registry
	// CoverageK, when >= 1, validates every round's schedule against the
	// k-coverage layer (core.ValidateKCoverage): each of the round's
	// devices must be within CoverageRadius of at least CoverageK active
	// sessions. Violations are counted per round (Metrics.
	// CoverageViolations, RoundStat.CoverageOK), not fatal — an online
	// batch can legitimately be too sparse to cover. Requires
	// CoverageRadius > 0; not supported together with Shard (coverage is
	// a whole-field property). Zero disables the check and leaves every
	// output byte unchanged.
	CoverageK int
	// CoverageRadius is the k-coverage reach, meters. See CoverageK.
	CoverageRadius float64
}

// obsInstruments holds the run's registered metrics; every field is a
// nil-safe no-op when Config.Obs is nil.
type obsInstruments struct {
	rounds    *obs.Counter
	served    *obs.Counter
	passes    *obs.Counter
	switches  *obs.Counter
	unstable  *obs.Counter
	misses    *obs.Counter
	uncovered *obs.Counter
	batchSize *obs.Histogram
}

// instruments registers the run's metric series, labeled by scheduler.
func (cfg Config) instruments() obsInstruments {
	if cfg.Obs == nil {
		return obsInstruments{}
	}
	name := cfg.Scheduler.Name()
	return obsInstruments{
		rounds:    cfg.Obs.Counter("online_rounds_total", "scheduler", name),
		served:    cfg.Obs.Counter("online_devices_served_total", "scheduler", name),
		passes:    cfg.Obs.Counter("online_passes_total", "scheduler", name),
		switches:  cfg.Obs.Counter("online_switches_total", "scheduler", name),
		unstable:  cfg.Obs.Counter("online_unstable_rounds_total", "scheduler", name),
		misses:    cfg.Obs.Counter("online_deadline_misses_total", "scheduler", name),
		uncovered: cfg.Obs.Counter("online_coverage_violations_total", "scheduler", name),
		batchSize: cfg.Obs.Histogram("online_batch_devices", []float64{1, 2, 4, 8, 16, 32, 64}, "scheduler", name),
	}
}

// RoundStat is one scheduling round's solver diagnostics, reported when
// the scheduler exposes them (core.RepairScheduler implementations).
type RoundStat struct {
	// At is the round's service time, seconds.
	At float64
	// Devices is the batch size served.
	Devices int
	// Passes and Switches are the CCSGA engine's sweep and accepted-move
	// counts for the round's solve.
	Passes   int
	Switches int
	// NashStable reports whether the round's assignment was verified to
	// be a pure Nash equilibrium (of each shard's game when sharded).
	NashStable bool
	// CoverageOK reports whether the round's schedule satisfied the
	// configured k-coverage requirement; always true when Config.
	// CoverageK is zero (check disabled).
	CoverageOK bool
	// Shards, Replicated and Reassigned are the spatial-decomposition
	// diagnostics when Config.Shard is enabled (see shard.Result); all
	// zero otherwise.
	Shards     int
	Replicated int
	Reassigned int
}

// Metrics summarizes an online run.
type Metrics struct {
	// TotalCost is the summed comprehensive cost of all rounds, $.
	TotalCost float64
	// Rounds is the number of scheduling rounds run.
	Rounds int
	// Served is the number of devices served.
	Served int
	// MeanWait and MaxWait are service-time minus arrival-time stats,
	// seconds.
	MeanWait float64
	MaxWait  float64
	// DeadlineMisses counts devices served after their deadline (zero
	// under any correct policy/guard combination).
	DeadlineMisses int
	// CoverageViolations counts rounds whose schedule failed the
	// configured k-coverage check; zero when CoverageK is zero.
	CoverageViolations int
	// TotalPasses and TotalSwitches sum the per-round solver diagnostics
	// across all rounds; zero when the scheduler reports none.
	TotalPasses   int
	TotalSwitches int
	// RoundStats has one entry per round when the scheduler reports
	// solver diagnostics (nil otherwise).
	RoundStats []RoundStat
}

// Run plays the arrival sequence against the policy and returns metrics.
func Run(cfg Config) (*Metrics, error) {
	switch {
	case len(cfg.Chargers) == 0:
		return nil, errors.New("online: no chargers")
	case len(cfg.Arrivals) == 0:
		return nil, errors.New("online: no arrivals")
	case cfg.Policy == nil:
		return nil, errors.New("online: nil policy")
	case cfg.Scheduler == nil:
		return nil, errors.New("online: nil scheduler")
	}
	warmSched, warmOK := cfg.Scheduler.(core.RepairScheduler)
	if cfg.WarmStart && !warmOK {
		return nil, fmt.Errorf("online: WarmStart requires a core.RepairScheduler, got %s", cfg.Scheduler.Name())
	}
	var planner *shard.Planner
	if cfg.Shard.CellSize > 0 {
		if !warmOK {
			return nil, fmt.Errorf("online: Shard requires a core.RepairScheduler, got %s", cfg.Scheduler.Name())
		}
		if cfg.WarmStart {
			return nil, errors.New("online: Shard and WarmStart are mutually exclusive (sharding carries warm state per shard)")
		}
		p, err := shard.NewPlanner(cfg.Field, cfg.Chargers, warmSched, cfg.Shard)
		if err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		planner = p
	}
	switch {
	case cfg.CoverageK < 0:
		return nil, fmt.Errorf("online: negative CoverageK %d", cfg.CoverageK)
	case cfg.CoverageK > 0 && planner != nil:
		return nil, errors.New("online: CoverageK is not supported with Shard (k-coverage is a whole-field property)")
	case cfg.CoverageK > 0 && (!(cfg.CoverageRadius > 0) || math.IsInf(cfg.CoverageRadius, 1)):
		return nil, fmt.Errorf("online: CoverageK %d requires a positive finite CoverageRadius, got %v", cfg.CoverageK, cfg.CoverageRadius)
	case cfg.CoverageK == 0 && cfg.CoverageRadius != 0:
		return nil, fmt.Errorf("online: CoverageRadius %v set without CoverageK", cfg.CoverageRadius)
	}
	guard := cfg.DeadlineGuard
	if guard <= 0 {
		guard = 1
	}
	arrivals := append([]Arrival(nil), cfg.Arrivals...)
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].At < arrivals[b].At })
	for i, a := range arrivals {
		if a.Deadline <= a.At || math.IsNaN(a.Deadline) {
			return nil, fmt.Errorf("online: arrival %d deadline %v not after arrival %v", i, a.Deadline, a.At)
		}
	}

	m := &Metrics{}
	ins := cfg.instruments()
	var (
		waiting   []Arrival
		waitSum   float64
		lastRound = math.Inf(-1)
		// forcedMin is the earliest (deadline − guard) among waiting
		// devices, maintained on admit and reset on flush instead of
		// being rescanned at every decision point.
		forcedMin = math.Inf(1)
	)
	// Warm-start state: the equilibrium carrier plus a persistent round
	// instance whose cost model is patched incrementally as devices
	// arrive and are served.
	var (
		ws     *core.WarmStart
		warmIn *core.Instance
		warmCM *core.CostModel
	)
	if cfg.WarmStart {
		ws = core.NewWarmStart()
		warmIn = &core.Instance{Field: cfg.Field, Chargers: cfg.Chargers}
	}
	admit := func(a Arrival) error {
		waiting = append(waiting, a)
		if d := a.Deadline - guard; d < forcedMin {
			forcedMin = d
		}
		if !cfg.WarmStart {
			return nil
		}
		if warmCM == nil {
			warmIn.Devices = append(warmIn.Devices, a.Device)
			cm, err := core.NewCostModel(warmIn)
			if err != nil {
				return fmt.Errorf("online: admit %s: %w", a.Device.ID, err)
			}
			warmCM = cm
			return nil
		}
		if err := warmCM.AddDevice(a.Device); err != nil {
			return fmt.Errorf("online: admit %s: %w", a.Device.ID, err)
		}
		return nil
	}
	// account settles the served batch's waiting-time and deadline
	// bookkeeping and resets the batch state — shared by the sharded and
	// whole-field round paths.
	account := func(now float64) {
		ins.batchSize.Observe(float64(len(waiting)))
		ins.served.Add(uint64(len(waiting)))
		for _, a := range waiting {
			wait := now - a.At
			waitSum += wait
			if wait > m.MaxWait {
				m.MaxWait = wait
			}
			if now > a.Deadline {
				m.DeadlineMisses++
				ins.misses.Inc()
			}
			m.Served++
		}
		waiting = waiting[:0]
		forcedMin = math.Inf(1)
		lastRound = now
	}
	runRound := func(now float64) error {
		if len(waiting) == 0 {
			return nil
		}
		if planner != nil {
			devs := make([]core.Device, len(waiting))
			for i, a := range waiting {
				devs[i] = a.Device
			}
			res, err := planner.Solve(devs)
			if err != nil {
				return fmt.Errorf("online: round at %v: %w", now, err)
			}
			m.TotalCost += res.TotalCost
			m.Rounds++
			m.TotalPasses += res.Passes
			m.TotalSwitches += res.Switches
			m.RoundStats = append(m.RoundStats, RoundStat{
				At:         now,
				Devices:    len(waiting),
				Passes:     res.Passes,
				Switches:   res.Switches,
				NashStable: res.NashStable,
				CoverageOK: true, // coverage check is incompatible with Shard
				Shards:     res.Shards,
				Replicated: res.Replicated,
				Reassigned: res.Reassigned,
			})
			ins.rounds.Inc()
			ins.passes.Add(uint64(res.Passes))
			ins.switches.Add(uint64(res.Switches))
			if !res.NashStable {
				ins.unstable.Inc()
			}
			account(now)
			return nil
		}
		var (
			cm  *core.CostModel
			err error
		)
		if cfg.WarmStart {
			cm = warmCM
		} else {
			in := &core.Instance{Field: cfg.Field, Chargers: cfg.Chargers}
			for _, a := range waiting {
				in.Devices = append(in.Devices, a.Device)
			}
			cm, err = core.NewCostModel(in)
			if err != nil {
				return fmt.Errorf("online: round at %v: %w", now, err)
			}
		}
		var sched *core.Schedule
		if warmOK {
			// Warm-capable schedulers run through ScheduleRepair (no
			// repair state) so the round reports solver diagnostics; with
			// WarmStart off the nil carrier makes this exactly the cold
			// Schedule path.
			var carrier *core.WarmStart
			if cfg.WarmStart {
				carrier = ws
			}
			res, err := warmSched.ScheduleRepair(cm, carrier, nil)
			if err != nil {
				return fmt.Errorf("online: round at %v: %w", now, err)
			}
			sched = res.Schedule
			m.TotalPasses += res.Passes
			m.TotalSwitches += res.Switches
			m.RoundStats = append(m.RoundStats, RoundStat{
				At:         now,
				Devices:    len(waiting),
				Passes:     res.Passes,
				Switches:   res.Switches,
				NashStable: res.NashStable,
				CoverageOK: true,
			})
			ins.passes.Add(uint64(res.Passes))
			ins.switches.Add(uint64(res.Switches))
			if !res.NashStable {
				ins.unstable.Inc()
			}
		} else {
			sched, err = cfg.Scheduler.Schedule(cm)
			if err != nil {
				return fmt.Errorf("online: round at %v: %w", now, err)
			}
		}
		if cfg.CoverageK > 0 {
			// A violation is diagnostic, not fatal: an online batch can
			// legitimately be too sparse to k-cover the field.
			if cerr := cm.ValidateKCoverage(sched, cfg.CoverageK, cfg.CoverageRadius); cerr != nil {
				m.CoverageViolations++
				ins.uncovered.Inc()
				if warmOK {
					m.RoundStats[len(m.RoundStats)-1].CoverageOK = false
				}
			}
		}
		m.TotalCost += cm.TotalCost(sched)
		m.Rounds++
		ins.rounds.Inc()
		account(now)
		if cfg.WarmStart {
			// Served devices leave the persistent round instance; popping
			// from the end keeps each removal O(1).
			for i := warmCM.NumDevices() - 1; i >= 0; i-- {
				if err := warmCM.RemoveDevice(i); err != nil {
					return fmt.Errorf("online: round at %v: %w", now, err)
				}
			}
		}
		return nil
	}

	// Event-driven sweep over decision points: every arrival instant and
	// every forced-deadline instant.
	idx := 0
	for idx < len(arrivals) || len(waiting) > 0 {
		// Next decision time: the earlier of the next arrival and the
		// earliest forced deadline among waiting devices. The forced
		// deadline is snapshotted before this instant's admissions, like
		// the rescan it replaced.
		next := math.Inf(1)
		if idx < len(arrivals) {
			next = arrivals[idx].At
		}
		forced := forcedMin
		now := math.Min(next, forced)
		if math.IsInf(now, 1) {
			break
		}
		// Admit all arrivals at this instant.
		for idx < len(arrivals) && arrivals[idx].At <= now {
			if err := admit(arrivals[idx]); err != nil {
				return nil, err
			}
			idx++
		}
		mustServe := now >= forced-1e-9
		if mustServe || cfg.Policy.Trigger(now, lastRound, waiting) {
			if err := runRound(now); err != nil {
				return nil, err
			}
		}
	}
	// Anything still waiting is flushed at the latest deadline among the
	// still-waiting devices — the loop above guarantees that can't
	// happen, but belt and braces. (Arrivals are sorted by arrival time,
	// so the last arrival's deadline would be the wrong flush time.)
	if len(waiting) > 0 {
		if err := runRound(flushDeadline(waiting)); err != nil {
			return nil, err
		}
	}
	if m.Served > 0 {
		m.MeanWait = waitSum / float64(m.Served)
	}
	return m, nil
}

// flushDeadline returns the latest deadline among the waiting devices —
// the time by which every one of them must have been served.
func flushDeadline(waiting []Arrival) float64 {
	latest := math.Inf(-1)
	for _, a := range waiting {
		if a.Deadline > latest {
			latest = a.Deadline
		}
	}
	return latest
}

// OfflineClairvoyant returns the cost of the single-batch schedule over
// every arrival — the clairvoyant reference the online policies are
// compared against (it ignores deadlines and waiting entirely, so it
// lower-bounds any batching policy that uses the same scheduler).
func OfflineClairvoyant(cfg Config) (float64, error) {
	if len(cfg.Arrivals) == 0 || len(cfg.Chargers) == 0 || cfg.Scheduler == nil {
		return 0, errors.New("online: incomplete config")
	}
	in := &core.Instance{Field: cfg.Field, Chargers: cfg.Chargers}
	for _, a := range cfg.Arrivals {
		in.Devices = append(in.Devices, a.Device)
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return 0, err
	}
	sched, err := cfg.Scheduler.Schedule(cm)
	if err != nil {
		return 0, err
	}
	return cm.TotalCost(sched), nil
}

// GenerateArrivals draws n arrivals: exponential interarrival times with
// the given mean (seconds), device properties from the generator
// parameter ranges, and patience windows uniform in [patienceMin,
// patienceMax].
func GenerateArrivals(seed int64, n int, meanInterarrival, patienceMin, patienceMax float64,
	field geom.Rect, demandMin, demandMax, moveRateMin, moveRateMax float64) ([]Arrival, error) {
	if n < 1 {
		return nil, fmt.Errorf("online: n %d < 1", n)
	}
	if meanInterarrival <= 0 || patienceMin <= 0 || patienceMax < patienceMin {
		return nil, fmt.Errorf("online: bad timing parameters")
	}
	r := rng.Derive(seed, "online-arrivals")
	out := make([]Arrival, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		now += r.ExpFloat64() * meanInterarrival
		pos := geom.UniformPoints(r, field, 1)[0]
		a := Arrival{
			Device: core.Device{
				ID:       fmt.Sprintf("req-%03d", i),
				Pos:      pos,
				Demand:   rng.Uniform(r, demandMin, demandMax),
				MoveRate: rng.Uniform(r, moveRateMin, moveRateMax),
			},
			At: now,
		}
		a.Deadline = now + rng.Uniform(r, patienceMin, patienceMax)
		out = append(out, a)
	}
	return out, nil
}

// GenerateRecurringVisits builds a recurring workload over an existing
// device population — typically a gen.LargeField clustered instance whose
// spatial structure should carry into the trace. Device i's visit v
// arrives at v·period plus uniform jitter in [0, jitter) with a patience
// window uniform in [patienceMin, patienceMax]; position, demand and move
// rate are the device's own and stay fixed across visits. IDs are stable,
// so both warm-started and sharded runs map returning devices onto their
// previous equilibria.
func GenerateRecurringVisits(seed int64, devices []core.Device, visits int,
	period, jitter, patienceMin, patienceMax float64) ([]Arrival, error) {
	if len(devices) == 0 || visits < 1 {
		return nil, fmt.Errorf("online: %d devices, %d visits: both must be >= 1", len(devices), visits)
	}
	if period <= 0 || jitter < 0 || jitter >= period || patienceMin <= 0 || patienceMax < patienceMin {
		return nil, fmt.Errorf("online: bad timing parameters")
	}
	r := rng.Derive(seed, "online-visits")
	out := make([]Arrival, 0, len(devices)*visits)
	for v := 0; v < visits; v++ {
		for i := range devices {
			at := float64(v)*period + rng.Uniform(r, 0, jitter)
			out = append(out, Arrival{
				Device:   devices[i],
				At:       at,
				Deadline: at + rng.Uniform(r, patienceMin, patienceMax),
			})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}

// GenerateRecurringArrivals draws the canonical mWRSN service workload: a
// fixed population of n rechargeable sensors that returns for recharging
// visit after visit. Device i's visit v arrives around v·period seconds
// (uniform jitter in [0, jitter)), at a position that drifts by at most
// drift meters per axis between visits (the sensors are mobile), with a
// freshly drawn demand and a patience window uniform in [patienceMin,
// patienceMax]. Device IDs are stable across visits, which is what lets a
// warm-started online run map returning devices onto their previous
// equilibrium.
func GenerateRecurringArrivals(seed int64, n, visits int, period, jitter, patienceMin, patienceMax float64,
	field geom.Rect, demandMin, demandMax, moveRateMin, moveRateMax, drift float64) ([]Arrival, error) {
	if n < 1 || visits < 1 {
		return nil, fmt.Errorf("online: n %d, visits %d: both must be >= 1", n, visits)
	}
	if period <= 0 || jitter < 0 || jitter >= period || patienceMin <= 0 || patienceMax < patienceMin {
		return nil, fmt.Errorf("online: bad timing parameters")
	}
	if drift < 0 {
		return nil, fmt.Errorf("online: drift %v < 0", drift)
	}
	r := rng.Derive(seed, "online-recurring")
	pos := geom.UniformPoints(r, field, n)
	rate := make([]float64, n)
	for i := range rate {
		rate[i] = rng.Uniform(r, moveRateMin, moveRateMax)
	}
	out := make([]Arrival, 0, n*visits)
	for v := 0; v < visits; v++ {
		for i := 0; i < n; i++ {
			if v > 0 && drift > 0 {
				pos[i] = field.Clamp(geom.Pt(
					pos[i].X+rng.Uniform(r, -drift, drift),
					pos[i].Y+rng.Uniform(r, -drift, drift)))
			}
			at := float64(v)*period + rng.Uniform(r, 0, jitter)
			out = append(out, Arrival{
				Device: core.Device{
					ID:       fmt.Sprintf("dev-%03d", i),
					Pos:      pos[i],
					Demand:   rng.Uniform(r, demandMin, demandMax),
					MoveRate: rate[i],
				},
				At:       at,
				Deadline: at + rng.Uniform(r, patienceMin, patienceMax),
			})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}
