// Package mwrsn simulates a mobile wireless rechargeable sensor network
// over virtual time: nodes move (random-waypoint mobility), drain their
// batteries sensing and transmitting, and periodically buy cooperative
// charging service scheduled by any core.Scheduler. It measures the
// long-run monetary cost of keeping the network alive and the node deaths
// each scheduling policy admits.
package mwrsn

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/eventlog"
	"repro/internal/forecast"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// NodeParams configures every sensor node.
type NodeParams struct {
	// BatteryCapacity is the battery size, joules.
	BatteryCapacity float64
	// InitialLevel is the starting charge, joules.
	InitialLevel float64
	// Consumption is the stationary power-draw model.
	Consumption energy.ConsumptionModel
	// SpeedMps is the node's travel speed, m/s.
	SpeedMps float64
	// MoveRate is the monetary travel cost, $/m.
	MoveRate float64
	// MoveEnergyPerM is the battery drain of travel, J/m.
	MoveEnergyPerM float64
}

// Config configures a simulation run.
type Config struct {
	// Field is the deployment area.
	Field geom.Rect
	// NumNodes is the number of sensor nodes.
	NumNodes int
	// Chargers are the charging service providers (static for the run).
	Chargers []core.Charger
	// Node configures all nodes.
	Node NodeParams
	// PauseSeconds is the random-waypoint pause at each destination.
	PauseSeconds float64
	// TickSeconds is the mobility/consumption integration step.
	TickSeconds float64
	// RoundSeconds is the interval between charging rounds.
	RoundSeconds float64
	// ChargeThreshold requests charging for nodes below this battery
	// fraction at a round, in (0,1).
	ChargeThreshold float64
	// Scheduler decides the cooperative schedule each round.
	Scheduler core.Scheduler
	// DurationSeconds is the simulated horizon.
	DurationSeconds float64
	// Seed drives all randomness.
	Seed int64
	// Log, when non-nil, receives structured round/charge/death events.
	Log *eventlog.Logger
	// Proactive, when true, also requests charging for nodes whose
	// battery fraction is *predicted* (Holt linear forecast over
	// round-to-round levels) to fall below ChargeThreshold by the next
	// round — heading off mid-interval deaths that a purely reactive
	// threshold admits.
	Proactive bool
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.NumNodes < 1:
		return fmt.Errorf("mwrsn: %d nodes", c.NumNodes)
	case len(c.Chargers) == 0:
		return errors.New("mwrsn: no chargers")
	case c.Node.BatteryCapacity <= 0:
		return fmt.Errorf("mwrsn: battery capacity %v", c.Node.BatteryCapacity)
	case c.Node.SpeedMps <= 0:
		return fmt.Errorf("mwrsn: speed %v", c.Node.SpeedMps)
	case c.TickSeconds <= 0:
		return fmt.Errorf("mwrsn: tick %v", c.TickSeconds)
	case c.RoundSeconds <= 0:
		return fmt.Errorf("mwrsn: round interval %v", c.RoundSeconds)
	case c.ChargeThreshold <= 0 || c.ChargeThreshold >= 1:
		return fmt.Errorf("mwrsn: charge threshold %v outside (0,1)", c.ChargeThreshold)
	case c.Scheduler == nil:
		return errors.New("mwrsn: nil scheduler")
	case c.DurationSeconds <= 0:
		return fmt.Errorf("mwrsn: duration %v", c.DurationSeconds)
	}
	return nil
}

// Metrics summarizes a run.
type Metrics struct {
	// MonetaryCost is the total comprehensive cost paid, $.
	MonetaryCost float64
	// Rounds is the number of charging rounds with at least one request.
	Rounds int
	// Sessions is the number of charging sessions (coalitions) bought.
	Sessions int
	// EnergyDelivered is the total energy stored into batteries, joules.
	EnergyDelivered float64
	// Deaths is the number of node deaths (battery hit zero).
	Deaths int
	// FirstDeathAt is the virtual time of the first death; negative when
	// every node survived.
	FirstDeathAt float64
	// MeanAliveFraction is the time-averaged fraction of alive nodes.
	MeanAliveFraction float64
}

type node struct {
	pos      geom.Point
	waypoint geom.Point
	pausesAt float64 // virtual time until which the node pauses
	battery  *energy.Battery
	alive    bool
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.Derive(cfg.Seed, "mwrsn")
	eng := sim.New()
	m := &Metrics{FirstDeathAt: -1}

	nodes := make([]*node, cfg.NumNodes)
	pts := geom.UniformPoints(r, cfg.Field, cfg.NumNodes)
	for i := range nodes {
		level := cfg.Node.InitialLevel
		if level <= 0 {
			level = cfg.Node.BatteryCapacity
		}
		b, err := energy.NewBattery(cfg.Node.BatteryCapacity, level)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nodes[i] = &node{pos: pts[i], waypoint: pts[i], battery: b, alive: true}
	}

	var aliveIntegral float64 // Σ aliveCount·dt
	kill := func(idx int, nd *node) {
		if !nd.alive {
			return
		}
		nd.alive = false
		m.Deaths++
		if m.FirstDeathAt < 0 {
			m.FirstDeathAt = eng.Now()
		}
		_ = cfg.Log.Log(eventlog.Event{
			Time: eng.Now(),
			Kind: eventlog.KindDeath,
			Node: fmt.Sprintf("node-%d", idx),
		})
	}

	tick := func() {
		for idx, nd := range nodes {
			if !nd.alive {
				continue
			}
			speed := 0.0
			if eng.Now() >= nd.pausesAt {
				if nd.pos == nd.waypoint {
					nd.waypoint = geom.UniformPoints(r, cfg.Field, 1)[0]
				}
				step := cfg.Node.SpeedMps * cfg.TickSeconds
				next := nd.pos.MoveToward(nd.waypoint, step)
				if next == nd.waypoint {
					nd.pausesAt = eng.Now() + cfg.PauseSeconds
				}
				speed = nd.pos.Dist(next) / cfg.TickSeconds
				nd.pos = next
			}
			need := cfg.Node.Consumption.Consume(cfg.TickSeconds, speed)
			if nd.battery.Drain(need) < need {
				kill(idx, nd)
			}
		}
		aliveCount := 0
		for _, nd := range nodes {
			if nd.alive {
				aliveCount++
			}
		}
		aliveIntegral += float64(aliveCount) * cfg.TickSeconds
	}

	// Per-node battery-trajectory forecasters for the proactive policy.
	predictors := make([]*forecast.Holt, cfg.NumNodes)
	for i := range predictors {
		h, err := forecast.NewHolt(0.8, 0.8)
		if err != nil {
			return nil, err
		}
		h.Observe(nodes[i].battery.Fraction())
		predictors[i] = h
	}

	round := func() error {
		needy := make([]int, 0, len(nodes))
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			frac := nd.battery.Fraction()
			predictors[i].Observe(frac)
			switch {
			case frac < cfg.ChargeThreshold:
				needy = append(needy, i)
			case cfg.Proactive && predictors[i].N() >= 2 &&
				predictors[i].Forecast(1) < cfg.ChargeThreshold:
				needy = append(needy, i)
			}
		}
		if len(needy) == 0 {
			return nil
		}
		in := &core.Instance{Field: cfg.Field, Chargers: cfg.Chargers}
		for _, i := range needy {
			in.Devices = append(in.Devices, core.Device{
				ID:       fmt.Sprintf("node-%d", i),
				Pos:      nodes[i].pos,
				Demand:   nodes[i].battery.Deficit(),
				MoveRate: cfg.Node.MoveRate,
			})
		}
		cm, err := core.NewCostModel(in)
		if err != nil {
			return fmt.Errorf("round at t=%v: %w", eng.Now(), err)
		}
		sched, err := cfg.Scheduler.Schedule(cm)
		if err != nil {
			return fmt.Errorf("round at t=%v: %w", eng.Now(), err)
		}
		m.Rounds++
		m.Sessions += len(sched.Coalitions)
		roundCost := cm.TotalCost(sched)
		m.MonetaryCost += roundCost
		_ = cfg.Log.Log(eventlog.Event{
			Time:      eng.Now(),
			Kind:      eventlog.KindRound,
			Scheduler: cfg.Scheduler.Name(),
			Cost:      roundCost,
			Devices:   len(needy),
			Sessions:  len(sched.Coalitions),
		})
		for _, coal := range sched.Coalitions {
			chPos := cfg.Chargers[coal.Charger].Pos
			for _, local := range coal.Members {
				nodeIdx := needy[local]
				nd := nodes[nodeIdx]
				travel := nd.pos.Dist(chPos) * cfg.Node.MoveEnergyPerM
				if nd.battery.Drain(travel) < travel {
					kill(nodeIdx, nd) // died en route; no charge delivered
					continue
				}
				nd.pos = chPos
				nd.waypoint = chPos
				stored := nd.battery.Charge(nd.battery.Deficit())
				m.EnergyDelivered += stored
				predictors[nodeIdx].Observe(nd.battery.Fraction())
				_ = cfg.Log.Log(eventlog.Event{
					Time:    eng.Now(),
					Kind:    eventlog.KindCharge,
					Node:    fmt.Sprintf("node-%d", nodeIdx),
					Charger: cfg.Chargers[coal.Charger].ID,
					EnergyJ: stored,
				})
			}
		}
		return nil
	}

	var (
		runErr   error
		schedule func(kind string, interval float64, fn func())
	)
	schedule = func(kind string, interval float64, fn func()) {
		if err := eng.Schedule(interval, func() {
			if runErr != nil {
				return
			}
			fn()
			if eng.Now()+interval <= cfg.DurationSeconds {
				schedule(kind, interval, fn)
			}
		}); err != nil && runErr == nil {
			runErr = err
		}
	}
	schedule("tick", cfg.TickSeconds, tick)
	schedule("round", cfg.RoundSeconds, func() {
		if err := round(); err != nil && runErr == nil {
			runErr = err
		}
	})

	eng.RunUntil(cfg.DurationSeconds)
	if runErr != nil {
		return nil, runErr
	}
	if cfg.DurationSeconds > 0 {
		m.MeanAliveFraction = aliveIntegral / (cfg.DurationSeconds * float64(cfg.NumNodes))
		if m.MeanAliveFraction > 1 {
			m.MeanAliveFraction = 1
		}
	}
	return m, nil
}
