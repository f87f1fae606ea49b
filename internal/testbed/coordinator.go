package testbed

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// Robustness defaults. A Config zero value resolves to these.
const (
	// DefaultRPCTimeout bounds each request/response leg with an agent.
	DefaultRPCTimeout = 5 * time.Second
	// DefaultHandshakeTimeout bounds a freshly accepted connection's
	// registration message.
	DefaultHandshakeTimeout = 5 * time.Second
	// DefaultMaxRetries is the number of extra attempts for idempotent
	// RPCs (status_req, bill_req) after a failed one.
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the first retry delay; it doubles per retry.
	DefaultRetryBackoff = 10 * time.Millisecond
)

// Config tunes the coordinator's failure handling. The zero value selects
// the defaults above; negative durations/counts disable the mechanism
// (no deadline, no retries) for tests that need legacy blocking behavior.
type Config struct {
	// RPCTimeout is the per-RPC read/write deadline on agent connections.
	RPCTimeout time.Duration
	// HandshakeTimeout bounds how long an accepted connection may take to
	// send its registration before being dropped (slow-loris defense).
	HandshakeTimeout time.Duration
	// MaxRetries is the number of extra attempts for idempotent RPCs.
	MaxRetries int
	// RetryBackoff is the initial backoff between retries (doubles each
	// retry); 0 selects the default.
	RetryBackoff time.Duration
	// MinQuorum is the minimum number of responsive devices
	// CollectInstance needs to proceed with a partial instance; fewer and
	// it errors. 0 selects 1 (any responsive device is enough).
	MinQuorum int
}

func (cfg Config) withDefaults() Config {
	switch {
	case cfg.RPCTimeout == 0:
		cfg.RPCTimeout = DefaultRPCTimeout
	case cfg.RPCTimeout < 0:
		cfg.RPCTimeout = 0
	}
	switch {
	case cfg.HandshakeTimeout == 0:
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	case cfg.HandshakeTimeout < 0:
		cfg.HandshakeTimeout = 0
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MinQuorum <= 0 {
		cfg.MinQuorum = 1
	}
	return cfg
}

// Coordinator is the scheduling server of the emulated testbed. Agents
// dial in and register; the coordinator then collects device status,
// builds a CCS instance from the reported (noisy) values, runs a
// scheduler, dispatches charge commands, and accounts the measured
// comprehensive cost from agent reports and charger bills.
//
// The coordinator is built to degrade gracefully under agent failure: all
// agent RPCs carry deadlines, idempotent RPCs are retried with backoff,
// unresponsive devices are excluded rather than fatal, and broken
// coalitions can be re-planned mid-execution (see ExecuteScheduleWith).
type Coordinator struct {
	ln  net.Listener
	cfg Config

	mu       sync.Mutex
	devices  map[string]*jsonConn
	chargers map[string]*jsonConn
	devOrder []string
	chOrder  []string
	chInfo   map[string]ChargerState
	pending  map[net.Conn]struct{} // accepted, not yet registered
	ready    chan struct{}         // closed when expected registrations arrive
	readyHit bool
	expected int
	shutdown bool

	acceptWG  sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewCoordinator listens on 127.0.0.1 (ephemeral port) and waits for
// expectDevices + expectChargers registrations.
func NewCoordinator(expectDevices, expectChargers int) (*Coordinator, error) {
	return NewCoordinatorListen("127.0.0.1:0", expectDevices, expectChargers)
}

// NewCoordinatorListen is NewCoordinator on an explicit listen address,
// for running the coordinator as a standalone daemon (cmd/ccsd).
func NewCoordinatorListen(addr string, expectDevices, expectChargers int) (*Coordinator, error) {
	return NewCoordinatorConfig(addr, expectDevices, expectChargers, Config{})
}

// NewCoordinatorConfig is NewCoordinatorListen with explicit failure
// handling knobs.
func NewCoordinatorConfig(addr string, expectDevices, expectChargers int, cfg Config) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("testbed: listen: %w", err)
	}
	c := &Coordinator{
		ln:       ln,
		cfg:      cfg.withDefaults(),
		devices:  make(map[string]*jsonConn),
		chargers: make(map[string]*jsonConn),
		chInfo:   make(map[string]ChargerState),
		pending:  make(map[net.Conn]struct{}),
		ready:    make(chan struct{}),
		expected: expectDevices + expectChargers,
	}
	c.acceptWG.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address for agents to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// acceptLoop accepts connections and hands each to its own handshake
// goroutine, so one client that connects and stalls cannot starve the
// registrations behind it.
func (c *Coordinator) acceptLoop() {
	defer c.acceptWG.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.shutdown {
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.pending[conn] = struct{}{}
		c.acceptWG.Add(1)
		c.mu.Unlock()
		go c.handshake(conn)
	}
}

// handshake reads one registration from a fresh connection, bounded by
// HandshakeTimeout, and either installs the agent or drops the connection.
func (c *Coordinator) handshake(conn net.Conn) {
	defer c.acceptWG.Done()
	jc := newJSONConn(conn)
	jc.timeout = c.cfg.RPCTimeout
	if ht := c.cfg.HandshakeTimeout; ht > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(ht))
	}
	msg, err := jc.recv()
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil || msg.Type != MsgRegister {
		_ = jc.send(Message{Type: MsgError, Err: "expected register"})
		c.dropPending(conn)
		_ = jc.close()
		return
	}
	if err := c.register(jc, msg); err != nil {
		_ = jc.send(Message{Type: MsgError, Err: err.Error()})
		c.dropPending(conn)
		_ = jc.close()
		return
	}
}

func (c *Coordinator) dropPending(conn net.Conn) {
	c.mu.Lock()
	delete(c.pending, conn)
	c.mu.Unlock()
}

// register installs the agent and acks it. The ack is sent while holding
// c.mu, before any other goroutine can see the connection, so the
// registered reply is guaranteed to hit the wire ahead of the first RPC
// the coordinator issues to the fresh agent.
func (c *Coordinator) register(jc *jsonConn, msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch msg.Role {
	case "device":
		if _, dup := c.devices[msg.ID]; dup {
			return fmt.Errorf("duplicate device %q", msg.ID)
		}
		c.devices[msg.ID] = jc
		c.devOrder = append(c.devOrder, msg.ID)
	case "charger":
		if _, dup := c.chargers[msg.ID]; dup {
			return fmt.Errorf("duplicate charger %q", msg.ID)
		}
		c.chargers[msg.ID] = jc
		c.chOrder = append(c.chOrder, msg.ID)
		c.chInfo[msg.ID] = ChargerState{
			ID:             msg.ID,
			Pos:            geom.Pt(msg.PosX, msg.PosY),
			Fee:            msg.Fee,
			TariffCoeff:    msg.TariffCoeff,
			TariffExponent: msg.TariffExponent,
			Efficiency:     msg.Efficiency,
		}
	default:
		return fmt.Errorf("unknown role %q", msg.Role)
	}
	delete(c.pending, jc.c)
	_ = jc.send(Message{Type: MsgRegistered, ID: msg.ID})
	if len(c.devices)+len(c.chargers) == c.expected && !c.readyHit {
		close(c.ready)
		c.readyHit = true
	}
	return nil
}

// WaitReady blocks until all expected agents registered or the timeout
// elapses.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	select {
	case <-c.ready:
		return nil
	case <-time.After(timeout):
		c.mu.Lock()
		got := len(c.devices) + len(c.chargers)
		c.mu.Unlock()
		return fmt.Errorf("testbed: only %d of %d agents registered after %v", got, c.expected, timeout)
	}
}

// WaitQuorum is WaitReady that tolerates missing agents: if the full
// population has not registered when the timeout elapses, it still
// succeeds as long as at least MinQuorum devices and one charger have —
// the session proceeds with the partial population.
func (c *Coordinator) WaitQuorum(timeout time.Duration) error {
	select {
	case <-c.ready:
		return nil
	case <-time.After(timeout):
	}
	c.mu.Lock()
	nd, nc := len(c.devices), len(c.chargers)
	c.mu.Unlock()
	if nd >= c.cfg.MinQuorum && nc >= 1 {
		return nil
	}
	return fmt.Errorf("testbed: quorum not met after %v: %d of %d min devices, %d chargers",
		timeout, nd, c.cfg.MinQuorum, nc)
}

// callRetry is jc.call with bounded retries and exponential backoff. Only
// use it for idempotent requests (status_req, bill_req); charge commands
// move a device and must not be replayed.
func (c *Coordinator) callRetry(jc *jsonConn, req Message) (Message, error) {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err := jc.call(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return Message{}, lastErr
}

// CollectInstance queries every device for its (noisy) status and builds
// the CCS instance the scheduler will solve, using charger-advertised
// parameters. Devices and chargers are indexed in lexicographic ID order
// (not registration order), which the caller must keep for
// ExecuteScheduleWith. Unresponsive devices are excluded; see
// CollectInstanceDetail for the accounting.
func (c *Coordinator) CollectInstance() (*core.Instance, error) {
	in, _, err := c.CollectInstanceDetail()
	return in, err
}

// CollectInstanceDetail is CollectInstance returning also the IDs of
// devices that failed to produce a valid status after retries. Those
// devices are excluded from the instance instead of failing the
// collection; only when fewer than MinQuorum devices respond (or no
// charger is registered) does it error.
func (c *Coordinator) CollectInstanceDetail() (*core.Instance, []string, error) {
	c.mu.Lock()
	devOrder := append([]string(nil), c.devOrder...)
	chOrder := append([]string(nil), c.chOrder...)
	c.mu.Unlock()
	sort.Strings(devOrder)
	sort.Strings(chOrder)

	in := &core.Instance{}
	var unresponsive []string
	for _, id := range devOrder {
		c.mu.Lock()
		jc := c.devices[id]
		c.mu.Unlock()
		st, err := c.callRetry(jc, Message{Type: MsgStatusReq})
		if err == nil && st.Type != MsgStatus {
			err = fmt.Errorf("testbed: device %s replied %q to status", id, st.Type)
		}
		if err != nil {
			unresponsive = append(unresponsive, id)
			continue
		}
		in.Devices = append(in.Devices, core.Device{
			ID:       id,
			Pos:      geom.Pt(st.PosX, st.PosY),
			Demand:   st.DemandJ,
			MoveRate: st.MoveRate,
		})
	}
	for _, id := range chOrder {
		c.mu.Lock()
		info := c.chInfo[id]
		c.mu.Unlock()
		in.Chargers = append(in.Chargers, core.Charger{
			ID:  id,
			Pos: info.Pos,
			Fee: info.Fee,
			Tariff: pricing.PowerLaw{
				Coeff:    info.TariffCoeff,
				Exponent: info.TariffExponent,
			},
			Efficiency: info.Efficiency,
		})
	}
	if len(in.Devices) == 0 || len(in.Chargers) == 0 {
		return nil, unresponsive, errors.New("testbed: no responsive devices or no registered chargers")
	}
	if len(in.Devices) < c.cfg.MinQuorum {
		return nil, unresponsive, fmt.Errorf("testbed: only %d of %d quorum devices responsive (unresponsive: %v)",
			len(in.Devices), c.cfg.MinQuorum, unresponsive)
	}
	return in, unresponsive, nil
}

// ExecutionReport is the measured outcome of running a schedule on the
// testbed.
type ExecutionReport struct {
	// MeasuredCost is the comprehensive cost accounted from agent
	// measurements: charger bills plus odometer distance × move rate.
	MeasuredCost float64
	// MovingCost and ChargingCost break MeasuredCost down.
	MovingCost   float64
	ChargingCost float64
	// Sessions is the number of billed sessions.
	Sessions int
	// EnergyStored is the total energy devices reported storing, joules.
	EnergyStored float64
	// Failed lists agents (devices and chargers) that failed mid-execution
	// — a device that did not complete its charge command, a charger that
	// could not be billed — in execution order. Their contribution is
	// missing from the cost figures above: the report is a partial result.
	Failed []string
	// Rescheduled counts the coalition memberships re-planned after a
	// coalition lost a member mid-execution (see ExecuteScheduleWith).
	Rescheduled int
}

// markFailed records id once, even when the same agent (a charger serving
// several coalitions) fails repeatedly.
func (r *ExecutionReport) markFailed(id string) {
	for _, f := range r.Failed {
		if f == id {
			return
		}
	}
	r.Failed = append(r.Failed, id)
}

// ExecuteScheduleWith dispatches the schedule: every coalition member is
// commanded to travel to its charger and charge; the charger bills the
// session on the total measured purchased energy. Failed agents are
// recorded in the report's Failed list instead of aborting the run.
// When a coalition member fails its charge command, the coalition's
// economics (the fee amortized across members) are broken, so the
// not-yet-commanded members are pulled out and rescheduled onto resched
// over the full charger set. Rescheduling repeats until a round completes
// without breaking a coalition. With a nil resched, survivors are
// executed as originally planned. The returned report is a valid partial
// accounting even when some agents failed (err stays nil; see
// ExecutionReport.Failed); err is non-nil only for internal faults such
// as a schedule referencing unknown agents or resched itself failing.
func (c *Coordinator) ExecuteScheduleWith(in *core.Instance, sched *core.Schedule, resched core.Scheduler) (*ExecutionReport, error) {
	rep := &ExecutionReport{}
	defer func() { rep.MeasuredCost = rep.MovingCost + rep.ChargingCost }()
	curIn, cur := in, sched
	for round := 0; ; round++ {
		if round > len(in.Devices) {
			return rep, errors.New("testbed: rescheduling did not converge")
		}
		deferred, err := c.executeRound(curIn, cur, resched != nil, rep)
		if err != nil {
			return rep, err
		}
		if len(deferred) == 0 {
			return rep, nil
		}
		rep.Rescheduled += len(deferred)
		subIn := &core.Instance{Field: in.Field, Devices: deferred, Chargers: in.Chargers}
		cm, err := core.NewCostModel(subIn)
		if err != nil {
			return rep, fmt.Errorf("testbed: reschedule instance: %w", err)
		}
		next, err := resched.Schedule(cm)
		if err != nil {
			return rep, fmt.Errorf("testbed: reschedule %s: %w", resched.Name(), err)
		}
		if err := next.Validate(len(subIn.Devices), len(subIn.Chargers)); err != nil {
			return rep, fmt.Errorf("testbed: reschedule %s produced invalid schedule: %w", resched.Name(), err)
		}
		curIn, cur = subIn, next
	}
}

// executeRound runs one schedule over one instance, accumulating into
// rep. When deferOnBreak is set, members of a coalition that lost an
// earlier member are not commanded; they are returned for rescheduling.
func (c *Coordinator) executeRound(in *core.Instance, sched *core.Schedule, deferOnBreak bool, rep *ExecutionReport) ([]core.Device, error) {
	var deferred []core.Device
	for _, coal := range sched.Coalitions {
		ch := in.Chargers[coal.Charger]
		var purchased float64
		charged := 0
		broken := false
		for _, di := range coal.Members {
			dev := in.Devices[di]
			if broken && deferOnBreak {
				deferred = append(deferred, dev)
				continue
			}
			c.mu.Lock()
			jc, ok := c.devices[dev.ID]
			c.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("testbed: unknown device %q in schedule", dev.ID)
			}
			// Charge commands are not idempotent (they move the device):
			// one attempt, bounded by the RPC deadline.
			done, err := jc.call(Message{
				Type:    MsgChargeCmd,
				TargetX: ch.Pos.X,
				TargetY: ch.Pos.Y,
			})
			if err == nil && done.Type != MsgChargeDone {
				err = fmt.Errorf("replied %q", done.Type)
			}
			if err != nil {
				rep.markFailed(dev.ID)
				broken = true
				continue
			}
			rep.MovingCost += done.DistanceM * dev.MoveRate
			rep.EnergyStored += done.StoredJ
			purchased += done.StoredJ / ch.Efficiency
			charged++
		}
		if charged == 0 {
			continue // nobody reached the charger; no session to bill
		}
		c.mu.Lock()
		jc, ok := c.chargers[ch.ID]
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("testbed: unknown charger %q in schedule", ch.ID)
		}
		bill, err := c.callRetry(jc, Message{Type: MsgBillReq, PurchasedJ: purchased})
		if err == nil && bill.Type != MsgBill {
			err = fmt.Errorf("replied %q", bill.Type)
		}
		if err != nil {
			// The energy was delivered but cannot be billed; the charger is
			// reported failed and the session's charging cost is missing
			// from the (partial) report.
			rep.markFailed(ch.ID)
			continue
		}
		rep.ChargingCost += bill.AmountUSD
		rep.Sessions++
	}
	return deferred, nil
}

// Close stops accepting, closes every agent and pending connection, and
// waits for the accept and handshake goroutines. Safe to call more than
// once; later calls return the first result.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.ln.Close()
		c.mu.Lock()
		c.shutdown = true
		for _, jc := range c.devices {
			_ = jc.close()
		}
		for _, jc := range c.chargers {
			_ = jc.close()
		}
		for conn := range c.pending {
			_ = conn.Close()
		}
		c.mu.Unlock()
		c.acceptWG.Wait()
	})
	return c.closeErr
}
