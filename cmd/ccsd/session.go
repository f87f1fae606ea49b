// This file implements the stateful half of -serve: sessions. A client
// registers an instance once and then streams deltas — device joined,
// device left, demand changed, tariff changed — against a session ID.
// Each delta batch maps onto the O(m) CostModel patches and a warm
// re-solve seeded from the session's persistent WarmStart carrier, so
// the service never pays a full instance decode or a cold solve for an
// incremental change. Sessions live in a server-wide LRU (capacity
// -max-sessions) with idle expiry (-session-idle-timeout); evicted or
// expired IDs answer {"error":"unknown session"} and the client
// re-registers.
//
// Delta batches apply sequentially and stop at the first failure: the
// ops before it remain applied (the client knows exactly which prefix
// took effect from the error's op index), the failing op is rolled into
// the error, and no re-solve happens.

package main

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/instcache"
)

// Delta op names (JSON) and codes (binary frames).
const (
	opJoin   = "join"
	opLeave  = "leave"
	opDemand = "demand"
	opTariff = "tariff"
)

// sessionDelta is one delta operation, in the JSON request form. The
// binary protocol decodes its compact op encoding into the same struct,
// so both transports share one apply path.
type sessionDelta struct {
	// Op is "join" | "leave" | "demand" | "tariff".
	Op string `json:"op"`
	// Device is the joining device (op "join").
	Device *gen.DeviceDTO `json:"device,omitempty"`
	// ID names the target device (ops "leave" and "demand").
	ID string `json:"id,omitempty"`
	// Demand is the new demand in joules (op "demand").
	Demand float64 `json:"demandJ,omitempty"`
	// Charger names the target charger (op "tariff").
	Charger string `json:"charger,omitempty"`
	// Tariff is the replacement tariff (op "tariff").
	Tariff *gen.TariffDTO `json:"tariff,omitempty"`
}

// session is one registered instance plus the warm-start state that
// carries its equilibrium from solve to solve. The mutex serializes
// delta batches; the cost model and carrier are never shared across
// sessions.
type session struct {
	id        uint64
	schedName string
	sched     core.RepairScheduler
	// rs arms the incremental dirty-set repair path: delta solves repair
	// the primed equilibrium over the slots the batch dirtied instead of
	// re-running the full warm dynamics. Nil when repair is off, which
	// makes every solve the full warm path.
	rs *core.RepairState

	mu       sync.Mutex
	cm       *core.CostModel
	ws       *core.WarmStart
	devIndex map[string]int // device ID → index in cm's instance
	chIndex  map[string]int // charger ID → index (chargers never move)

	// Tick batching (-tick > 0): deltas arriving within the window join
	// the pending group and share its solve. tickMu only guards pending —
	// never held across a solve or with mu.
	tickMu  sync.Mutex
	pending *tickGroup
}

// tickGroup is one batching window's worth of deltas: the first arrival
// becomes the leader, sleeps out the window while followers append, then
// applies the coalesced batch in one repair and shares the response.
type tickGroup struct {
	deltas []sessionDelta
	done   chan struct{} // closed once resp is populated
	resp   solveResponse
}

// apply performs one delta op on the locked session. Errors name the op
// and leave the model untouched for that op (earlier ops in the batch
// stay applied).
func (sess *session) apply(d sessionDelta) error {
	switch d.Op {
	case opJoin:
		if d.Device == nil {
			return fmt.Errorf("join: missing device")
		}
		if _, dup := sess.devIndex[d.Device.ID]; dup {
			return fmt.Errorf("join: device %q already in session", d.Device.ID)
		}
		dev := core.Device{
			ID:       d.Device.ID,
			Pos:      geom.Pt(d.Device.X, d.Device.Y),
			Demand:   d.Device.Demand,
			MoveRate: d.Device.MoveRate,
		}
		if err := sess.cm.AddDevice(dev); err != nil {
			return fmt.Errorf("join: %v", err)
		}
		sess.devIndex[dev.ID] = sess.cm.NumDevices() - 1
	case opLeave:
		i, ok := sess.devIndex[d.ID]
		if !ok {
			return fmt.Errorf("leave: unknown device %q", d.ID)
		}
		if err := sess.cm.RemoveDevice(i); err != nil {
			return fmt.Errorf("leave: %v", err)
		}
		delete(sess.devIndex, d.ID)
		// RemoveDevice shifted devices i.. down one slot; re-point just
		// that suffix (cheaper than sweeping the whole index map).
		devs := sess.cm.Instance().Devices
		for j := i; j < len(devs); j++ {
			sess.devIndex[devs[j].ID] = j
		}
	case opDemand:
		i, ok := sess.devIndex[d.ID]
		if !ok {
			return fmt.Errorf("demand: unknown device %q", d.ID)
		}
		dev := sess.cm.Instance().Devices[i]
		dev.Demand = d.Demand
		if err := sess.cm.UpdateDevice(i, dev); err != nil {
			return fmt.Errorf("demand: %v", err)
		}
	case opTariff:
		j, ok := sess.chIndex[d.Charger]
		if !ok {
			return fmt.Errorf("tariff: unknown charger %q", d.Charger)
		}
		if d.Tariff == nil {
			return fmt.Errorf("tariff: missing tariff")
		}
		tf, err := gen.DecodeTariff(*d.Tariff)
		if err != nil {
			return fmt.Errorf("tariff: %v", err)
		}
		if err := sess.cm.SetTariff(j, tf); err != nil {
			return fmt.Errorf("tariff: %v", err)
		}
	default:
		return fmt.Errorf("unknown delta op %q", d.Op)
	}
	return nil
}

// sessionManager owns every live session: a bounded LRU keyed by
// session ID with lazy idle expiry. All methods are safe for concurrent
// use; the manager's lock is never held across a solve (sessions carry
// their own mutex for that).
type sessionManager struct {
	mu       sync.Mutex
	byID     map[uint64]*list.Element // element value is *sessionEntry
	lru      *list.List               // front = most recently used
	max      int                      // 0 disables the session protocol
	ttl      time.Duration            // 0 = never expire
	now      func() time.Time         // injectable clock for expiry tests
	counter  uint64                   // registrations, feeds SessionID
	evictLRU atomic.Uint64
	evictTTL atomic.Uint64
}

type sessionEntry struct {
	sess     *session
	lastSeen time.Time
}

func newSessionManager(max int, ttl time.Duration) *sessionManager {
	return &sessionManager{
		byID: make(map[uint64]*list.Element),
		lru:  list.New(),
		max:  max,
		ttl:  ttl,
		now:  time.Now,
	}
}

// active reports the live session count (expired-but-unswept sessions
// included; they vanish at the next lookup or register).
func (m *sessionManager) active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

func (m *sessionManager) registered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counter
}

// add mints an ID for sess, inserts it most-recently-used, and evicts —
// idle sessions first, then the LRU tail if still over capacity.
func (m *sessionManager) add(sess *session, sum [32]byte) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if m.ttl > 0 {
		// Sweep from the cold end; stop at the first fresh entry.
		for e := m.lru.Back(); e != nil; {
			ent := e.Value.(*sessionEntry)
			if now.Sub(ent.lastSeen) <= m.ttl {
				break
			}
			prev := e.Prev()
			m.lru.Remove(e)
			delete(m.byID, ent.sess.id)
			m.evictTTL.Add(1)
			e = prev
		}
	}
	m.counter++
	sess.id = instcache.SessionID(sum, m.counter)
	for {
		if _, taken := m.byID[sess.id]; !taken {
			break
		}
		sess.id++ // astronomically unlikely; IDs just need uniqueness
		if sess.id == 0 {
			sess.id = 1
		}
	}
	m.byID[sess.id] = m.lru.PushFront(&sessionEntry{sess: sess, lastSeen: now})
	for m.lru.Len() > m.max {
		tail := m.lru.Back()
		m.lru.Remove(tail)
		delete(m.byID, tail.Value.(*sessionEntry).sess.id)
		m.evictLRU.Add(1)
	}
	return sess.id
}

// lookup returns the session for id, touching its recency, or nil when
// the ID is unknown, evicted, or idle-expired (expiry is lazy: the
// first lookup past the TTL removes the session and misses).
func (m *sessionManager) lookup(id uint64) *session {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok {
		return nil
	}
	ent := e.Value.(*sessionEntry)
	now := m.now()
	if m.ttl > 0 && now.Sub(ent.lastSeen) > m.ttl {
		m.lru.Remove(e)
		delete(m.byID, id)
		m.evictTTL.Add(1)
		return nil
	}
	ent.lastSeen = now
	m.lru.MoveToFront(e)
	return ent.sess
}

// remove drops a session (client close). Unknown IDs are fine: closing
// an evicted session is a no-op, not an error.
func (m *sessionManager) remove(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.byID[id]; ok {
		m.lru.Remove(e)
		delete(m.byID, id)
	}
}

// registerSession builds a session from a register request: decode the
// instance, solve it warm (the first solve seeds every device
// standalone, like the cold path), and store the session. The returned
// response carries the session ID and the initial schedule.
func (s *solveServer) registerSession(req solveRequest) solveResponse {
	if s.sessions == nil || s.sessions.max <= 0 {
		return solveResponse{Err: "session protocol disabled (-max-sessions 0)"}
	}
	if len(req.Instance) == 0 {
		return solveResponse{Err: "register request has no instance"}
	}
	name := req.Scheduler
	if name == "" {
		name = "CCSGA"
	}
	sched, err := schedulerByName(name)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	rsched, ok := sched.(core.RepairScheduler)
	if !ok {
		return solveResponse{Err: fmt.Sprintf("scheduler %q does not support sessions (use CCSGA)", name)}
	}
	in, err := gen.DecodeInstance(req.Instance)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	// The delta vocabulary and the WarmStart carrier address agents by
	// ID, so a session instance must not reuse them.
	devIndex := make(map[string]int, len(in.Devices))
	for i, d := range in.Devices {
		if _, dup := devIndex[d.ID]; dup {
			return solveResponse{Err: fmt.Sprintf("duplicate device ID %q in session instance", d.ID)}
		}
		devIndex[d.ID] = i
	}
	chIndex := make(map[string]int, len(in.Chargers))
	for j, c := range in.Chargers {
		if _, dup := chIndex[c.ID]; dup {
			return solveResponse{Err: fmt.Sprintf("duplicate charger ID %q in session instance", c.ID)}
		}
		chIndex[c.ID] = j
	}
	sum, err := instcache.Fingerprint(in)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	sess := &session{
		schedName: name,
		sched:     rsched,
		cm:        cm,
		ws:        core.NewWarmStart(),
		devIndex:  devIndex,
		chIndex:   chIndex,
	}
	if !s.noRepair {
		// Arm the repair path: the unprimed first solve runs exactly the
		// warm path (byte-identical response) and primes the state, so
		// every later delta solve can repair incrementally.
		sess.rs = core.NewRepairState()
	}
	res, err := rsched.ScheduleRepair(cm, sess.ws, sess.rs)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	id := s.sessions.add(sess, sum)
	resp := renderSchedule(cm, res)
	resp.Session = id
	return resp
}

// deltaSolve applies a delta batch to a live session and re-solves from
// the session's carrier — incrementally repairing the primed equilibrium
// when the session's scheduler supports it, full warm dynamics
// otherwise. This is the hot path the protocol exists for: O(m) patches
// plus a frontier-local repair, no instance decode, no cold start.
//
// With -tick > 0 batches arriving within one window coalesce: the first
// request leads (sleeps out the window, applies the combined batch, and
// solves once), later requests append their deltas and wait for the
// shared response. A coalesced batch keeps the sequential-apply error
// contract, but the op index in an error refers to the combined batch.
func (s *solveServer) deltaSolve(req solveRequest) solveResponse {
	sess := s.sessions.lookup(req.Session)
	if sess == nil {
		s.unknownSession.Add(1)
		return solveResponse{Err: "unknown session"}
	}
	if s.tick <= 0 {
		return s.applyAndSolve(sess, req.Deltas)
	}
	sess.tickMu.Lock()
	if g := sess.pending; g != nil {
		g.deltas = append(g.deltas, req.Deltas...)
		sess.tickMu.Unlock()
		<-g.done
		return g.resp
	}
	g := &tickGroup{done: make(chan struct{})}
	g.deltas = append(g.deltas, req.Deltas...)
	sess.pending = g
	sess.tickMu.Unlock()
	time.Sleep(s.tick)
	sess.tickMu.Lock()
	sess.pending = nil
	sess.tickMu.Unlock()
	g.resp = s.applyAndSolve(sess, g.deltas)
	close(g.done)
	return g.resp
}

// applyAndSolve is the delta hot path under the session lock: apply the
// batch sequentially, then repair (or warm re-solve) and account.
func (s *solveServer) applyAndSolve(sess *session, deltas []sessionDelta) solveResponse {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for k, d := range deltas {
		if err := sess.apply(d); err != nil {
			return solveResponse{Session: sess.id,
				Err: fmt.Sprintf("delta %d: %v (earlier deltas in the batch remain applied)", k, err)}
		}
	}
	if sess.cm.NumDevices() == 0 {
		return solveResponse{Session: sess.id, Err: "session has no devices; join one or close the session"}
	}
	start := time.Now()
	if s.solveDelay > 0 {
		time.Sleep(s.solveDelay) // test hook, mirrors the stateless path
	}
	res, err := sess.sched.ScheduleRepair(sess.cm, sess.ws, sess.rs)
	if err != nil {
		return solveResponse{Session: sess.id, Err: err.Error()}
	}
	s.deltaSolves.Add(1)
	if res.Repaired {
		s.repairSolves.Add(1)
		s.met.repairFrontier.Observe(float64(res.FrontierDevices))
	} else if res.FallbackReason != "" {
		s.repairFallbacks.Add(1)
	}
	if s.metricsOn || s.slowSolve > 0 {
		elapsed := time.Since(start)
		if h, ok := s.met.deltaSolveSec[sess.schedName]; ok {
			h.Observe(elapsed.Seconds())
		}
		if res.Repaired {
			s.met.repairSolveSec.Observe(elapsed.Seconds())
		}
		if s.slowSolve > 0 && elapsed >= s.slowSolve {
			s.log.Event("slow_delta_solve", "scheduler", sess.schedName, "session", sess.id, "elapsed", elapsed)
		}
	}
	resp := renderSchedule(sess.cm, res)
	resp.Session = sess.id
	return resp
}

// closeSession ends a session. Closing an already-evicted (or never
// registered) ID succeeds: the client's goal — the session is gone — is
// met either way.
func (s *solveServer) closeSession(req solveRequest) solveResponse {
	if s.sessions != nil {
		s.sessions.remove(req.Session)
	}
	return solveResponse{Session: req.Session, Closed: true}
}

// renderSchedule converts a warm solve result to the response form: cost,
// coalition membership by agent ID, and the convergence diagnostics the
// equivalence tests assert on.
func renderSchedule(cm *core.CostModel, res *core.CCSGAResult) solveResponse {
	in := cm.Instance()
	resp := solveResponse{
		Cost:     cm.TotalCost(res.Schedule),
		Sessions: len(res.Schedule.Coalitions),
		Passes:   res.Passes,
		Switches: res.Switches,
		Nash:     res.NashStable,
		Repaired: res.Repaired,
	}
	for _, c := range res.Schedule.Coalitions {
		cj := coalitionJSON{Charger: in.Chargers[c.Charger].ID}
		for _, i := range c.Members {
			cj.Devices = append(cj.Devices, in.Devices[i].ID)
		}
		resp.Coalitions = append(resp.Coalitions, cj)
	}
	return resp
}
