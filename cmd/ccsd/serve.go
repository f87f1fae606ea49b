// This file implements ccsd's -serve mode: a stateless solve service.
// Clients send newline-delimited JSON requests carrying an instance (the
// cmd/ccsgen wire format) and a scheduler name, and receive the solved
// schedule and its cost. Repeated instances — the common case when a
// fleet of coordinators polls with unchanged populations — are answered
// from a fingerprint-keyed LRU cache, and concurrent duplicate requests
// collapse into a single solve.
//
// Operationally the service is hardened and observable: every read error
// is accounted (an oversized request gets a final error line instead of
// a silent hangup), idle connections are reaped by -conn-idle-timeout,
// SIGINT/SIGTERM drains in-flight solves before the summary prints, and
// -metrics-addr exposes /metrics (Prometheus text), /healthz and
// net/http/pprof on an HTTP sidecar. That connection lifecycle lives in
// internal/netserve, shared with ccsrouter; this file answers requests.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instcache"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/shard"
)

// maxRequestBytes bounds one request line or frame payload.
const maxRequestBytes = netserve.MaxRequestBytes

// schedulerNames lists every scheduler the service accepts, in the
// table order used across the repo.
var schedulerNames = []string{"NONCOOP", "CCSGA", "CCSA", "OPT"}

// schedulerByName resolves the table label used by every ccsd mode.
func schedulerByName(name string) (core.Scheduler, error) {
	switch name {
	case "NONCOOP":
		return core.NoncoopScheduler{}, nil
	case "CCSGA":
		return core.CCSGAScheduler{}, nil
	case "CCSA":
		return core.CCSAScheduler{}, nil
	case "OPT":
		return core.OptimalScheduler{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// solveRequest is one line from a client: a stateless solve, a stats
// query, or one of the session-protocol verbs (register / delta /
// close — see session.go).
type solveRequest struct {
	// Instance is a cmd/ccsgen-format instance JSON object.
	Instance json.RawMessage `json:"instance,omitempty"`
	// Scheduler names the algorithm (NONCOOP | CCSGA | CCSA | OPT);
	// empty means CCSA (or CCSGA for a register).
	Scheduler string `json:"scheduler,omitempty"`
	// Stats requests the service counters instead of a solve.
	Stats bool `json:"stats,omitempty"`
	// Register opens a session for Instance; the response carries the
	// session ID and the initial schedule.
	Register bool `json:"register,omitempty"`
	// Session targets a registered session (with Deltas or Close).
	Session uint64 `json:"session,omitempty"`
	// Deltas is the batch of incremental changes to apply before the
	// warm re-solve.
	Deltas []sessionDelta `json:"deltas,omitempty"`
	// Close ends the session named by Session.
	Close bool `json:"close,omitempty"`

	// decoded is the instance of a solve line the one-pass scanner
	// decoded (not yet validated); Instance is then empty.
	decoded *core.Instance
	// reply is the connection's reply memory the response is built and
	// rendered in; nil builds it in fresh memory.
	reply *replyBuf
}

// parseLine decodes one request line. A plain solve line is scanned in
// one pass by gen.ScanSolveRequest; every other line, and any solve line
// outside the scanner's grammar, goes through parseLineReference, which
// yields the same request whenever the scanner would have accepted it.
func parseLine(line []byte) (solveRequest, error) {
	if in, name, ok := gen.ScanSolveRequest(line); ok {
		return solveRequest{Scheduler: name, decoded: in}, nil
	}
	return parseLineReference(line)
}

// parseLineReference is the encoding/json request decoder.
func parseLineReference(line []byte) (solveRequest, error) {
	var req solveRequest
	err := json.Unmarshal(line, &req)
	return req, err
}

// hasInstance reports whether the request carries an instance.
func (r solveRequest) hasInstance() bool {
	return r.decoded != nil || len(r.Instance) > 0
}

// coalitionJSON reports one charging session by agent IDs.
type coalitionJSON struct {
	Charger string   `json:"charger"`
	Devices []string `json:"devices"`
}

// serviceStats reports the service counters: both cache tiers plus the
// request totals and session-protocol counters.
type serviceStats struct {
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Raw is the byte tier (rendered responses keyed by raw request
	// hash); Solutions is the canonical-fingerprint solution cache.
	Raw       instcache.Stats `json:"raw"`
	Solutions instcache.Stats `json:"solutions"`
	// Sessions reports the session-protocol counters (nil when the
	// protocol is disabled).
	Sessions *sessionStats `json:"sessionProtocol,omitempty"`
}

// sessionStats is the session-protocol slice of serviceStats.
type sessionStats struct {
	Active      int    `json:"active"`
	Registered  uint64 `json:"registered"`
	DeltaSolves uint64 `json:"deltaSolves"`
	// RepairSolves counts delta solves answered by the incremental
	// repair path; RepairFallbacks counts primed repairs that fell back
	// to the full warm dynamics.
	RepairSolves    uint64 `json:"repairSolves"`
	RepairFallbacks uint64 `json:"repairFallbacks"`
	EvictedLRU      uint64 `json:"evictedLRU"`
	EvictedIdle     uint64 `json:"evictedIdle"`
	Unknown         uint64 `json:"unknownSession"`
}

// solveResponse is one line back to the client.
type solveResponse struct {
	Cost       float64         `json:"cost,omitempty"`
	Sessions   int             `json:"sessions,omitempty"`
	Coalitions []coalitionJSON `json:"coalitions,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Stats      *serviceStats   `json:"stats,omitempty"`
	// Session-protocol fields: the session ID, the warm solve's
	// convergence diagnostics, and the close acknowledgement. Repaired
	// reports that the solve came from the incremental dirty-set repair
	// path (register responses and full warm solves omit it).
	Session  uint64 `json:"session,omitempty"`
	Passes   int    `json:"passes,omitempty"`
	Switches int    `json:"switches,omitempty"`
	Nash     bool   `json:"nash,omitempty"`
	Repaired bool   `json:"repaired,omitempty"`
	Closed   bool   `json:"closed,omitempty"`
	Err      string `json:"error,omitempty"`

	// line is a stateless solve's reply, already rendered, and entry its
	// raw-tier entry (nil with caching off); respond sends line instead
	// of rendering the fields above.
	line, entry []byte
}

// serveMetrics holds the service's obs instruments. Every field is
// nil-safe (obs instruments no-op on nil), so with metrics disabled the
// struct is all-nil and updates cost one nil check each.
type serveMetrics struct {
	// solveSec is the per-scheduler service latency histogram over the
	// decode+solve path, the render of a stateless solve's reply included
	// (raw-tier byte replays are too fast to matter and skip it).
	solveSec map[string]*obs.Histogram
	// deltaSolveSec is the per-scheduler latency histogram over the
	// session delta path (apply patches + warm re-solve).
	deltaSolveSec map[string]*obs.Histogram
	// repairSolveSec is the latency histogram over delta solves answered
	// by the incremental repair path (a subset of deltaSolveSec);
	// repairFrontier is the distribution of devices each repair fully
	// re-evaluated.
	repairSolveSec *obs.Histogram
	repairFrontier *obs.Histogram
}

// serveOpts configures a solveServer.
type serveOpts struct {
	// cacheSize is the per-tier LRU capacity; 0 disables caching.
	cacheSize int
	// idleTimeout closes a connection that sends no request for this
	// long; 0 disables the deadline.
	idleTimeout time.Duration
	// slowSolve logs a slow_solve event for any request served slower
	// than this; 0 disables the log.
	slowSolve time.Duration
	// maxSessions caps live sessions (LRU-evicted beyond it); 0 disables
	// the session protocol.
	maxSessions int
	// sessionTTL expires a session idle for this long; 0 disables
	// expiry.
	sessionTTL time.Duration
	// tick, when > 0, batches session delta requests: deltas arriving
	// within one window coalesce into a single repair per session.
	tick time.Duration
	// noRepair disables the incremental repair path (every delta solve
	// runs the full warm dynamics) — a benchmarking/bisection switch.
	noRepair bool
	// shard, when CellSize > 0, routes one-shot solves by warm-capable
	// schedulers through internal/shard so large instances solve
	// cell-parallel server-side. The zero value leaves the whole-field
	// path byte-identical to a server without the option.
	shard shard.Config
	// reg, when non-nil, turns the metrics instruments on.
	reg *obs.Registry
	// log receives operational events (slow solves, dropped
	// connections); nil discards them.
	log *obs.EventLogger
}

// solveServer handles solve requests; safe for concurrent connections.
// Caching is two-tier: raw answers rendered responses for byte-identical
// repeat requests without decoding anything, and cache holds the same
// rendered replies under the canonical instance fingerprint (catching
// re-encoded duplicates and collapsing concurrent solves).
type solveServer struct {
	// Server runs the connection lifecycle (internal/netserve): accept,
	// protocol sniff, line loop, read-failure accounting and drain.
	*netserve.Server

	raw      *instcache.ByteCache // nil when caching is disabled
	cache    *instcache.Cache     // nil when caching is disabled
	sessions *sessionManager      // nil when the session protocol is disabled
	requests atomic.Uint64
	failures atomic.Uint64
	// deltaSolves counts session delta requests that reached a re-solve;
	// repairSolves counts the subset answered incrementally and
	// repairFallbacks the primed repairs that had to fall back to the
	// full warm path; unknownSession counts delta/stat misses on dead
	// IDs.
	deltaSolves     atomic.Uint64
	repairSolves    atomic.Uint64
	repairFallbacks atomic.Uint64
	unknownSession  atomic.Uint64
	slowSolve       time.Duration
	tick            time.Duration
	noRepair        bool
	log             *obs.EventLogger
	met             serveMetrics
	metricsOn       bool

	// shard is the server-side sharding geometry (CellSize 0 = off).
	shard shard.Config

	// solveDelay stretches every solve — a test hook for exercising the
	// drain path deterministically. Never set in production.
	solveDelay time.Duration
}

// newSolveServer builds a server; opts.cacheSize 0 disables caching.
func newSolveServer(opts serveOpts) (*solveServer, error) {
	s := &solveServer{
		slowSolve: opts.slowSolve,
		tick:      opts.tick,
		noRepair:  opts.noRepair,
		log:       opts.log,
	}
	if opts.tick < 0 {
		return nil, fmt.Errorf("tick %v < 0", opts.tick)
	}
	if opts.cacheSize > 0 {
		c, err := instcache.New(opts.cacheSize)
		if err != nil {
			return nil, err
		}
		raw, err := instcache.NewBytes(opts.cacheSize)
		if err != nil {
			return nil, err
		}
		s.cache, s.raw = c, raw
	} else if opts.cacheSize < 0 {
		return nil, fmt.Errorf("cache size %d < 0", opts.cacheSize)
	}
	if opts.maxSessions < 0 {
		return nil, fmt.Errorf("max sessions %d < 0", opts.maxSessions)
	}
	if opts.maxSessions > 0 {
		s.sessions = newSessionManager(opts.maxSessions, opts.sessionTTL)
	}
	if c := opts.shard; c.CellSize != 0 {
		switch {
		case c.CellSize < 0 || math.IsNaN(c.CellSize) || math.IsInf(c.CellSize, 0):
			return nil, fmt.Errorf("shard cell size %v invalid (need > 0, or 0 to disable)", c.CellSize)
		case c.Overlap < 0 || math.IsNaN(c.Overlap) || math.IsInf(c.Overlap, 0):
			return nil, fmt.Errorf("shard overlap %v invalid (need >= 0)", c.Overlap)
		}
		s.shard = c
	}
	s.Server = netserve.New(netserve.Config{
		Name:        "ccsd",
		Reg:         opts.reg,
		Log:         opts.log,
		IdleTimeout: opts.idleTimeout,
		Requests:    &s.requests,
		Failures:    &s.failures,
		Lines: func() func([]byte) []byte {
			rb := newReplyBuf()
			return func(line []byte) []byte { return s.answerLine(rb, line) }
		},
		Binary: s.serveBinary,
	})
	s.register(opts.reg)
	return s, nil
}

// register wires the service's instruments into reg (no-op on nil).
func (s *solveServer) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.metricsOn = true
	reg.CounterFunc("ccsd_requests_total", func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("ccsd_request_failures_total", func() float64 { return float64(s.failures.Load()) })
	s.met.solveSec = make(map[string]*obs.Histogram, len(schedulerNames))
	for _, name := range schedulerNames {
		s.met.solveSec[name] = reg.Histogram("ccsd_solve_seconds", obs.DefaultLatencyBuckets, "scheduler", name)
	}
	if s.sessions != nil {
		reg.GaugeFunc("ccsd_sessions_active", func() float64 { return float64(s.sessions.active()) })
		reg.CounterFunc("ccsd_sessions_registered_total", func() float64 { return float64(s.sessions.registered()) })
		reg.CounterFunc("ccsd_session_evictions_total", func() float64 { return float64(s.sessions.evictLRU.Load()) }, "reason", "lru")
		reg.CounterFunc("ccsd_session_evictions_total", func() float64 { return float64(s.sessions.evictTTL.Load()) }, "reason", "idle")
		reg.CounterFunc("ccsd_unknown_session_total", func() float64 { return float64(s.unknownSession.Load()) })
		reg.CounterFunc("ccsd_delta_solves_total", func() float64 { return float64(s.deltaSolves.Load()) })
		reg.CounterFunc("ccsd_repair_solves_total", func() float64 { return float64(s.repairSolves.Load()) })
		reg.CounterFunc("ccsd_repair_fallbacks_total", func() float64 { return float64(s.repairFallbacks.Load()) })
		s.met.repairSolveSec = reg.Histogram("ccsd_repair_solve_seconds", obs.DefaultLatencyBuckets)
		s.met.repairFrontier = reg.Histogram("ccsd_repair_frontier_devices",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384})
		s.met.deltaSolveSec = make(map[string]*obs.Histogram, len(schedulerNames))
		for _, name := range schedulerNames {
			if sched, err := schedulerByName(name); err == nil {
				if _, warm := sched.(core.RepairScheduler); warm {
					s.met.deltaSolveSec[name] = reg.Histogram("ccsd_delta_solve_seconds", obs.DefaultLatencyBuckets, "scheduler", name)
				}
			}
		}
	}
	if s.cache == nil {
		return
	}
	// Cache-tier counters are sourced from the existing instcache.Stats
	// snapshots at scrape time — the caches stay the single source of
	// truth and the hot path pays nothing extra.
	for tier, stats := range map[string]func() instcache.Stats{
		"raw":       s.raw.Stats,
		"solutions": s.cache.Stats,
	} {
		tier, stats := tier, stats
		reg.CounterFunc("ccsd_cache_hits_total", func() float64 { return float64(stats().Hits) }, "tier", tier)
		reg.CounterFunc("ccsd_cache_misses_total", func() float64 { return float64(stats().Misses) }, "tier", tier)
		reg.CounterFunc("ccsd_cache_evictions_total", func() float64 { return float64(stats().Evictions) }, "tier", tier)
		reg.GaugeFunc("ccsd_cache_entries", func() float64 { return float64(stats().Size) }, "tier", tier)
	}
	reg.CounterFunc("ccsd_cache_collapsed_total", func() float64 { return float64(s.cache.Stats().Collapsed) }, "tier", "solutions")
}

// handle answers one request; it never panics the connection — every
// failure comes back as a response with Err set. A stats query is not
// counted as a request, so health probes leave the request counters to
// client traffic.
func (s *solveServer) handle(req solveRequest) solveResponse {
	if !req.Stats {
		s.requests.Add(1)
	}
	timed := (s.metricsOn || s.slowSolve > 0) && !req.Stats && req.hasInstance()
	var start time.Time
	if timed {
		start = time.Now()
	}
	resp := s.answer(req)
	if timed {
		elapsed := time.Since(start)
		name := req.Scheduler
		if name == "" {
			if req.Register {
				name = "CCSGA" // registers default to the warm scheduler
			} else {
				name = "CCSA"
			}
		}
		if h, ok := s.met.solveSec[name]; ok {
			h.Observe(elapsed.Seconds())
		}
		if s.slowSolve > 0 && elapsed >= s.slowSolve && resp.Err == "" {
			s.log.Event("slow_solve", "scheduler", name, "elapsed", elapsed, "cached", resp.Cached)
		}
	}
	if resp.Err != "" {
		s.failures.Add(1)
	}
	return resp
}

func (s *solveServer) answer(req solveRequest) solveResponse {
	if req.Stats {
		st := &serviceStats{Requests: s.requests.Load(), Failures: s.failures.Load()}
		if s.cache != nil {
			st.Raw = s.raw.Stats()
			st.Solutions = s.cache.Stats()
		}
		if s.sessions != nil {
			st.Sessions = &sessionStats{
				Active:          s.sessions.active(),
				Registered:      s.sessions.registered(),
				DeltaSolves:     s.deltaSolves.Load(),
				RepairSolves:    s.repairSolves.Load(),
				RepairFallbacks: s.repairFallbacks.Load(),
				EvictedLRU:      s.sessions.evictLRU.Load(),
				EvictedIdle:     s.sessions.evictTTL.Load(),
				Unknown:         s.unknownSession.Load(),
			}
		}
		return solveResponse{Stats: st}
	}
	// Session verbs (see session.go). A close on a session that also
	// carries deltas is rejected by construction: Close wins.
	if req.Register {
		return s.registerSession(req)
	}
	if req.Session != 0 {
		if s.sessions == nil {
			return solveResponse{Err: "session protocol disabled (-max-sessions 0)"}
		}
		if req.Close {
			return s.closeSession(req)
		}
		return s.deltaSolve(req)
	}
	if !req.hasInstance() {
		return solveResponse{Err: "request has neither an instance nor a stats query"}
	}
	name := req.Scheduler
	if name == "" {
		name = "CCSA"
	}
	sched, err := schedulerByName(name)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	// The instance is validated once, by NewCostModel (or explicitly on
	// the sharded path) inside the solve: a solution-tier hit skips it,
	// which is sound because the fingerprint covers every field Validate
	// reads and the cache never stores a failed solve.
	in := req.decoded
	if in == nil {
		if in, err = gen.ParseInstance(req.Instance); err != nil {
			return solveResponse{Err: err.Error()}
		}
	}
	solve := func() (*core.Schedule, float64, error) {
		if s.solveDelay > 0 {
			time.Sleep(s.solveDelay)
		}
		return core.SolveOnce(in, sched)
	}
	// Server-side sharding: with a cell size configured and a scheduler
	// that can warm-start (the property internal/shard relies on), large
	// one-shot solves go cell-parallel. Non-warm schedulers keep the
	// whole-field path.
	options := ""
	if ws, ok := sched.(core.RepairScheduler); ok && s.shard.CellSize > 0 {
		cfg := s.shard
		// The cache key carries the sharding geometry — a sharded schedule
		// is a different artifact than a whole-field one — but not Workers,
		// which shard pins to be byte-identical at every value.
		options = fmt.Sprintf("shard:c=%g,o=%g", cfg.CellSize, cfg.Overlap)
		solve = func() (*core.Schedule, float64, error) {
			if s.solveDelay > 0 {
				time.Sleep(s.solveDelay)
			}
			// shard.Solve validates only the cell sub-instances.
			if err := in.Validate(); err != nil {
				return nil, 0, err
			}
			res, err := shard.Solve(in, ws, cfg)
			if err != nil {
				return nil, 0, err
			}
			return res.Schedule, res.TotalCost, nil
		}
	} else if req.decoded != nil {
		// The whole-field path keeps nothing of a scanned instance past
		// the reply, whose ID lists hold strings, not the arrays: the
		// arrays go back to the scanner for the next request.
		defer gen.ReleaseInstance(in)
	}
	// The reply is rendered once, by whichever request runs the solve,
	// and its raw-tier entry is what the solution tier stores: a hit or a
	// collapsed waiter answers with the entry as it is, and answerLine
	// files the same slice under the raw key, so one distinct solve is
	// held once. An error is never stored.
	rb := req.reply
	if rb == nil {
		rb = newReplyBuf()
	}
	var out []byte
	render := func() ([]byte, error) {
		plan, cost, err := solve()
		if err != nil {
			return nil, err
		}
		// A valid instance can still price beyond float64 (fees near
		// MaxFloat64 sum to +Inf); such a cost has no JSON rendering.
		if math.IsInf(cost, 0) || math.IsNaN(cost) {
			return nil, fmt.Errorf("total cost %v is not finite", cost)
		}
		out, err = rb.render(solveResponse{
			Cost:       cost,
			Sessions:   len(plan.Coalitions),
			Coalitions: rb.coalitionsJSON(in, plan),
		})
		if err != nil {
			return nil, fmt.Errorf("render response: %w", err)
		}
		if s.cache == nil {
			return nil, nil
		}
		return replayEntry(out), nil
	}
	if s.cache == nil {
		if _, err := render(); err != nil {
			return solveResponse{Err: err.Error()}
		}
		return solveResponse{line: out}
	}
	key, err := instcache.KeyFor(in, name, options)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	entry, cached, err := s.cache.Do(key, render)
	if err != nil {
		return solveResponse{Err: err.Error()}
	}
	if cached {
		out = entry
	}
	return solveResponse{Cached: cached, line: out, entry: entry}
}

// answerLine answers one request line of a JSON connection in rb's
// memory. First tier: a byte-identical repeat of a stateless solve
// replays its rendered reply from the raw tier with no decoding or
// solving at all. Any other line is parsed and answered, and a
// replayable reply's entry goes into the raw tier, which keeps the very
// slice the solution tier holds. The reply is valid until rb's next use.
func (s *solveServer) answerLine(rb *replyBuf, line []byte) []byte {
	var sum [32]byte
	if s.raw != nil {
		sum = s.raw.Key(line)
		if out, ok := s.raw.Get(sum); ok {
			s.requests.Add(1)
			return out
		}
	}
	req, err := parseLine(line)
	req.reply = rb
	out, replay := s.respond(req, err)
	if replay != nil {
		s.raw.Put(sum, replay)
	}
	return out
}

// respond answers one parsed request line (parseErr is the line's decode
// error) in req.reply's memory (fresh memory when it is nil). out is the
// reply line, valid until the connection's next request; replay is the
// raw-tier entry for it, or nil, and is never written again. Only
// successful stateless solves replay (as cache hits); stats queries,
// errors, and session verbs (whose responses depend on server state, not
// just the request bytes) are never byte-cached — which also keeps
// answerLine's pre-decode Get from ever replaying them. A reply that
// cannot be rendered becomes an error line and counts as a failure, so
// the client never sees a silent hangup.
func (s *solveServer) respond(req solveRequest, parseErr error) (out, replay []byte) {
	var resp solveResponse
	if parseErr != nil {
		s.requests.Add(1)
		s.failures.Add(1)
		resp = solveResponse{Err: "bad request: " + parseErr.Error()}
	} else {
		resp = s.handle(req)
	}
	if resp.line != nil {
		return resp.line, resp.entry
	}
	rb := req.reply
	if rb == nil {
		rb = newReplyBuf()
	}
	out, err := rb.render(resp)
	if err != nil {
		s.failures.Add(1)
		out, _ = rb.render(solveResponse{Err: "render response: " + err.Error()})
	}
	return out, nil
}

// replyBuf is the memory one JSON connection builds and renders its
// replies in, reused from request to request: the reply line and the ID
// lists of a solve reply's coalitions. What it holds for one request is
// valid until the next.
type replyBuf struct {
	line       bytes.Buffer
	enc        *json.Encoder // renders into line
	coalitions []coalitionJSON
	ids        []string
}

func newReplyBuf() *replyBuf {
	b := new(replyBuf)
	b.enc = json.NewEncoder(&b.line)
	return b
}

// render renders resp as one reply line in b: json.Marshal's bytes plus
// the '\n' framing, which is exactly what the encoder writes.
func (b *replyBuf) render(resp solveResponse) ([]byte, error) {
	b.line.Reset()
	if err := b.enc.Encode(resp); err != nil {
		return nil, err
	}
	return b.line.Bytes(), nil
}

// coalitionsJSON lists plan's sessions by agent IDs, on b's arrays. Each
// coalition's device list is a capped slice of one array of IDs.
func (b *replyBuf) coalitionsJSON(in *core.Instance, plan *core.Schedule) []coalitionJSON {
	cs, ids := b.coalitions[:0], b.ids[:0]
	n := 0
	for _, c := range plan.Coalitions {
		n += len(c.Members)
	}
	ids = slices.Grow(ids, n)
	for _, c := range plan.Coalitions {
		cj := coalitionJSON{Charger: in.Chargers[c.Charger].ID}
		if len(c.Members) > 0 {
			at := len(ids)
			for _, i := range c.Members {
				ids = append(ids, in.Devices[i].ID)
			}
			cj.Devices = ids[at:len(ids):len(ids)]
		}
		cs = append(cs, cj)
	}
	b.coalitions, b.ids = cs, ids
	return cs
}

// replayEntry returns the raw-tier entry for out, a rendered uncached
// stateless solve reply, in fresh memory of its exact size: the bytes
// json.Marshal gives the same response with Cached set. Cached is the
// last field a stateless solve reply can carry, so it is spliced in
// before the closing brace instead of rendering the reply a second time.
func replayEntry(out []byte) []byte {
	const field = `"cached":true`
	body := out[:len(out)-2] // without "}\n"
	entry := make([]byte, 0, len(out)+1+len(field))
	entry = append(entry, body...)
	if len(body) > 1 {
		entry = append(entry, ',')
	}
	entry = append(entry, field...)
	return append(entry, '}', '\n')
}

// summary renders the service counters for the shutdown log line.
func (s *solveServer) summary() string {
	line := fmt.Sprintf("served %d request(s), %d failed", s.requests.Load(), s.failures.Load())
	if s.sessions != nil {
		line += fmt.Sprintf(", %d session(s) registered, %d delta solve(s)",
			s.sessions.registered(), s.deltaSolves.Load())
		if rep := s.repairSolves.Load(); rep > 0 || s.repairFallbacks.Load() > 0 {
			line += fmt.Sprintf(" (%d repaired, %d fallback(s))", rep, s.repairFallbacks.Load())
		}
	}
	if s.cache == nil {
		return line + ", cache off"
	}
	rs, ss := s.raw.Stats(), s.cache.Stats()
	return line + fmt.Sprintf(", raw tier %d/%d: %d hit(s), solution tier %d/%d: %d hit(s) (%d collapsed), %d miss(es), %d eviction(s)",
		rs.Size, rs.Capacity, rs.Hits,
		ss.Size, ss.Capacity, ss.Hits, ss.Collapsed, ss.Misses, ss.Evictions)
}

// serveConfig carries the -serve flag set.
type serveConfig struct {
	listen       string
	cacheSize    int
	cacheOff     bool
	metricsAddr  string
	idleTimeout  time.Duration
	drainTimeout time.Duration
	slowSolve    time.Duration
	maxSessions  int
	sessionTTL   time.Duration
	tick         time.Duration
	shardCell    float64
	shardOverlap float64
	shardWorkers int
}

// runServe is the -serve entry point: listen, serve until SIGINT/SIGTERM,
// drain in-flight connections, then report the counters.
func runServe(cfg serveConfig, out io.Writer) error {
	if cfg.cacheOff {
		cfg.cacheSize = 0
	} else if cfg.cacheSize < 1 {
		return fmt.Errorf("-cache-size must be >= 1 (or use -cache-off), got %d", cfg.cacheSize)
	}
	var reg *obs.Registry
	if cfg.metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	srv, err := newSolveServer(serveOpts{
		cacheSize:   cfg.cacheSize,
		idleTimeout: cfg.idleTimeout,
		slowSolve:   cfg.slowSolve,
		maxSessions: cfg.maxSessions,
		sessionTTL:  cfg.sessionTTL,
		tick:        cfg.tick,
		shard: shard.Config{
			CellSize: cfg.shardCell,
			Overlap:  cfg.shardOverlap,
			Workers:  cfg.shardWorkers,
		},
		reg: reg,
		log: obs.NewEventLogger(os.Stderr),
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	mode := fmt.Sprintf("cache %d entries", cfg.cacheSize)
	if cfg.cacheSize == 0 {
		mode = "cache off"
	}
	if cfg.maxSessions > 0 {
		mode += fmt.Sprintf(", sessions up to %d", cfg.maxSessions)
	} else {
		mode += ", sessions off"
	}
	fmt.Fprintf(out, "serving solves on %s (%s)\n", l.Addr(), mode)
	if reg != nil {
		stop, err := srv.ServeSidecar(cfg.metricsAddr, out)
		if err != nil {
			_ = l.Close()
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer stop()
	}
	return netserve.Run(srv.Server, l, cfg.drainTimeout, out, srv.summary)
}
