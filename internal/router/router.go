// Package router is the fleet front end for ccsd's serve mode: one TCP
// listener that makes N ccsd backends look like a single solve service.
// It speaks both serve protocols — newline-JSON and the internal/wire
// binary frames, sniffed from the first byte by internal/netserve, the
// connection layer it shares with ccsd — and routes every solve by the
// canonical instance fingerprint (internal/instcache) over a
// consistent-hash ring, so duplicate instances always land on the
// replica whose caches already hold them.
//
// Four layers stand between a request and a backend solve:
//
//  1. a router-local replay tier (instcache.ByteCache, keyed by the
//     cache's own keyed hash of the raw request line) answers fleet-wide
//     byte-identical duplicates without touching any backend;
//  2. a fleet-wide singleflight coalesces concurrent solves of the same
//     fingerprint into one backend request — duplicates across many
//     client connections ride one upstream round trip;
//  3. admission control bounds each backend's in-flight solves and wait
//     queue, answering {"error":"overloaded"} once the queue is over the
//     SLO instead of letting latency collapse;
//  4. health-check-driven ring membership fails a dead backend's key
//     range over to the next live backend clockwise, deterministically.
//
// The router rewrites nothing: response bytes are the backend's own, so
// routed responses are byte-identical to direct ones (the cmd/ccsd e2e
// battery pins this for both protocols).
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instcache"
	"repro/internal/netserve"
	"repro/internal/obs"
)

// maxRequestBytes is ccsd's per-request bound, enforced by netserve.
const maxRequestBytes = netserve.MaxRequestBytes

// shedResponse is the structured load-shedding answer, exactly as the
// SLO contract documents it.
var shedResponse = []byte(`{"error":"overloaded"}` + "\n")

// Config wires a Router.
type Config struct {
	// Backends are the ccsd -serve addresses; at least one, no
	// duplicates. The set is fixed for the router's lifetime — liveness
	// is dynamic (health checks), membership is not.
	Backends []string
	// Replicas is the number of ring points per backend (default 64).
	Replicas int
	// Conns is the pooled pipelined connections per backend (default 2).
	Conns int
	// MaxInflight bounds concurrent proxied requests per backend
	// (default 32); MaxQueue bounds callers waiting for a slot beyond it
	// (default 64) — the queue-depth SLO. Requests beyond both shed.
	MaxInflight int
	MaxQueue    int
	// CacheSize is the replay tier's entry bound; 0 disables it.
	CacheSize int
	// CoalesceWait stretches the fleet singleflight window: a coalescing
	// leader delays its dispatch by this long so concurrent duplicates
	// can join (0 = dispatch immediately; followers still join any
	// in-flight solve).
	CoalesceWait time.Duration
	// HealthInterval is the probe period (0 disables the probe loop —
	// backends then only leave the ring on transport errors and never
	// return; ccsrouter defaults it to 2s). HealthTimeout bounds one
	// probe (default
	// 1s). HealthFails is the consecutive-failure threshold that marks
	// a backend down (default 2).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	HealthFails    int
	// DialTimeout bounds backend dials (default 2s). RequestTimeout
	// bounds one proxied round trip (default 2m; 0 = none).
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// IdleTimeout reaps client connections silent for this long (0 =
	// never).
	IdleTimeout time.Duration
	// Reg, when non-nil, registers the ccsrouter_ metrics families.
	Reg *obs.Registry
	// Log receives operational events (failovers, sheds, health flips);
	// nil discards them.
	Log *obs.EventLogger
}

func (c *Config) applyDefaults() error {
	if len(c.Backends) == 0 {
		return errors.New("router: no backends")
	}
	seen := map[string]bool{}
	for _, a := range c.Backends {
		if a == "" {
			return errors.New("router: empty backend address")
		}
		if seen[a] {
			return fmt.Errorf("router: duplicate backend %s", a)
		}
		seen[a] = true
	}
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("router: cache size %d < 0", c.CacheSize)
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.HealthFails <= 0 {
		c.HealthFails = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	return nil
}

// flight is one in-flight coalesced solve; followers block on done and
// then share the leader's response bytes.
type flight struct {
	done chan struct{}
	resp []byte
	err  error
}

// Router fans one listener out to the backend fleet.
type Router struct {
	// Server runs the client connection lifecycle (internal/netserve):
	// accept, protocol sniff, line loop, read-failure accounting and
	// drain.
	*netserve.Server

	cfg      Config
	ring     *ring
	backends []*backend
	replay   *instcache.ByteCache // nil when disabled
	log      *obs.EventLogger

	flightMu sync.Mutex
	flights  map[instcache.Key]*flight

	requests   atomic.Uint64
	failures   atomic.Uint64
	replayHits atomic.Uint64
	coalesced  atomic.Uint64
	shed       atomic.Uint64
	failovers  atomic.Uint64
	binConns   atomic.Uint64

	healthStop chan struct{}
	healthDone chan struct{}
}

// New builds a Router over cfg.Backends and starts its health loop.
func New(cfg Config) (*Router, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:        cfg,
		ring:       newRing(cfg.Backends, cfg.Replicas),
		log:        cfg.Log,
		flights:    make(map[instcache.Key]*flight),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		c, err := instcache.NewBytes(cfg.CacheSize)
		if err != nil {
			return nil, err
		}
		rt.replay = c
	}
	for _, addr := range cfg.Backends {
		rt.backends = append(rt.backends, newBackend(addr,
			cfg.MaxInflight, cfg.MaxQueue, cfg.Conns, cfg.DialTimeout, cfg.RequestTimeout))
	}
	rt.Server = netserve.New(netserve.Config{
		Name:        "ccsrouter",
		Reg:         cfg.Reg,
		Log:         cfg.Log,
		IdleTimeout: cfg.IdleTimeout,
		Requests:    &rt.requests,
		Failures:    &rt.failures,
		Lines: func() func([]byte) []byte {
			// sessionBackend pins this connection's session-protocol verbs
			// to one backend: session IDs are per-backend counters, so a
			// second backend's IDs would collide. The first register picks
			// the backend (by its instance fingerprint); every later session
			// verb on this connection follows it.
			var sessionBackend *backend
			return func(line []byte) []byte { return rt.handleLine(line, &sessionBackend) }
		},
		Binary: rt.serveBinary,
	})
	rt.register(cfg.Reg)
	go rt.healthLoop()
	return rt, nil
}

// alive reports backend liveness for ring lookups.
func (rt *Router) alive(i int) bool { return rt.backends[i].healthy.Load() }

// OwnerOf returns the index in Config.Backends of the live backend that
// owns the fingerprint on the ring, or -1 when no backend is healthy. A
// solve of the key goes there first; a register pins its session there.
func (rt *Router) OwnerOf(key instcache.Key) int {
	return rt.ring.owner(keyHash(key.Sum), rt.alive)
}

// routeRequest is the envelope slice of a JSON request the router needs
// for a routing decision; everything else passes through untouched.
type routeRequest struct {
	Instance  json.RawMessage `json:"instance,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
	Stats     bool            `json:"stats,omitempty"`
	Register  bool            `json:"register,omitempty"`
	Session   uint64          `json:"session,omitempty"`
}

// errorLine renders a router-originated JSON error response.
func errorLine(msg string) []byte {
	out, _ := json.Marshal(struct {
		Err string `json:"error"`
	}{msg})
	return append(out, '\n')
}

// failLine is errorLine plus the failure count — every router-originated
// error is an accounted failed request.
func (rt *Router) failLine(msg string) []byte {
	rt.failures.Add(1)
	return errorLine(msg)
}

// handleLine answers one JSON request line (response includes the
// trailing newline).
func (rt *Router) handleLine(line []byte, sessionBackend **backend) []byte {
	// Replay tier: a fleet-wide byte-identical duplicate is answered
	// locally. Only responses the backend marked as replayable are ever
	// stored (see dispatch), so this can never serve a stale first-solve
	// or a stateful response.
	var sum [32]byte
	if rt.replay != nil {
		sum = rt.replay.Key(line)
		if out, ok := rt.replay.Get(sum); ok {
			rt.requests.Add(1)
			rt.replayHits.Add(1)
			return out
		}
	}

	// A plain solve line is scanned in one pass; every other verb, and
	// any solve line outside the scanner's grammar, takes encoding/json,
	// which yields the same request whenever the scanner accepts.
	in, name, scanned := gen.ScanSolveRequest(line)
	if !scanned {
		var req routeRequest
		err := json.Unmarshal(line, &req)
		if err == nil && req.Stats {
			// A stats query is not a request, as on ccsd: monitoring
			// leaves the request counters to client traffic.
			return rt.statsLine()
		}
		rt.requests.Add(1)
		switch {
		case err != nil:
			return rt.failLine("bad request: " + err.Error())
		case req.Register:
			return rt.sessionLine(line, req, sessionBackend)
		case req.Session != 0:
			if *sessionBackend == nil {
				return rt.failLine("unknown session: sessions are pinned to the connection that registered them")
			}
			return rt.sessionForward(line, *sessionBackend)
		case len(req.Instance) == 0:
			return rt.failLine("request has neither an instance nor a stats query")
		}
		if in, err = gen.ParseInstance(req.Instance); err != nil {
			return rt.failLine(err.Error())
		}
		name = req.Scheduler
	} else {
		rt.requests.Add(1)
	}
	key, err := solveKey(in, name)
	if err != nil {
		return rt.failLine(err.Error())
	}
	return rt.coalesce(key, sum, line)
}

// solveKey validates a decoded solve instance — the router rejects an
// invalid one locally — and fingerprints it for routing and coalescing,
// normalizing the scheduler name the same way the backend does.
func solveKey(in *core.Instance, scheduler string) (instcache.Key, error) {
	if err := in.Validate(); err != nil {
		return instcache.Key{}, err
	}
	if scheduler == "" {
		scheduler = "CCSA"
	}
	return instcache.KeyFor(in, scheduler, "")
}

// registerKey is solveKey for a register, over either protocol: a
// session without a scheduler runs CCSGA on the backend, so it is keyed
// as one.
func registerKey(in *core.Instance, scheduler string) (instcache.Key, error) {
	if scheduler == "" {
		scheduler = "CCSGA"
	}
	return solveKey(in, scheduler)
}

// coalesce collapses concurrent solves of one fingerprint into a single
// upstream round trip; followers share the leader's response bytes.
func (rt *Router) coalesce(key instcache.Key, sum [32]byte, line []byte) []byte {
	rt.flightMu.Lock()
	if fl, ok := rt.flights[key]; ok {
		rt.flightMu.Unlock()
		rt.coalesced.Add(1)
		<-fl.done
		if fl.err != nil {
			return rt.failLine(fl.err.Error())
		}
		return fl.resp
	}
	fl := &flight{done: make(chan struct{})}
	rt.flights[key] = fl
	rt.flightMu.Unlock()

	if rt.cfg.CoalesceWait > 0 {
		time.Sleep(rt.cfg.CoalesceWait) // widen the join window
	}
	fl.resp, fl.err = rt.dispatch(key, sum, line)

	rt.flightMu.Lock()
	delete(rt.flights, key)
	rt.flightMu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return rt.failLine(fl.err.Error())
	}
	return fl.resp
}

// dispatch routes one solve to the fingerprint's owner backend, with
// admission control and deterministic failover along the ring walk.
func (rt *Router) dispatch(key instcache.Key, sum [32]byte, line []byte) ([]byte, error) {
	h := keyHash(key.Sum)
	var (
		resp    []byte
		lastErr error
		tried   int
	)
	rt.ring.walk(h, func(bi int) bool {
		b := rt.backends[bi]
		if !b.healthy.Load() {
			return true // skip dead backends; their range moved on
		}
		if tried > 0 {
			rt.failovers.Add(1)
			rt.log.Event("failover", "key", fmt.Sprintf("%x", key.Sum[:8]), "to", b.addr)
		}
		tried++
		if err := b.acquire(); err != nil {
			// Over the queue SLO: shed rather than spill — pushing the
			// overload onto the next backend would cascade it.
			lastErr = err
			return false
		}
		resp, lastErr = b.roundTrip(line)
		b.release()
		return lastErr != nil // a transport error tries the next live backend
	})
	switch {
	case errors.Is(lastErr, errOverloaded):
		rt.shed.Add(1)
		rt.log.Event("shed", "backend_queue_over", rt.cfg.MaxQueue)
		return shedResponse, nil
	case resp == nil && lastErr == nil:
		return nil, errors.New("no healthy backend")
	case lastErr != nil:
		return nil, fmt.Errorf("backend: %v", lastErr)
	}
	// Store fleet-replayable responses: only a response the backend
	// itself served as a byte-cache replay (marked "cached":true) is
	// stable under repetition, so replaying it here is byte-identical
	// to what the backend would keep answering. Put keeps resp itself:
	// it is the fresh slice the backend connection's ReadBytes returned,
	// and nothing writes it again.
	if rt.replay != nil && bytes.Contains(resp, []byte(`"cached":true`)) &&
		!bytes.Contains(resp, []byte(`"error"`)) {
		rt.replay.Put(sum, resp)
	}
	return resp, nil
}

// sessionLine routes a register, pinning the connection's session
// backend on first use.
func (rt *Router) sessionLine(line []byte, req routeRequest, sessionBackend **backend) []byte {
	if *sessionBackend == nil {
		if len(req.Instance) == 0 {
			return rt.failLine("register carries no instance")
		}
		in, err := gen.ParseInstance(req.Instance)
		if err != nil {
			return rt.failLine(err.Error())
		}
		key, err := registerKey(in, req.Scheduler)
		if err != nil {
			return rt.failLine(err.Error())
		}
		owner := rt.OwnerOf(key)
		if owner < 0 {
			return rt.failLine("no healthy backend")
		}
		*sessionBackend = rt.backends[owner]
	}
	return rt.sessionForward(line, *sessionBackend)
}

// sessionForward proxies a session verb to the connection's pinned
// backend (no coalescing, no replay: session responses are stateful).
func (rt *Router) sessionForward(line []byte, b *backend) []byte {
	if err := b.acquire(); err != nil {
		rt.shed.Add(1)
		return shedResponse
	}
	resp, err := b.roundTrip(line)
	b.release()
	if err != nil {
		return rt.failLine("backend: " + err.Error())
	}
	return resp
}

// Close stops the health loop and tears down every backend connection.
// Safe to call more than once.
func (rt *Router) Close() {
	select {
	case <-rt.healthStop:
	default:
		close(rt.healthStop)
	}
	<-rt.healthDone
	for _, b := range rt.backends {
		b.close()
	}
}

// Stats is the router's own counter snapshot (answered locally for a
// {"stats":true} request — per-backend service stats live on each
// backend's own listener).
type Stats struct {
	Requests   uint64          `json:"requests"`
	Failures   uint64          `json:"failures"`
	ReplayHits uint64          `json:"replayHits"`
	Coalesced  uint64          `json:"coalesced"`
	Shed       uint64          `json:"shed"`
	Failovers  uint64          `json:"failovers"`
	BinConns   uint64          `json:"binaryConns"`
	Replay     instcache.Stats `json:"replay"`
	Backends   []BackendStats  `json:"backends"`
}

// BackendStats is one backend's slice of Stats.
type BackendStats struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"`
}

// Snapshot builds the current Stats.
func (rt *Router) Snapshot() Stats {
	st := Stats{
		Requests:   rt.requests.Load(),
		Failures:   rt.failures.Load(),
		ReplayHits: rt.replayHits.Load(),
		Coalesced:  rt.coalesced.Load(),
		Shed:       rt.shed.Load(),
		Failovers:  rt.failovers.Load(),
		BinConns:   rt.binConns.Load(),
	}
	if rt.replay != nil {
		st.Replay = rt.replay.Stats()
	}
	for _, b := range rt.backends {
		st.Backends = append(st.Backends, BackendStats{
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Inflight: b.inflight(),
			Queued:   b.queued(),
		})
	}
	return st
}

// statsLine renders the router stats response, shaped distinctly from a
// backend's serviceStats so clients can tell who answered.
func (rt *Router) statsLine() []byte {
	out, err := json.Marshal(struct {
		Router Stats `json:"router"`
	}{rt.Snapshot()})
	if err != nil {
		return errorLine(err.Error())
	}
	return append(out, '\n')
}

// Summary renders the shutdown counter line.
func (rt *Router) Summary() string {
	st := rt.Snapshot()
	healthy := 0
	for _, b := range st.Backends {
		if b.Healthy {
			healthy++
		}
	}
	return fmt.Sprintf("routed %d request(s), %d failed, %d replayed, %d coalesced, %d shed, %d failover(s), %d/%d backend(s) healthy",
		st.Requests, st.Failures, st.ReplayHits, st.Coalesced, st.Shed, st.Failovers, healthy, len(st.Backends))
}
