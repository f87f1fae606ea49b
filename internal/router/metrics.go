// Observability: every routing decision that matters operationally —
// shed, failover, coalesce, replay — is a counter, every backend gets a
// latency histogram and queue-depth gauges, and liveness is a 0/1 gauge
// per backend so a dashboard shows ring membership directly. All
// instruments are nil-safe no-ops when no registry is attached.
package router

import "repro/internal/obs"

// register wires the router's instruments into reg (no-op on nil).
func (rt *Router) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("ccsrouter_requests_total", func() float64 { return float64(rt.requests.Load()) })
	reg.CounterFunc("ccsrouter_request_failures_total", func() float64 { return float64(rt.failures.Load()) })
	reg.CounterFunc("ccsrouter_replay_hits_total", func() float64 { return float64(rt.replayHits.Load()) })
	reg.CounterFunc("ccsrouter_coalesced_total", func() float64 { return float64(rt.coalesced.Load()) })
	reg.CounterFunc("ccsrouter_shed_total", func() float64 { return float64(rt.shed.Load()) })
	reg.CounterFunc("ccsrouter_failovers_total", func() float64 { return float64(rt.failovers.Load()) })
	reg.CounterFunc("ccsrouter_binary_conns_total", func() float64 { return float64(rt.binConns.Load()) })
	if rt.replay != nil {
		// A size, not a count: it shrinks on eviction, so it is a gauge.
		reg.GaugeFunc("ccsrouter_replay_entries", func() float64 { return float64(rt.replay.Stats().Size) })
	}
	for _, b := range rt.backends {
		b := b
		reg.GaugeFunc("ccsrouter_backend_healthy", func() float64 {
			if b.healthy.Load() {
				return 1
			}
			return 0
		}, "backend", b.addr)
		reg.GaugeFunc("ccsrouter_backend_inflight", func() float64 { return float64(b.inflight()) }, "backend", b.addr)
		reg.GaugeFunc("ccsrouter_backend_queue_depth", func() float64 { return float64(b.queued()) }, "backend", b.addr)
		reg.GaugeFunc("ccsrouter_backend_binary_conns", func() float64 { return float64(b.binConns.Load()) }, "backend", b.addr)
		reg.CounterFunc("ccsrouter_backend_requests_total", func() float64 { return float64(b.requests.Load()) }, "backend", b.addr)
		reg.CounterFunc("ccsrouter_backend_errors_total", func() float64 { return float64(b.errors.Load()) }, "backend", b.addr)
		b.lat = reg.Histogram("ccsrouter_backend_seconds", obs.DefaultLatencyBuckets, "backend", b.addr)
	}
}
