// Command ccsrouter is the fleet front end for ccsd's serve mode: one
// TCP listener that routes solve requests across N ccsd -serve backends
// (internal/router). It speaks both serve protocols (newline-JSON and
// binary wire frames, first-byte sniffed), consistent-hashes instances
// to the replica whose caches already hold them, coalesces concurrent
// duplicate solves fleet-wide, sheds load once a backend's queue is over
// its SLO, fails a dead backend's key range over via health checks, and
// replays fleet-wide byte-identical duplicates from a local cache tier.
//
// Minimal fleet:
//
//	ccsd -serve -listen 127.0.0.1:7465 &
//	ccsd -serve -listen 127.0.0.1:7466 &
//	ccsrouter -listen 127.0.0.1:7400 -backends 127.0.0.1:7465,127.0.0.1:7466
//
// Clients speak to the router exactly as they would to a single ccsd.
// With -metrics-addr the router exposes /metrics, /healthz and pprof on
// an HTTP sidecar (ccsrouter_ series: per-backend latency histograms,
// queue depths, shed/failover counters).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsrouter:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccsrouter", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:0", "listen address")
		backends     = fs.String("backends", "", "comma-separated ccsd -serve addresses (required)")
		replicas     = fs.Int("replicas", 64, "consistent-hash ring points per backend")
		conns        = fs.Int("backend-conns", 2, "pooled pipelined connections per backend")
		inflight     = fs.Int("backend-inflight", 32, "max in-flight requests per backend")
		queue        = fs.Int("backend-queue", 64, "max requests queued per backend beyond -backend-inflight before shedding {\"error\":\"overloaded\"}")
		cacheSize    = fs.Int("cache-size", 1024, "replay cache capacity in entries (byte-identical duplicate requests answered without a backend)")
		cacheOff     = fs.Bool("cache-off", false, "disable the replay cache")
		coalesceWait = fs.Duration("coalesce-wait", 0, "hold a leading solve this long so concurrent duplicates can coalesce onto it (0 = no added latency; in-flight joins always happen)")
		healthEvery  = fs.Duration("health-interval", 2*time.Second, "backend health probe period (0 = probes off; backends then never rejoin the ring)")
		healthWait   = fs.Duration("health-timeout", time.Second, "one probe's deadline")
		healthFails  = fs.Int("health-fails", 2, "consecutive probe failures before a backend leaves the ring")
		dialWait     = fs.Duration("dial-timeout", 2*time.Second, "backend dial deadline")
		reqWait      = fs.Duration("request-timeout", 2*time.Minute, "proxied round-trip deadline (0 = none)")
		connIdle     = fs.Duration("conn-idle-timeout", 3*time.Minute, "close a client connection idle for this long (0 = never; binary splices defer to the backend's reaper)")
		drainWait    = fs.Duration("drain-timeout", 10*time.Second, "on shutdown, wait this long for in-flight requests before force-closing")
		metricsAddr  = fs.String("metrics-addr", "", "also serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated ccsd -serve addresses)")
	}
	for _, v := range []struct {
		name string
		ok   bool
	}{
		{"-replicas", *replicas > 0},
		{"-backend-conns", *conns > 0},
		{"-backend-inflight", *inflight > 0},
		{"-backend-queue", *queue > 0},
		{"-coalesce-wait", *coalesceWait >= 0},
		{"-health-interval", *healthEvery >= 0},
		{"-health-timeout", *healthWait > 0},
		{"-health-fails", *healthFails > 0},
		{"-dial-timeout", *dialWait > 0},
		{"-request-timeout", *reqWait >= 0},
		{"-conn-idle-timeout", *connIdle >= 0},
		{"-drain-timeout", *drainWait > 0},
	} {
		if !v.ok {
			return fmt.Errorf("%s out of range", v.name)
		}
	}
	size := *cacheSize
	if *cacheOff {
		size = 0
	} else if size < 1 {
		return fmt.Errorf("-cache-size must be >= 1 (or use -cache-off), got %d", size)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	rt, err := router.New(router.Config{
		Backends:       splitAddrs(*backends),
		Replicas:       *replicas,
		Conns:          *conns,
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		CacheSize:      size,
		CoalesceWait:   *coalesceWait,
		HealthInterval: *healthEvery,
		HealthTimeout:  *healthWait,
		HealthFails:    *healthFails,
		DialTimeout:    *dialWait,
		RequestTimeout: *reqWait,
		IdleTimeout:    *connIdle,
		Reg:            reg,
		Log:            obs.NewEventLogger(os.Stderr),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "routing solves on %s across %d backend(s)\n", l.Addr(), len(splitAddrs(*backends)))
	if reg != nil {
		stop, err := rt.ServeSidecar(*metricsAddr, out)
		if err != nil {
			_ = l.Close()
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer stop()
	}
	return netserve.Run(rt.Server, l, *drainWait, out, rt.Summary)
}

// splitAddrs parses the -backends list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
