// Fleet e2e battery: real solveServers behind a real internal/router,
// all in-process. The headline property is byte-identity — a client
// talking through the router gets exactly the bytes a direct client
// gets, for both protocols — plus the operational behaviors the fleet
// contract promises: fingerprint affinity, failover on backend death,
// and structured load shedding.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/instcache"
	"repro/internal/router"
	"repro/internal/wire"
)

// overloadedLine is the shed contract pinned by ISSUE 8: the router
// answers exactly this once a backend is over its queue SLO.
var overloadedLine = []byte(`{"error":"overloaded"}` + "\n")

// startFleet boots n identical solveServers on loopback listeners.
func startFleet(t testing.TB, n int, opts serveOpts) ([]*solveServer, []net.Listener, []string) {
	t.Helper()
	srvs := make([]*solveServer, n)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := newSolveServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Close() })
		go func() { _ = srv.Serve(l) }()
		srvs[i], listeners[i], addrs[i] = srv, l, l.Addr().String()
	}
	return srvs, listeners, addrs
}

// startFleetRouter serves a router over the given backends.
func startFleetRouter(t testing.TB, cfg router.Config) (*router.Router, string) {
	t.Helper()
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	go func() { _ = rt.Serve(l) }()
	t.Cleanup(func() {
		_ = l.Close()
		rt.BeginShutdown()
		rt.Drain(2 * time.Second)
		rt.Close()
	})
	return rt, l.Addr().String()
}

func dialAddr(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// rawRoundTrip returns the exact response bytes for one request line.
func rawRoundTrip(t testing.TB, conn net.Conn, br *bufio.Reader, line []byte) []byte {
	t.Helper()
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	resp, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading response to %.60s...: %v", line, err)
	}
	return resp
}

// TestRouterByteIdenticalJSON sends the same JSON request sequence to a
// fresh direct backend and through the router to an identically fresh
// backend: every response must match byte for byte, including the
// second (backend byte-cache replay, "cached":true) and third (router
// replay tier) repeats of the same solve, and backend-shaped errors.
func TestRouterByteIdenticalJSON(t *testing.T) {
	_, _, directAddrs := startFleet(t, 1, serveOpts{cacheSize: 32})
	_, _, routedAddrs := startFleet(t, 1, serveOpts{cacheSize: 32})
	_, routerAddr := startFleetRouter(t, router.Config{Backends: routedAddrs, CacheSize: 32})

	in1 := serveInstance(16, 0)
	in2 := serveInstance(16, 1)
	sequence := [][]byte{
		solveLine(t, in1, "CCSA"),
		solveLine(t, in1, "CCSA"), // backend raw-tier replay, "cached":true
		solveLine(t, in1, "CCSA"), // routed side now answers from the router's replay tier
		solveLine(t, in2, "CCSGA"),
		solveLine(t, in2, "CCSGA"),
		solveLine(t, in1, "no-such-scheduler"), // backend-shaped error passes through
	}

	direct := dialAddr(t, directAddrs[0])
	directBR := bufio.NewReader(direct)
	routed := dialAddr(t, routerAddr)
	routedBR := bufio.NewReader(routed)
	for i, line := range sequence {
		want := rawRoundTrip(t, direct, directBR, line)
		got := rawRoundTrip(t, routed, routedBR, line)
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: routed response diverges\n direct: %s routed: %s", i, want, got)
		}
	}
}

// TestRouterByteIdenticalBinary runs a full binary session — register,
// delta, close — direct and routed, comparing every response frame.
func TestRouterByteIdenticalBinary(t *testing.T) {
	_, _, directAddrs := startFleet(t, 1, serveOpts{cacheSize: 32, maxSessions: 8})
	_, _, routedAddrs := startFleet(t, 1, serveOpts{cacheSize: 32, maxSessions: 8})
	_, routerAddr := startFleetRouter(t, router.Config{Backends: routedAddrs})

	in := sessionInstance(12, false)
	raw, err := gen.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	register := append(wire.AppendString(nil, "CCSGA"), raw...)
	ops, err := appendDeltaOps(nil, []sessionDelta{{Op: "demand", ID: "dev-001", Demand: 333}})
	if err != nil {
		t.Fatal(err)
	}

	directC := newWireClient(dialAddr(t, directAddrs[0]))
	routedC := newWireClient(dialAddr(t, routerAddr))
	exchange := func(typ wire.Type, payload []byte) {
		t.Helper()
		wantTyp, wantPayload, err := directC.call(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		wantPayload = append([]byte(nil), wantPayload...) // aliases reader buffer
		gotTyp, gotPayload, err := routedC.call(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if gotTyp != wantTyp || !bytes.Equal(gotPayload, wantPayload) {
			t.Fatalf("frame %#x: routed (%#x, %d bytes) != direct (%#x, %d bytes)",
				typ, gotTyp, len(gotPayload), wantTyp, len(wantPayload))
		}
	}
	exchange(wire.TRegister, register)
	// Both fresh backends assign session ID 1; the delta and close target
	// it on each side.
	exchange(wire.TDelta, append(wire.AppendUvarint(nil, 1), ops...))
	exchange(wire.TClose, wire.AppendUvarint(nil, 1))
}

// oneShot dials addr, performs one request/response, and closes.
func oneShot(t testing.TB, addr string, line []byte) []byte {
	t.Helper()
	conn := dialAddr(t, addr)
	resp := rawRoundTrip(t, conn, bufio.NewReader(conn), line)
	_ = conn.Close()
	return resp
}

// TestRouterFleetAffinity proves repeats land on the replica that
// solved them. Three instances owned by each of two cold backends are
// solved twice each: every solve must reach its ring owner and no other
// backend, and the second solve of every instance must come back
// "cached":true — only the backend that ran the first solve has it in
// its byte cache, so a repeat that strayed would come back uncached.
func TestRouterFleetAffinity(t *testing.T) {
	srvs, _, addrs := startFleet(t, 2, serveOpts{cacheSize: 64})
	rt, routerAddr := startFleetRouter(t, router.Config{Backends: addrs, CacheSize: 0})

	// The ring hashes backend addresses, whose ports the kernel picks, so
	// the instances are chosen by owner rather than fixed.
	var lines [][]byte
	var owners []int
	perOwner := make([]int, len(srvs))
	for seed := 0; len(lines) < 3*len(srvs); seed++ {
		if seed == 200 {
			t.Fatalf("200 instances did not give 3 per backend: %v", perOwner)
		}
		in := serveInstance(12, float64(seed))
		key, err := instcache.KeyFor(in, "CCSA", "")
		if err != nil {
			t.Fatal(err)
		}
		owner := rt.OwnerOf(key)
		if owner < 0 {
			t.Fatal("no live owner")
		}
		if perOwner[owner] == 3 {
			continue
		}
		perOwner[owner]++
		lines = append(lines, solveLine(t, in, "CCSA"))
		owners = append(owners, owner)
	}

	cached := []byte(`"cached":true`)
	for i, line := range lines {
		for round := 0; round < 2; round++ {
			before := make([]uint64, len(srvs))
			for b, srv := range srvs {
				before[b] = srv.requests.Load()
			}
			// Separate connections per request: affinity must come from
			// the ring, not connection reuse.
			resp := oneShot(t, routerAddr, line)
			for b, srv := range srvs {
				want := before[b]
				if b == owners[i] {
					want++
				}
				if got := srv.requests.Load(); got != want {
					t.Fatalf("instance %d solve %d: backend %d served %d requests, want %d (owner %d)",
						i, round+1, b, got, want, owners[i])
				}
			}
			if round == 0 && (bytes.Contains(resp, cached) || bytes.Contains(resp, []byte(`"error"`))) {
				t.Fatalf("instance %d: unexpected first response %s", i, resp)
			}
			if round == 1 && !bytes.Contains(resp, cached) {
				t.Fatalf("instance %d: repeat missed its replica's cache: %s", i, resp)
			}
		}
	}
	if got := rt.Snapshot().Requests; got != 12 {
		t.Fatalf("router counted %d requests, want 12", got)
	}
}

// acceptCounter counts the connections a listener accepts.
type acceptCounter struct {
	net.Listener
	accepted atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestRouterHealthProbesNotCounted routes distinct solves to two
// backends while the router's health probe sends them stats queries:
// each backend's request count must equal the solves it served, however
// many probes it answered.
func TestRouterHealthProbesNotCounted(t *testing.T) {
	srvs := make([]*solveServer, 2)
	counters := make([]*acceptCounter, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srv, err := newSolveServer(serveOpts{cacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = &acceptCounter{Listener: l}
		t.Cleanup(func() { _ = l.Close() })
		go func() { _ = srv.Serve(counters[i]) }()
		srvs[i], addrs[i] = srv, l.Addr().String()
	}
	_, routerAddr := startFleetRouter(t, router.Config{Backends: addrs, HealthInterval: 2 * time.Millisecond})
	const solves = 8
	for i := 0; i < solves; i++ {
		if resp := oneShot(t, routerAddr, solveLine(t, serveInstance(10, float64(i)), "CCSA")); bytes.Contains(resp, []byte(`"error"`)) {
			t.Fatalf("solve %d failed: %s", i, resp)
		}
	}
	// Every probe dials its own connection: wait for three more on each
	// backend after the last solve.
	after := []int64{counters[0].accepted.Load(), counters[1].accepted.Load()}
	pollUntil(t, "three health probes per backend", func() bool {
		return counters[0].accepted.Load() >= after[0]+3 && counters[1].accepted.Load() >= after[1]+3
	})
	var total uint64
	for b, srv := range srvs {
		st := srv.cache.Stats()
		served := st.Hits + st.Misses // every solve is distinct: one solution-tier lookup each
		if got := srv.requests.Load(); got != served {
			t.Errorf("backend %d counted %d requests, served %d solves", b, got, served)
		}
		total += served
	}
	if total != solves {
		t.Fatalf("backends served %d solves, want %d", total, solves)
	}
}

// pollUntil retries cond every millisecond until it holds or the
// deadline passes.
func pollUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterFailoverOnBackendKill kills the busier backend of two and
// checks every fingerprint keeps solving through the survivor.
func TestRouterFailoverOnBackendKill(t *testing.T) {
	srvs, listeners, addrs := startFleet(t, 2, serveOpts{cacheSize: 64})
	rt, routerAddr := startFleetRouter(t, router.Config{Backends: addrs})

	lines := make([][]byte, 6)
	for i := range lines {
		lines[i] = solveLine(t, serveInstance(12, float64(i)), "CCSA")
	}
	for _, line := range lines {
		resp := oneShot(t, routerAddr, line)
		if bytes.Contains(resp, []byte(`"error"`)) {
			t.Fatalf("pre-kill solve failed: %s", resp)
		}
	}

	// Kill whichever backend served more traffic — it owns at least one
	// of the six fingerprints, so the re-run must fail over.
	victim := 0
	if srvs[1].requests.Load() > srvs[0].requests.Load() {
		victim = 1
	}
	_ = listeners[victim].Close()
	srvs[victim].BeginShutdown()
	srvs[victim].Drain(100 * time.Millisecond)

	for i, line := range lines {
		resp := oneShot(t, routerAddr, line)
		if bytes.Contains(resp, []byte(`"error"`)) {
			t.Fatalf("post-kill solve %d failed: %s", i, resp)
		}
	}
	if got := rt.Snapshot().Failovers; got == 0 {
		t.Fatal("no failovers counted although the owning backend died")
	}
}

// TestRouterShedsOverloadE2E fills a backend's in-flight budget and
// queue with slow solves, then checks the next request sheds with the
// exact structured response — and that the admitted requests finish.
func TestRouterShedsOverloadE2E(t *testing.T) {
	srvs, _, addrs := startFleet(t, 1, serveOpts{cacheSize: 0})
	srvs[0].solveDelay = 300 * time.Millisecond
	rt, routerAddr := startFleetRouter(t, router.Config{
		Backends:    addrs,
		MaxInflight: 1,
		MaxQueue:    1,
		CacheSize:   0,
	})

	results := make(chan []byte, 2)
	for seed := 0; seed < 2; seed++ {
		line := solveLine(t, serveInstance(12, float64(seed)), "CCSA")
		conn := dialAddr(t, routerAddr)
		go func() { results <- rawRoundTrip(t, conn, bufio.NewReader(conn), line) }()
		if seed == 0 {
			pollUntil(t, "first solve in flight", func() bool {
				return rt.Snapshot().Backends[0].Inflight == 1
			})
		} else {
			pollUntil(t, "second solve queued", func() bool {
				return rt.Snapshot().Backends[0].Queued == 1
			})
		}
	}
	got := oneShot(t, routerAddr, solveLine(t, serveInstance(12, 99), "CCSA"))
	if !bytes.Equal(got, overloadedLine) {
		t.Fatalf("shed response = %q, want %q", got, overloadedLine)
	}
	if st := rt.Snapshot(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
	for i := 0; i < 2; i++ {
		if resp := <-results; bytes.Contains(resp, []byte(`"error"`)) {
			t.Fatalf("admitted request failed: %s", resp)
		}
	}
}

// fleetRecord is one row of the BENCH_fleet.json artifact.
type fleetRecord struct {
	Backends     int     `json:"backends"`
	ReqPerSec    float64 `json:"reqPerSec"`
	SpeedupVsOne float64 `json:"speedupVsOne"`
}

// BenchmarkFleetScaling measures aggregate routed throughput on
// cache-miss-heavy traffic (every request a distinct fingerprint) as
// the fleet grows 1 -> 2 -> 4 backends. Solve latency is emulated with
// the solveDelay hook so per-backend capacity — not this host's single
// core — is the bottleneck; the router's MaxInflight bounds each
// backend at 4 concurrent solves of 10ms. Set BENCH_FLEET_OUT=path to
// emit the measured scaling as a JSON artifact.
func BenchmarkFleetScaling(b *testing.B) {
	const (
		maxInflight = 4
		solveDelay  = 10 * time.Millisecond
	)
	rates := map[int]float64{}
	for _, backends := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", backends), func(b *testing.B) {
			srvs, _, addrs := startFleet(b, backends, serveOpts{cacheSize: 0})
			for _, s := range srvs {
				s.solveDelay = solveDelay
			}
			rt, routerAddr := startFleetRouter(b, router.Config{
				Backends:    addrs,
				MaxInflight: maxInflight,
				MaxQueue:    1 << 16, // no shedding: the bench measures capacity, not policy
				CacheSize:   0,
			})
			defer func() {
				rt.BeginShutdown()
				rt.Drain(2 * time.Second)
				rt.Close()
			}()

			var next atomic.Int64
			b.SetParallelism(8 * maxInflight * backends) // keep every backend slot fed
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				conn, err := net.Dial("tcp", routerAddr)
				if err != nil {
					b.Error(err)
					return
				}
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				for pb.Next() {
					// A fresh nudge per request: all cache misses, spread
					// over the ring.
					line := solveLine(b, serveInstance(8, float64(next.Add(1))), "CCSA")
					if _, err := conn.Write(line); err != nil {
						b.Error(err)
						return
					}
					resp, err := br.ReadBytes('\n')
					if err != nil {
						b.Error(err)
						return
					}
					if bytes.Contains(resp, []byte(`"error"`)) {
						b.Errorf("solve failed: %s", resp)
						return
					}
				}
			})
			b.StopTimer()
			rate := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "req/s")
			rates[backends] = rate
		})
	}
	out := os.Getenv("BENCH_FLEET_OUT")
	if out == "" {
		return
	}
	var recs []fleetRecord
	for _, n := range []int{1, 2, 4} {
		recs = append(recs, fleetRecord{
			Backends:     n,
			ReqPerSec:    rates[n],
			SpeedupVsOne: rates[n] / rates[1],
		})
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote fleet scaling records to %s", out)
}
