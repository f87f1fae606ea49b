// Regression tests for the serve path's failure/shutdown semantics: the
// oversized-request error line, the idle-connection reaper, the
// SIGINT drain, the raw-tier replay byte-identity, and the -metrics-addr
// sidecar end to end.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/wire"
)

// registrySnapshot renders reg as Prometheus text for assertions.
func registrySnapshot(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestServeOversizedRequest pins the ErrTooLong contract: a request line
// over maxRequestBytes gets a final {"error":"request too large"} line
// and a failure count instead of a silent hangup. Before the fix the
// scan loop swallowed sc.Err() and the client saw a bare EOF.
func TestServeOversizedRequest(t *testing.T) {
	reg := obs.NewRegistry()
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, reg: reg})
	conn := dial()

	// Stream >8 MiB with no newline; the server replies and hangs up
	// mid-write, so the writer runs concurrently and ignores errors.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := bytes.Repeat([]byte("x"), 1<<20)
		for i := 0; i < 9; i++ {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
	}()

	br := bufio.NewReader(conn)
	reply, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no error line before close: %v", err)
	}
	var resp solveResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("bad error line %q: %v", reply, err)
	}
	if resp.Err != "request too large" {
		t.Errorf("error = %q, want \"request too large\"", resp.Err)
	}
	// The connection closes after the error line (EOF, or a reset when
	// the server discards the unread remainder of the oversized line).
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Error("connection still serving after oversized request")
	}
	wg.Wait()
	if got := srv.failures.Load(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := srv.requests.Load(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
	if snap := registrySnapshot(t, reg); !strings.Contains(snap, "ccsd_oversized_requests_total 1") {
		t.Errorf("oversized counter missing from metrics:\n%s", snap)
	}
}

// TestServeIdleTimeout pins the reaper: a connection that stops sending
// requests is closed once -conn-idle-timeout elapses (the slow-loris fix
// PR 2 made in internal/testbed, now on the serve path too), counted as
// an idle close and not as a request failure.
func TestServeIdleTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, idleTimeout: 100 * time.Millisecond, reg: reg})
	conn := dial()
	br := bufio.NewReader(conn)

	// A live request-response exchange works within the window.
	if resp := roundTrip(t, conn, br, solveLine(t, serveInstance(4, 0), "CCSGA")); resp.Err != "" {
		t.Fatalf("solve failed: %s", resp.Err)
	}

	// Then the client goes quiet; the server must hang up on its own.
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := br.ReadBytes('\n'); err == io.EOF {
		// closed by the server, as required
	} else if err == nil {
		t.Fatal("server sent data to an idle connection")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("idle connection lingered %v, want ~100ms", waited)
	}
	if got := srv.failures.Load(); got != 0 {
		t.Errorf("idle close counted as %d request failure(s)", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if strings.Contains(registrySnapshot(t, reg), "ccsd_conn_idle_closed_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("idle-close counter missing from metrics:\n%s", registrySnapshot(t, reg))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrainWaitsForInflight pins the shutdown contract
// deterministically: a solve in flight when the drain starts completes,
// its response is written, and only then does drain return — while idle
// connections are unblocked immediately. Before the fix the summary
// printed while serveConn goroutines were still mutating the counters.
func TestServeDrainWaitsForInflight(t *testing.T) {
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4})
	srv.solveDelay = 300 * time.Millisecond

	idle := dial() // never sends anything; must not hold the drain
	busy := dial()
	if _, err := busy.Write(solveLine(t, serveInstance(10, 0), "CCSGA")); err != nil {
		t.Fatal(err)
	}
	// Let the server pick the request up and enter the (stretched) solve.
	time.Sleep(50 * time.Millisecond)

	srv.BeginShutdown()
	start := time.Now()
	if !srv.Drain(10 * time.Second) {
		t.Error("drain timed out and force-closed connections")
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Errorf("drain returned after %v — before the in-flight solve could finish", waited)
	}

	// The in-flight response landed in full before drain returned.
	var resp solveResponse
	reply, err := bufio.NewReader(busy).ReadBytes('\n')
	if err != nil {
		t.Fatalf("in-flight response dropped: %v", err)
	}
	if err := json.Unmarshal(reply, &resp); err != nil || resp.Err != "" || resp.Cost <= 0 {
		t.Errorf("in-flight response %q (err %v)", reply, err)
	}
	if got := srv.requests.Load(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
	// The idle connection was closed by the drain.
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(idle).ReadBytes('\n'); err != io.EOF {
		t.Errorf("idle connection not closed by drain: %v", err)
	}
}

// TestServeRawReplayByteIdentical pins the raw tier's contract: the
// replayed bytes for a repeat request are exactly the first response
// re-marshaled with Cached:true — nothing else may differ.
func TestServeRawReplayByteIdentical(t *testing.T) {
	_, dial := startServer(t, 8)
	conn := dial()
	br := bufio.NewReader(conn)
	line := solveLine(t, serveInstance(9, 0), "CCSGA")

	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	replay, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}

	var resp solveResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("bad first response %q: %v", first, err)
	}
	if resp.Cached {
		t.Fatal("first response claims cached")
	}
	resp.Cached = true
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(replay, want) {
		t.Errorf("raw replay diverged from re-marshaled Cached:true form:\n got %q\nwant %q", replay, want)
	}
}

// TestServeMetricsEndToEnd drives the full flag path with -metrics-addr:
// the sidecar must expose per-scheduler solve histograms, cache-tier
// counters sourced from instcache.Stats, the in-flight gauge, /healthz
// and pprof, and the service must still shut down cleanly on SIGINT.
func TestServeMetricsEndToEnd(t *testing.T) {
	pr, pw := io.Pipe()
	var (
		wg     sync.WaitGroup
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = pw.Close() }()
		runErr = run([]string{"-serve", "-listen", "127.0.0.1:0", "-cache-size", "8",
			"-metrics-addr", "127.0.0.1:0", "-conn-idle-timeout", "0"}, pw)
	}()

	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		t.Fatal("no serving line from daemon")
	}
	addr := strings.Fields(strings.TrimPrefix(scanner.Text(), "serving solves on "))[0]
	if !scanner.Scan() {
		t.Fatal("no metrics line from daemon")
	}
	metricsLine := scanner.Text()
	if !strings.HasPrefix(metricsLine, "metrics on http://") {
		t.Fatalf("unexpected metrics line %q", metricsLine)
	}
	base := strings.TrimSuffix(strings.TrimPrefix(metricsLine, "metrics on "), "/metrics")

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	ccsga := solveLine(t, serveInstance(8, 0), "CCSGA")
	for _, line := range [][]byte{ccsga, ccsga, solveLine(t, serveInstance(6, 0), "CCSA")} {
		if resp := roundTrip(t, conn, br, line); resp.Err != "" {
			t.Fatalf("solve failed: %s", resp.Err)
		}
	}

	// Session traffic feeds the repair instruments: register a session and
	// stream one delta, which the CCSGA scheduler answers incrementally.
	regResp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, repairBenchInstance(24), "CCSGA")))
	if regResp.Err != "" || regResp.Session == 0 {
		t.Fatalf("register failed: %+v", regResp)
	}
	deltaResp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: regResp.Session,
		Deltas: []sessionDelta{{Op: opDemand, ID: "dev-0003", Demand: 480}}}))
	if deltaResp.Err != "" {
		t.Fatalf("delta failed: %s", deltaResp.Err)
	}
	if !deltaResp.Repaired {
		t.Error("delta solve not answered by the repair path")
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`ccsd_solve_seconds_count{scheduler="CCSGA"} 2`, // raw replay skips the histogram; the register counts
		`ccsd_solve_seconds_count{scheduler="CCSA"} 1`,
		`ccsd_solve_seconds_bucket{scheduler="CCSGA",le="+Inf"} 2`,
		"ccsd_requests_total 5",
		"ccsd_request_failures_total 0",
		`ccsd_cache_hits_total{tier="raw"} 1`,
		`ccsd_cache_misses_total{tier="solutions"} 2`,
		`ccsd_cache_entries{tier="solutions"} 2`,
		"ccsd_inflight_connections 1",
		"# TYPE ccsd_solve_seconds histogram",
		"ccsd_repair_solves_total 1",
		"ccsd_repair_fallbacks_total 0",
		"ccsd_repair_solve_seconds_count 1",
		"ccsd_repair_frontier_devices_count 1",
		"# TYPE ccsd_repair_solve_seconds histogram",
		"# TYPE ccsd_repair_frontier_devices histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || len(body) == 0 {
		t.Errorf("/debug/pprof/cmdline = %d, %d bytes", code, len(body))
	}

	_ = conn.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for scanner.Scan() {
		rest.WriteString(scanner.Text())
		rest.WriteByte('\n')
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGINT")
	}
	if runErr != nil {
		t.Fatalf("daemon: %v", runErr)
	}
	if !strings.Contains(rest.String(), "served 5 request(s), 0 failed") {
		t.Errorf("shutdown summary missing counters:\n%s", rest.String())
	}
}

// TestServeDrainWaitsForInflightDelta pins the shutdown contract on the
// session path, deterministically: a delta solve in flight on a binary
// connection when the drain starts completes, its TSchedule frame is
// written, and only then does drain return.
func TestServeDrainWaitsForInflightDelta(t *testing.T) {
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, maxSessions: 4})
	wc := newWireClient(dial())
	reg, err := wc.register(sessionInstance(10, false), "CCSGA")
	if err != nil {
		t.Fatal(err)
	}
	// Stretch only the delta solve (registration already happened), put
	// one in flight, then start the drain while it is being served.
	srv.solveDelay = 300 * time.Millisecond
	payload := wire.AppendUvarint(nil, reg.session)
	payload, err = appendDeltaOps(payload, []sessionDelta{{Op: opDemand, ID: "dev-003", Demand: 321}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.w.WriteFrame(wire.TDelta, payload); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	srv.BeginShutdown()
	start := time.Now()
	if !srv.Drain(10 * time.Second) {
		t.Error("drain timed out and force-closed connections")
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Errorf("drain returned after %v — before the in-flight delta solve could finish", waited)
	}

	// The in-flight TSchedule frame landed in full before drain returned.
	typ, resp, err := wc.r.ReadFrame()
	if err != nil || typ != wire.TSchedule {
		t.Fatalf("in-flight delta response dropped: type 0x%02X err %v", byte(typ), err)
	}
	if got, err := decodeScheduleBlock(wire.NewDecoder(resp)); err != nil || got.cost <= 0 || !got.nash {
		t.Errorf("in-flight delta response %+v (err %v)", got, err)
	}
	if got := srv.deltaSolves.Load(); got != 1 {
		t.Errorf("delta solves = %d, want 1", got)
	}
	if !strings.Contains(srv.summary(), "1 session(s) registered, 1 delta solve(s)") {
		t.Errorf("summary %q missing session counters", srv.summary())
	}
}

// TestRunServeSessionSIGINT drives the session flags through run() and
// pins that a delta solve in flight when SIGINT lands still gets its
// response before the daemon exits.
func TestRunServeSessionSIGINT(t *testing.T) {
	pr, pw := io.Pipe()
	var (
		wg     sync.WaitGroup
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = pw.Close() }()
		runErr = run([]string{"-serve", "-listen", "127.0.0.1:0", "-cache-size", "8",
			"-max-sessions", "8", "-session-idle-timeout", "1m"}, pw)
	}()

	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		t.Fatal("no serving line from daemon")
	}
	first := scanner.Text()
	if !strings.Contains(first, "sessions up to 8") {
		t.Errorf("serving line %q missing session capacity", first)
	}
	addr := strings.Fields(strings.TrimPrefix(first, "serving solves on "))[0]

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	reg, err := gen.EncodeInstance(sessionInstance(40, false))
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(solveRequest{Register: true, Scheduler: "CCSGA", Instance: reg})
	if err != nil {
		t.Fatal(err)
	}
	resp := roundTrip(t, conn, br, append(line, '\n'))
	if resp.Err != "" || resp.Session == 0 {
		t.Fatalf("register: %+v", resp)
	}

	// A churn-heavy delta batch goes in flight, then the signal lands.
	var deltas []sessionDelta
	for i := 0; i < 30; i++ {
		deltas = append(deltas, sessionDelta{Op: opJoin, Device: &gen.DeviceDTO{
			ID: fmt.Sprintf("burst-%03d", i), X: float64(i * 31 % 1000), Y: float64(i * 57 % 1000),
			Demand: 150, MoveRate: 0.01,
		}})
	}
	line, err = json.Marshal(solveRequest{Session: resp.Session, Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	final := roundTrip(t, conn, br, nil)
	if final.Err != "" || final.Cost <= 0 || !final.Nash {
		t.Errorf("in-flight delta dropped during shutdown: %+v", final)
	}

	var rest strings.Builder
	for scanner.Scan() {
		rest.WriteString(scanner.Text())
		rest.WriteByte('\n')
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGINT")
	}
	if runErr != nil {
		t.Fatalf("daemon: %v", runErr)
	}
	if !strings.Contains(rest.String(), "1 session(s) registered, 1 delta solve(s)") {
		t.Errorf("shutdown summary missing session counters:\n%s", rest.String())
	}
}

// TestServeHardeningFlagValidation covers the new -serve knobs.
func TestServeHardeningFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "-conn-idle-timeout", "-1s"},
		{"-serve", "-drain-timeout", "0s"},
		{"-serve", "-slow-solve", "-1s"},
		{"-serve", "-max-sessions", "-1"},
		{"-serve", "-session-idle-timeout", "-1s"},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestServeNonFiniteCostErrorLine is the regression test for a solve
// whose total cost overflows float64: two capacitated chargers charging
// $1e308 a session must each serve one 5 J device (6.25 J bought at
// 80% efficiency; two would exceed the 12 J capacity), so the schedule's
// cost is +Inf. Validate accepts the instance, and before the fix the
// reply failed to render, the connection closed with no reply at all
// and no failure was counted. Now the client gets an error line, the
// failure is counted, and the connection keeps serving. The error is
// never cached: a repeat solves again and counts a solution-tier miss.
func TestServeNonFiniteCostErrorLine(t *testing.T) {
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 8, maxSessions: 4})
	conn := dial()
	br := bufio.NewReader(conn)
	charger := func(id string, x float64) string {
		return fmt.Sprintf(`{"id":%q,"x":%v,"y":0,"feeUSD":1e308,"tariff":{"kind":"linear","rate":0.1},"efficiency":0.8,"capacityJ":12}`, id, x)
	}
	inst := fmt.Sprintf(`{"fieldSide":100,"devices":[{"id":"d0","x":0,"y":0,"demandJ":5,"moveRatePerM":0.01},{"id":"d1","x":100,"y":0,"demandJ":5,"moveRatePerM":0.01}],"chargers":[%s,%s]}`,
		charger("c0", 0), charger("c1", 100))
	failures := uint64(0)
	for _, scheduler := range []string{"CCSGA", "CCSA", "NONCOOP"} {
		line := []byte(fmt.Sprintf(`{"instance":%s,"scheduler":%q}`+"\n", inst, scheduler))
		for i := 0; i < 2; i++ { // fresh solve, then a second solve
			before := srv.cache.Stats()
			resp := roundTrip(t, conn, br, line)
			if !strings.Contains(resp.Err, "not finite") {
				t.Fatalf("%s round %d: reply %+v, want a non-finite cost error", scheduler, i, resp)
			}
			failures++
			if got := srv.failures.Load(); got != failures {
				t.Fatalf("%s round %d: failures = %d, want %d", scheduler, i, got, failures)
			}
			if st := srv.cache.Stats(); st.Misses != before.Misses+1 || st.Hits != before.Hits || st.Size != 0 {
				t.Fatalf("%s round %d: solution tier %+v after %+v, want one more miss and nothing stored", scheduler, i, st, before)
			}
		}
	}
	// A session register renders the same cost; any reply that fails to
	// render becomes an error line.
	register := []byte(fmt.Sprintf(`{"register":true,"instance":%s}`+"\n", inst))
	if resp := roundTrip(t, conn, br, register); !strings.Contains(resp.Err, "render response") {
		t.Fatalf("register: reply %+v, want a render error", resp)
	}
	if got := srv.failures.Load(); got != failures+1 {
		t.Fatalf("register: failures = %d, want %d", got, failures+1)
	}
	if resp := roundTrip(t, conn, br, solveLine(t, serveInstance(4, 0), "CCSGA")); resp.Err != "" {
		t.Fatalf("connection stopped serving after the overflow: %s", resp.Err)
	}
}

// TestReplayLineMatchesMarshal pins the raw-tier splice to the second
// render it replaces: for every uncached reply shape, splicing
// "cached":true into the rendered bytes must give json.Marshal of the
// same reply with Cached set, byte for byte.
func TestReplayLineMatchesMarshal(t *testing.T) {
	srv, err := newSolveServer(serveOpts{cacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	replies := []solveResponse{
		{},
		{Cost: 1.5},
		{Sessions: 1},
		{Cost: 12.25, Sessions: 1, Coalitions: []coalitionJSON{{Charger: "c0", Devices: []string{"d0"}}}},
		{Coalitions: []coalitionJSON{{Charger: "<&>", Devices: []string{" ", `"`}}}},
	}
	for _, scheduler := range schedulerNames {
		req, err := parseLine(bytes.TrimSuffix(solveLine(t, serveInstance(8, 0), scheduler), []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		solved := srv.handle(req)
		var resp solveResponse
		if err := json.Unmarshal(solved.line, &resp); err != nil || resp.Cached {
			t.Fatalf("%s: reply %s (%v), want a fresh solve", scheduler, solved.line, err)
		}
		if again, err := renderLine(resp); err != nil || !bytes.Equal(again, solved.line) {
			t.Fatalf("%s: reply %s does not render back to itself: %s (%v)", scheduler, solved.line, again, err)
		}
		replies = append(replies, resp)
	}
	for _, resp := range replies {
		out, err := renderLine(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := replayEntry(out)
		resp.Cached = true
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("splice diverged from the second render:\n got %s\nwant %s", got, want)
		}
	}
}
