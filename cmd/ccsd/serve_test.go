package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pricing"
)

// serveInstance builds a deterministic n-device instance; nudge
// differentiates instances so the bench mix has distinct fingerprints.
func serveInstance(n int, nudge float64) *core.Instance {
	in := &core.Instance{Field: geom.Square(1000)}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       fmt.Sprintf("d%d", i),
			Pos:      geom.Pt(float64(37*i%1000), float64(83*i%1000)),
			Demand:   100 + float64(i%7)*40 + nudge,
			MoveRate: 0.01,
		})
	}
	for j := 0; j < 3; j++ {
		in.Chargers = append(in.Chargers, core.Charger{
			ID:         fmt.Sprintf("c%d", j),
			Pos:        geom.Pt(float64(200+300*j), 500),
			Fee:        8,
			Tariff:     pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9},
			Efficiency: 0.8,
		})
	}
	return in
}

// solveLine encodes one newline-terminated solve request.
func solveLine(t testing.TB, in *core.Instance, scheduler string) []byte {
	t.Helper()
	raw, err := gen.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(solveRequest{Instance: raw, Scheduler: scheduler})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, line); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// startServer runs a solveServer on a loopback listener and returns a
// dialer for it.
func startServer(t *testing.T, cacheSize int) (*solveServer, func() net.Conn) {
	t.Helper()
	return startServerOpts(t, serveOpts{cacheSize: cacheSize})
}

// startServerOpts is startServer with full control over the options.
func startServerOpts(t *testing.T, opts serveOpts) (*solveServer, func() net.Conn) {
	t.Helper()
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
	return srv, func() net.Conn {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
}

func roundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, line []byte) solveResponse {
	t.Helper()
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	reply, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp solveResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("bad response %q: %v", reply, err)
	}
	return resp
}

func TestServeSolvesAndCaches(t *testing.T) {
	_, dial := startServer(t, 16)
	conn := dial()
	br := bufio.NewReader(conn)
	in := serveInstance(12, 0)
	line := solveLine(t, in, "CCSGA")

	first := roundTrip(t, conn, br, line)
	if first.Err != "" {
		t.Fatalf("solve failed: %s", first.Err)
	}
	if first.Cached {
		t.Error("first solve reported cached")
	}
	if first.Cost <= 0 || first.Sessions < 1 || len(first.Coalitions) != first.Sessions {
		t.Errorf("implausible response %+v", first)
	}
	devices := 0
	for _, c := range first.Coalitions {
		if !strings.HasPrefix(c.Charger, "c") {
			t.Errorf("coalition charger %q not an instance charger ID", c.Charger)
		}
		devices += len(c.Devices)
	}
	if devices != 12 {
		t.Errorf("coalitions cover %d devices, want 12", devices)
	}

	second := roundTrip(t, conn, br, line)
	if !second.Cached {
		t.Error("identical instance not served from cache")
	}
	if second.Cost != first.Cost || second.Sessions != first.Sessions {
		t.Errorf("cached response diverged: %+v vs %+v", second, first)
	}

	// A second connection shares the same cache.
	conn2 := dial()
	br2 := bufio.NewReader(conn2)
	if resp := roundTrip(t, conn2, br2, line); !resp.Cached {
		t.Error("cache not shared across connections")
	}

	// A re-encoded duplicate (same instance, different bytes) misses the
	// raw tier but hits the canonical-fingerprint solution cache.
	variant := append([]byte(" "), line...)
	reenc := roundTrip(t, conn, br, variant)
	if !reenc.Cached || reenc.Cost != first.Cost {
		t.Errorf("re-encoded duplicate: cached=%v cost=%v, want cached hit at %v",
			reenc.Cached, reenc.Cost, first.Cost)
	}

	stats := roundTrip(t, conn, br, []byte(`{"stats":true}`+"\n"))
	if stats.Stats == nil {
		t.Fatal("stats query returned no stats")
	}
	if st := stats.Stats; st.Solutions.Misses != 1 || st.Solutions.Hits != 1 ||
		st.Solutions.Size != 1 || st.Raw.Hits != 2 {
		t.Errorf("stats %+v, want 1 solution miss + 1 hit and 2 raw hits", *st)
	}
	// Four solves; the stats query itself is not a request.
	if stats.Stats.Requests != 4 || stats.Stats.Failures != 0 {
		t.Errorf("request counters %+v, want 4 requests, 0 failures", *stats.Stats)
	}
}

func TestServeErrors(t *testing.T) {
	srv, dial := startServer(t, 4)
	conn := dial()
	br := bufio.NewReader(conn)

	if resp := roundTrip(t, conn, br, []byte("{nonsense\n")); resp.Err == "" {
		t.Error("malformed JSON did not error")
	}
	if resp := roundTrip(t, conn, br, []byte("{}\n")); resp.Err == "" {
		t.Error("empty request did not error")
	}
	bad := solveLine(t, serveInstance(4, 0), "MAGIC")
	if resp := roundTrip(t, conn, br, bad); !strings.Contains(resp.Err, "MAGIC") {
		t.Errorf("unknown scheduler error = %q", resp.Err)
	}
	invalid := []byte(`{"instance": {"fieldSide": 100, "devices": [], "chargers": []}}` + "\n")
	if resp := roundTrip(t, conn, br, invalid); resp.Err == "" {
		t.Error("invalid instance did not error")
	}
	// The connection survives all of the above.
	good := solveLine(t, serveInstance(4, 0), "CCSA")
	if resp := roundTrip(t, conn, br, good); resp.Err != "" {
		t.Errorf("good request after errors failed: %s", resp.Err)
	}
	if f := srv.failures.Load(); f != 4 {
		t.Errorf("failure counter %d, want 4", f)
	}
	if !strings.Contains(srv.summary(), "4 failed") {
		t.Errorf("summary %q missing failure count", srv.summary())
	}
}

func TestServeCacheOff(t *testing.T) {
	srv, err := newSolveServer(serveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.EncodeInstance(serveInstance(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	req := solveRequest{Instance: raw, Scheduler: "CCSGA"}
	a := srv.handle(req)
	b := srv.handle(req)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("solve failed: %q %q", a.Err, b.Err)
	}
	if a.Cached || b.Cached || a.entry != nil || b.entry != nil {
		t.Error("cache-off server reported cached responses or built raw-tier entries")
	}
	if len(a.line) == 0 || !bytes.Equal(a.line, b.line) {
		t.Errorf("reply not deterministic without cache: %s vs %s", a.line, b.line)
	}
	if st := srv.handle(solveRequest{Stats: true}); st.Stats == nil ||
		st.Stats.Solutions.Capacity != 0 || st.Stats.Raw.Capacity != 0 {
		t.Errorf("cache-off stats = %+v", st.Stats)
	}
	if !strings.Contains(srv.summary(), "cache off") {
		t.Errorf("summary %q missing cache-off note", srv.summary())
	}
}

// TestRunServeEndToEnd drives the full -serve flag path of run(),
// including shutdown on SIGINT and the counter summary line.
func TestRunServeEndToEnd(t *testing.T) {
	pr, pw := io.Pipe()
	var (
		wg     sync.WaitGroup
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = pw.Close() }()
		runErr = run([]string{"-serve", "-listen", "127.0.0.1:0", "-cache-size", "8"}, pw)
	}()

	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		t.Fatal("no serving line from daemon")
	}
	first := scanner.Text()
	if !strings.HasPrefix(first, "serving solves on ") {
		t.Fatalf("unexpected first line %q", first)
	}
	addr := strings.Fields(strings.TrimPrefix(first, "serving solves on "))[0]

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line := solveLine(t, serveInstance(8, 0), "CCSGA")
	for i, wantCached := range []bool{false, true} {
		resp := roundTrip(t, conn, br, line)
		if resp.Err != "" || resp.Cached != wantCached {
			t.Errorf("request %d: err=%q cached=%v, want cached=%v", i, resp.Err, resp.Cached, wantCached)
		}
	}
	_ = conn.Close()

	// Put a request in flight on a fresh connection (a distinct, larger
	// instance so it misses every cache tier and actually solves), then
	// signal shutdown before reading the reply: the drain must let the
	// solve complete and the response land before the summary prints.
	inflight, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	inflightLine := solveLine(t, serveInstance(120, 3), "CCSGA")
	if _, err := inflight.Write(inflightLine); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to pick the request off the socket so the
	// signal lands while the request is being served, not while it is
	// still in the kernel buffer (the deterministic drain coverage is
	// TestServeDrainWaitsForInflight; this end-to-end test asserts the
	// response is never dropped across SIGINT).
	time.Sleep(10 * time.Millisecond)

	// runServe installs a SIGINT handler; the signal reaches the whole
	// test process, but only that handler is listening.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	resp := roundTrip(t, inflight, bufio.NewReader(inflight), nil)
	if resp.Err != "" || resp.Cost <= 0 {
		t.Errorf("in-flight request dropped during shutdown: %+v", resp)
	}
	_ = inflight.Close()
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
	out := rest.String()
	if !strings.Contains(out, "served 3 request(s), 0 failed") ||
		!strings.Contains(out, "1 hit(s)") || !strings.Contains(out, "2 miss(es)") {
		t.Errorf("shutdown summary missing counters:\n%s", out)
	}
}

func TestServeFlagValidation(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-serve", "-cache-size", "0"}, &buf); err == nil {
		t.Error("-serve with -cache-size 0 should error")
	}
	if err := run([]string{"-serve", "-cache-size", "-5"}, &buf); err == nil {
		t.Error("negative -cache-size should error")
	}
}

// benchServe measures loopback request throughput on a duplicate-heavy mix
// (eight distinct instances cycling), the workload the cache is built for.
// withMetrics attaches a live obs registry, pinning the cost of the
// instrumented hot path next to the metrics-off baseline.
func benchServe(b *testing.B, cacheSize int, withMetrics bool) {
	opts := serveOpts{cacheSize: cacheSize}
	if withMetrics {
		opts.reg = obs.NewRegistry()
	}
	srv, err := newSolveServer(opts)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = srv.Serve(l) }()

	const distinct = 8
	lines := make([][]byte, distinct)
	for i := range lines {
		lines[i] = solveLine(b, serveInstance(100, float64(i)), "CCSGA")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		br := bufio.NewReader(conn)
		i := 0
		for pb.Next() {
			if _, err := conn.Write(lines[i%distinct]); err != nil {
				b.Error(err)
				return
			}
			i++
			reply, err := br.ReadBytes('\n')
			if err != nil {
				b.Error(err)
				return
			}
			if bytes.Contains(reply, []byte(`"error"`)) {
				b.Errorf("solve failed: %s", reply)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkServeUncached(b *testing.B)      { benchServe(b, 0, false) }
func BenchmarkServeCached(b *testing.B)        { benchServe(b, 64, false) }
func BenchmarkServeCachedMetrics(b *testing.B) { benchServe(b, 64, true) }
