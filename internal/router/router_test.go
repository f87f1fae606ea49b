package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/instcache"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// stubBackend is a fake ccsd -serve speaking just enough of the
// newline-JSON protocol for routing tests: every request line goes
// through handler, which returns the full response line (newline
// included). The router never inspects solve responses, so stubs can
// answer anything syntactically line-shaped.
type stubBackend struct {
	t        *testing.T
	l        net.Listener
	handler  func(line []byte) []byte
	requests atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startStub(t *testing.T, handler func(line []byte) []byte) *stubBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubBackend{t: t, l: l, handler: handler, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(s.stop)
	return s
}

func (s *stubBackend) addr() string { return s.l.Addr().String() }

func (s *stubBackend) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *stubBackend) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() { _ = conn.Close() }()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxRequestBytes)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		s.requests.Add(1)
		if _, err := conn.Write(s.handler(line)); err != nil {
			return
		}
	}
}

// stop closes the listener and every live connection, then waits for
// the stub's goroutines — simulating a backend crash when called
// mid-test.
func (s *stubBackend) stop() {
	_ = s.l.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// okLine is a canned solve response; echoes a tag so tests can tell
// which stub answered.
func okLine(tag string) func([]byte) []byte {
	return func([]byte) []byte {
		return []byte(fmt.Sprintf(`{"totalCost":1,"stub":%q}`+"\n", tag))
	}
}

// startRouter builds a Router over the given backends and serves it on
// a loopback listener. Health probing is off unless cfg sets it, so
// liveness transitions in tests are driven only by transport errors.
func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	rt, err := New(cfg)
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
		testutil.CheckGoroutines(t, "repro/internal/router")
	})
	return rt, l.Addr().String()
}

// dialRouter opens a client connection to the router.
func dialRouter(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn.(*net.TCPConn)
}

// roundTrip sends one request line and reads one response line.
func roundTrip(t *testing.T, conn net.Conn, line []byte) []byte {
	t.Helper()
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading response to %s: %v", line, err)
	}
	return resp
}

// solveLine builds a stateless solve request around a real generated
// instance, so routing exercises the same canonical fingerprint path
// production traffic does.
func solveLine(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := gen.Instance(seed, gen.Default())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := gen.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"instance":`)
	// EncodeInstance indents; the serve protocol frames on newlines.
	if err := json.Compact(&buf, enc); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// lineKey computes the fingerprint the router will route the line by.
func lineKey(t *testing.T, seed int64) instcache.Key {
	t.Helper()
	in, err := gen.Instance(seed, gen.Default())
	if err != nil {
		t.Fatal(err)
	}
	key, err := instcache.KeyFor(in, "CCSA", "")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// seedOwnedBy hunts for an instance seed whose fingerprint the given
// backend index owns on the router's ring.
func seedOwnedBy(t *testing.T, rt *Router, want int) int64 {
	t.Helper()
	for seed := int64(1); seed < 64; seed++ {
		if rt.OwnerOf(lineKey(t, seed)) == want {
			return seed
		}
	}
	t.Fatalf("no seed in 1..63 owned by backend %d", want)
	return 0
}

func TestRouterAffinity(t *testing.T) {
	a := startStub(t, okLine("a"))
	b := startStub(t, okLine("b"))
	rt, addr := startRouter(t, Config{Backends: []string{a.addr(), b.addr()}})

	// One instance owned by each backend, solved twice on separate
	// connections: repeats must land on the same stub both times (cache
	// affinity), and the stub the ring picked, verifiably.
	seeds := []int64{seedOwnedBy(t, rt, 0), seedOwnedBy(t, rt, 1)}
	tags := []string{`"stub":"a"`, `"stub":"b"`}
	first := map[int64][]byte{}
	for round := 0; round < 2; round++ {
		for i, seed := range seeds {
			conn := dialRouter(t, addr)
			resp := roundTrip(t, conn, solveLine(t, seed))
			if !bytes.Contains(resp, []byte(tags[i])) {
				t.Fatalf("seed %d landed off its ring owner: %s", seed, resp)
			}
			if round == 0 {
				first[seed] = resp
			} else if !bytes.Equal(resp, first[seed]) {
				t.Fatalf("seed %d switched backends between rounds: %s vs %s", seed, first[seed], resp)
			}
			_ = conn.Close()
		}
	}
	if a.requests.Load() != 2 || b.requests.Load() != 2 {
		t.Fatalf("expected 2 solves per stub; got a=%d b=%d", a.requests.Load(), b.requests.Load())
	}
	if got := rt.requests.Load(); got != 4 {
		t.Fatalf("router counted %d requests, want 4", got)
	}
}

func TestRouterCoalescesConcurrentDuplicates(t *testing.T) {
	s := startStub(t, okLine("s"))
	rt, addr := startRouter(t, Config{
		Backends:     []string{s.addr()},
		CoalesceWait: 200 * time.Millisecond,
		CacheSize:    0,
	})

	const clients = 8
	line := solveLine(t, 7)
	responses := make([][]byte, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < clients; i++ {
		done.Add(1)
		conn := dialRouter(t, addr)
		go func(i int, conn net.Conn) {
			defer done.Done()
			start.Wait()
			responses[i] = roundTrip(t, conn, line)
		}(i, conn)
	}
	start.Done()
	done.Wait()

	if got := s.requests.Load(); got != 1 {
		t.Fatalf("stub saw %d solves for %d concurrent duplicates, want 1", got, clients)
	}
	if got := rt.coalesced.Load(); got != clients-1 {
		t.Fatalf("coalesced = %d, want %d", got, clients-1)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("follower %d got different bytes than the leader: %s vs %s",
				i, responses[i], responses[0])
		}
	}
}

func TestRouterShedsOverQueueSLO(t *testing.T) {
	release := make(chan struct{})
	s := startStub(t, func(line []byte) []byte {
		<-release
		return okLine("slow")(line)
	})
	rt, addr := startRouter(t, Config{
		Backends:    []string{s.addr()},
		MaxInflight: 1,
		MaxQueue:    1,
		CacheSize:   0,
	})
	b := rt.backends[0]

	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	type result struct{ resp []byte }
	results := make(chan result, 2)
	for seed := int64(1); seed <= 2; seed++ {
		conn := dialRouter(t, addr)
		line := solveLine(t, seed) // distinct fingerprints: no coalescing
		go func() {
			results <- result{roundTrip(t, conn, line)}
		}()
		if seed == 1 {
			wait("first solve in flight", func() bool { return b.inflight() == 1 })
		} else {
			wait("second solve queued", func() bool { return b.queued() == 1 })
		}
	}

	// In-flight budget and queue are both full: the third concurrent
	// solve must shed with the exact structured response, immediately.
	shedGot := roundTrip(t, dialRouter(t, addr), solveLine(t, 3))
	if !bytes.Equal(shedGot, shedResponse) {
		t.Fatalf("shed response = %q, want %q", shedGot, shedResponse)
	}
	if got := rt.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if bytes.Contains(r.resp, []byte("error")) {
			t.Fatalf("queued request failed: %s", r.resp)
		}
	}
	if got := s.requests.Load(); got != 2 {
		t.Fatalf("stub served %d requests, want the 2 admitted ones", got)
	}
}

func TestRouterFailoverOnDeadBackend(t *testing.T) {
	a := startStub(t, okLine("a"))
	b := startStub(t, okLine("b"))
	rt, addr := startRouter(t, Config{Backends: []string{a.addr(), b.addr()}})

	// Kill the backend that owns this instance; the router discovers the
	// death on dial and fails the key over to the survivor mid-request.
	seedA := seedOwnedBy(t, rt, 0)
	a.stop()
	resp := roundTrip(t, dialRouter(t, addr), solveLine(t, seedA))
	if !bytes.Contains(resp, []byte(`"stub":"b"`)) {
		t.Fatalf("expected survivor's response, got %s", resp)
	}
	if got := rt.failovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if rt.backends[0].healthy.Load() {
		t.Fatal("dead backend still marked healthy after a transport error")
	}

	// With the dead backend off the ring, repeats route straight to the
	// survivor without counting further failovers.
	_ = roundTrip(t, dialRouter(t, addr), solveLine(t, seedA))
	if got := rt.failovers.Load(); got != 1 {
		t.Fatalf("failovers after re-request = %d, want still 1", got)
	}
}

func TestRouterReplayTier(t *testing.T) {
	s := startStub(t, func([]byte) []byte {
		return []byte(`{"totalCost":1,"cached":true}` + "\n")
	})
	rt, addr := startRouter(t, Config{Backends: []string{s.addr()}, CacheSize: 16})

	line := solveLine(t, 9)
	conn := dialRouter(t, addr)
	br := bufio.NewReader(conn)
	send := func() []byte {
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		resp, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := send()
	second := send()
	if !bytes.Equal(first, second) {
		t.Fatalf("replayed response differs: %s vs %s", first, second)
	}
	if got := s.requests.Load(); got != 1 {
		t.Fatalf("stub saw %d requests, want 1 (second must replay locally)", got)
	}
	if got := rt.replayHits.Load(); got != 1 {
		t.Fatalf("replayHits = %d, want 1", got)
	}
}

func TestRouterReplayOnlyStoresBackendCachedResponses(t *testing.T) {
	s := startStub(t, okLine("fresh")) // no "cached":true marker
	rt, addr := startRouter(t, Config{Backends: []string{s.addr()}, CacheSize: 16})
	line := solveLine(t, 11)
	_ = roundTrip(t, dialRouter(t, addr), line)
	_ = roundTrip(t, dialRouter(t, addr), line)
	if got := s.requests.Load(); got != 2 {
		t.Fatalf("stub saw %d requests, want 2 (uncached responses must not be replayed)", got)
	}
	if got := rt.replayHits.Load(); got != 0 {
		t.Fatalf("replayHits = %d, want 0", got)
	}
}

func TestRouterStatsAnsweredLocally(t *testing.T) {
	s := startStub(t, okLine("s"))
	_, addr := startRouter(t, Config{Backends: []string{s.addr()}})
	resp := roundTrip(t, dialRouter(t, addr), []byte(`{"stats":true}`+"\n"))
	if !bytes.HasPrefix(resp, []byte(`{"router":`)) {
		t.Fatalf("stats response not router-shaped: %s", resp)
	}
	if got := s.requests.Load(); got != 0 {
		t.Fatalf("stats query reached a backend (%d requests)", got)
	}
}

func TestRouterRejectsMalformedAndSessionlessRequests(t *testing.T) {
	s := startStub(t, okLine("s"))
	rt, addr := startRouter(t, Config{Backends: []string{s.addr()}})
	for _, line := range []string{
		"not json\n",
		`{"scheduler":"CCSA"}` + "\n",          // no instance
		`{"session":5,"deltas":[]}` + "\n",     // session verb before any register
		`{"register":true,"session":0}` + "\n", // register without instance
	} {
		resp := roundTrip(t, dialRouter(t, addr), []byte(line))
		if !bytes.Contains(resp, []byte(`"error"`)) {
			t.Fatalf("request %q: got %s, want an error response", line, resp)
		}
	}
	if got := rt.failures.Load(); got != 4 {
		t.Fatalf("failures = %d, want 4", got)
	}
	if got := s.requests.Load(); got != 0 {
		t.Fatalf("malformed requests reached a backend (%d)", got)
	}
}

func TestRouterHealthProbeDropsAndRestoresBackend(t *testing.T) {
	a := startStub(t, okLine("a"))
	rt, _ := startRouter(t, Config{
		Backends:       []string{a.addr()},
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		HealthFails:    2,
	})
	b := rt.backends[0]
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	wait("initial healthy", func() bool { return b.healthy.Load() })

	savedAddr := a.addr()
	a.stop()
	wait("probe to mark backend down", func() bool { return !b.healthy.Load() })

	// Bring a backend up again on the same address: the probe loop must
	// restore ring membership without any request traffic.
	l, err := net.Listen("tcp", savedAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", savedAddr, err)
	}
	s2 := &stubBackend{t: t, l: l, handler: okLine("a2"), conns: map[net.Conn]struct{}{}}
	s2.wg.Add(1)
	go s2.acceptLoop()
	t.Cleanup(s2.stop)
	wait("probe to restore backend", func() bool { return b.healthy.Load() })
}

// binaryStub speaks wire frames: it answers every frame with TOK
// carrying the request type as its payload, tagging which stub ran.
func startBinaryStub(t *testing.T, tag byte) *stubBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubBackend{t: t, l: l, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func(conn net.Conn) {
				defer s.wg.Done()
				defer func() { _ = conn.Close() }()
				r := wire.NewReader(bufio.NewReader(conn), maxRequestBytes)
				defer r.Release()
				w := wire.NewWriter(conn)
				for {
					typ, _, err := r.ReadFrame()
					if err != nil {
						return
					}
					s.requests.Add(1)
					if err := w.WriteFrame(wire.TOK, []byte{byte(typ), tag}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(s.stop)
	return s
}

func TestRouterBinarySplice(t *testing.T) {
	s := startBinaryStub(t, 'A')
	rt, addr := startRouter(t, Config{Backends: []string{s.addr()}})

	conn := dialRouter(t, addr)
	w := wire.NewWriter(conn)
	r := wire.NewReader(bufio.NewReader(conn), maxRequestBytes)
	defer r.Release()
	// Several frames on one connection: the first routes, the rest ride
	// the splice; every response must come back through untouched.
	for i := 0; i < 3; i++ {
		if err := w.WriteFrame(wire.TStats, nil); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.TOK || !bytes.Equal(payload, []byte{byte(wire.TStats), 'A'}) {
			t.Fatalf("frame %d: got type %#x payload %v", i, typ, payload)
		}
	}
	if got := s.requests.Load(); got != 3 {
		t.Fatalf("stub saw %d frames, want 3", got)
	}
	if got := rt.binConns.Load(); got != 1 {
		t.Fatalf("binary conns counter = %d, want 1", got)
	}
}

// TestBinaryRegisterRoutesByFingerprint pins that a TRegister frame and
// the equivalent JSON solve land on the same circle position, so a
// session and its warm stateless solves share a replica.
func TestBinaryRegisterRoutesByFingerprint(t *testing.T) {
	in, err := gen.Instance(3, gen.Default())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := gen.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.AppendString(nil, "CCSGA")
	payload = append(payload, enc...)

	rt := &Router{}
	got := rt.binaryKeyHash(wire.TRegister, payload)
	key, err := instcache.KeyFor(in, "CCSGA", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := keyHash(key.Sum); got != want {
		t.Fatalf("binary register hash %#x != fingerprint hash %#x", got, want)
	}
	if h := rt.binaryKeyHash(wire.TStats, nil); h != 0 {
		t.Fatalf("non-register first frame hash = %#x, want 0", h)
	}
	if h := rt.binaryKeyHash(wire.TRegister, []byte{0xFF, 0xFF}); h != 0 {
		t.Fatalf("garbled register hash = %#x, want 0 fallback", h)
	}
}

// TestRegisterPlacementMatchesAcrossProtocols registers instances
// without a scheduler over JSON and over the binary protocol: both must
// key the session as the CCSGA solve the backend runs, and pin it to the
// same backend.
func TestRegisterPlacementMatchesAcrossProtocols(t *testing.T) {
	rt, err := New(Config{Backends: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	owners := map[int]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		in, err := gen.Instance(seed, gen.Default())
		if err != nil {
			t.Fatal(err)
		}
		key, err := registerKey(in, "")
		if err != nil {
			t.Fatal(err)
		}
		if key.Scheduler != "CCSGA" {
			t.Fatalf("JSON register keyed as %q, want CCSGA", key.Scheduler)
		}
		enc, err := gen.EncodeInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		binary := rt.ring.owner(rt.binaryKeyHash(wire.TRegister, append(wire.AppendString(nil, ""), enc...)), rt.alive)
		if json := rt.OwnerOf(key); json != binary {
			t.Fatalf("seed %d: JSON register owned by backend %d, binary register by %d", seed, json, binary)
		}
		owners[binary] = true
	}
	if len(owners) < 2 {
		t.Fatalf("12 instances all owned by backend(s) %v: placement not exercised", owners)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no backends":    {},
		"empty address":  {Backends: []string{""}},
		"duplicate":      {Backends: []string{"x:1", "x:1"}},
		"negative cache": {Backends: []string{"x:1"}, CacheSize: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}
