package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/shard"
)

// The stateless cold path recycles its memory across requests: the
// scanner's device and charger arrays, the cost model's tables, the
// charger game's buffers and the connection's reply buffers. The tests
// below are its aliasing referees: every reply must be the one fresh
// memory gives, whatever the connection, a concurrent connection, a
// session or the sharded branch did before or alongside it.

// largeFieldLine encodes one CCSGA solve line over gen.LargeField(n, m)
// drawn with seed.
func largeFieldLine(t testing.TB, seed int64, n, m int, scheduler string) []byte {
	t.Helper()
	in, err := gen.Instance(seed, gen.LargeField(n, m))
	if err != nil {
		t.Fatal(err)
	}
	return solveLine(t, in, scheduler)
}

// freshReply is the reply a stateless solve line gets, computed in fresh
// memory with neither a server, its caches nor its reply buffers: the
// encoding/json decode, a new cost model, the named scheduler, and
// json.Marshal of the response.
func freshReply(t testing.TB, line []byte, cached bool) []byte {
	t.Helper()
	req, err := parseLineReference(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.ParseInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	name := req.Scheduler
	if name == "" {
		name = "CCSA"
	}
	sched, err := schedulerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cm)
	if err != nil {
		t.Fatal(err)
	}
	return marshalSolve(t, in, plan, cm.TotalCost(plan), cached)
}

// marshalSolve renders a solve reply with json.Marshal over freshly built
// coalition lists.
func marshalSolve(t testing.TB, in *core.Instance, plan *core.Schedule, cost float64, cached bool) []byte {
	t.Helper()
	resp := solveResponse{Cost: cost, Sessions: len(plan.Coalitions), Cached: cached}
	for _, c := range plan.Coalitions {
		cj := coalitionJSON{Charger: in.Chargers[c.Charger].ID}
		for _, i := range c.Members {
			cj.Devices = append(cj.Devices, in.Devices[i].ID)
		}
		resp.Coalitions = append(resp.Coalitions, cj)
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// recycleMix is a request sequence whose sizes and schedulers change from
// line to line, so every recycled array is reused both larger and smaller
// than it was last filled.
func recycleMix(t testing.TB, seed int64) [][]byte {
	return [][]byte{
		largeFieldLine(t, seed, 200, 20, "CCSGA"),
		largeFieldLine(t, seed+1, 20, 4, "CCSGA"),
		largeFieldLine(t, seed+2, 200, 20, "CCSGA"),
		solveLine(t, serveInstance(7, float64(seed)), "OPT"),
		largeFieldLine(t, seed+3, 60, 6, "NONCOOP"),
		solveLine(t, serveInstance(30, float64(seed)), "CCSA"),
		largeFieldLine(t, seed+4, 120, 12, "CCSGA"),
	}
}

// TestServeRecycledRepliesMatchFresh sends an n=200 line, an n=20 line,
// a different n=200 line and more of mixed sizes and schedulers down one
// connection: each reply must be byte-identical to the fresh-memory one.
func TestServeRecycledRepliesMatchFresh(t *testing.T) {
	_, dial := startServer(t, 1024)
	conn := dial()
	br := bufio.NewReader(conn)
	for round := 0; round < 2; round++ {
		for k, line := range recycleMix(t, int64(10*round+1)) {
			if got, want := rawRoundTrip(t, conn, br, line), freshReply(t, line, false); !bytes.Equal(got, want) {
				t.Fatalf("round %d line %d:\n got %.200s\nwant %.200s", round, k, got, want)
			}
		}
	}
}

// TestServeRecycleConcurrentConnections sends distinct instances down
// concurrent connections, so the pools are shared between goroutines:
// every reply must match its fresh-memory solve. Run under -race.
func TestServeRecycleConcurrentConnections(t *testing.T) {
	_, dial := startServer(t, 1024)
	const workers = 4
	lines := make([][][]byte, workers)
	want := make([][][]byte, workers)
	for w := range lines {
		lines[w] = recycleMix(t, int64(100*w+7))
		for _, line := range lines[w] {
			want[w] = append(want[w], freshReply(t, line, false))
		}
	}
	conns := make([]net.Conn, workers)
	for w := range conns {
		conns[w] = dial()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			br := bufio.NewReader(conns[w])
			for k, line := range lines[w] {
				if _, err := conns[w].Write(line); err != nil {
					t.Error(err)
					return
				}
				got, err := br.ReadBytes('\n')
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[w][k]) {
					t.Errorf("worker %d line %d:\n got %.200s\nwant %.200s", w, k, got, want[w][k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServeRecycleLeavesSessionsIntact runs one session script — a JSON
// register and delta batches — on a quiet server and on one where
// stateless cold solves run between the steps on the session's own
// connection and alongside them on another: the register and delta
// replies must be byte-identical.
func TestServeRecycleLeavesSessionsIntact(t *testing.T) {
	in := serveInstance(30, 0)
	batches := [][]sessionDelta{
		{{Op: opDemand, ID: "d3", Demand: 260}, {Op: opLeave, ID: "d7"}},
		{{Op: opJoin, Device: &gen.DeviceDTO{ID: "dx", X: 420, Y: 380, Demand: 150, MoveRate: 0.01}}},
		{{Op: opDemand, ID: "d0", Demand: 90}, {Op: opDemand, ID: "dx", Demand: 310}},
	}
	script := func(noisy bool) [][]byte {
		_, dial := startServerOpts(t, serveOpts{cacheSize: 1024, maxSessions: 8})
		conn := dial()
		br := bufio.NewReader(conn)
		var replies [][]byte
		reg := rawRoundTrip(t, conn, br, jsonLine(t, registerRequest(t, in, "CCSGA")))
		replies = append(replies, reg)
		var id struct {
			Session uint64 `json:"session"`
		}
		if err := json.Unmarshal(reg, &id); err != nil || id.Session == 0 {
			t.Fatalf("register reply %s: %v", reg, err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if noisy {
			noise := make([][]byte, 12)
			for k := range noise {
				noise[k] = largeFieldLine(t, int64(500+k), 40+k%3*60, 8, "CCSGA")
			}
			nc := dial()
			wg.Add(1)
			go func() {
				defer wg.Done()
				nbr := bufio.NewReader(nc)
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := nc.Write(noise[k%len(noise)]); err != nil {
						t.Error(err)
						return
					}
					if _, err := nbr.ReadBytes('\n'); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for k, batch := range batches {
			if noisy {
				rawRoundTrip(t, conn, br, largeFieldLine(t, int64(900+k), 200, 20, "CCSGA"))
			}
			replies = append(replies, rawRoundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id.Session, Deltas: batch})))
		}
		close(stop)
		wg.Wait()
		return replies
	}
	quiet, noisy := script(false), script(true)
	for k := range quiet {
		if bytes.Contains(quiet[k], []byte(`"error"`)) {
			t.Fatalf("step %d failed: %s", k, quiet[k])
		}
		if !bytes.Equal(quiet[k], noisy[k]) {
			t.Fatalf("step %d diverges under stateless traffic:\n got %.200s\nwant %.200s", k, noisy[k], quiet[k])
		}
	}
}

// TestServeRecycleLeavesShardRepliesIntact interleaves sharded CCSGA
// solves with whole-field solves, which recycle, on a -shard-cell
// server: each sharded reply must equal shard.Solve's schedule rendered
// in fresh memory, and each whole-field reply its fresh solve.
func TestServeRecycleLeavesShardRepliesIntact(t *testing.T) {
	opts := shardServeOpts(0)
	_, dial := startServerOpts(t, opts)
	conn := dial()
	br := bufio.NewReader(conn)
	for k := 0; k < 4; k++ {
		in := serveInstance(24+8*k, float64(k))
		line := solveLine(t, in, "CCSGA")
		res, err := shard.Solve(in, core.CCSGAScheduler{}, opts.shard)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rawRoundTrip(t, conn, br, line), marshalSolve(t, in, res.Schedule, res.TotalCost, false); !bytes.Equal(got, want) {
			t.Fatalf("sharded solve %d:\n got %.200s\nwant %.200s", k, got, want)
		}
		for _, whole := range [][]byte{
			solveLine(t, serveInstance(40-8*k, float64(k)), "CCSA"),
			largeFieldLine(t, int64(k), 100, 10, "NONCOOP"),
		} {
			if got, want := rawRoundTrip(t, conn, br, whole), freshReply(t, whole, false); !bytes.Equal(got, want) {
				t.Fatalf("whole-field solve after sharded %d:\n got %.200s\nwant %.200s", k, got, want)
			}
		}
	}
}

// TestServeReplayEntrySurvivesLaterRequests stores two "cached":true
// replay entries — a raw-tier replay and a solution-tier hit — then
// sends requests that reuse the connection's reply buffers: replaying
// either line again must give the same bytes.
func TestServeReplayEntrySurvivesLaterRequests(t *testing.T) {
	_, dial := startServer(t, 1024)
	conn := dial()
	// A replay entry overwritten in place can lose its newline: fail
	// instead of waiting for it forever.
	if err := conn.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line := largeFieldLine(t, 3, 200, 20, "CCSGA")
	variant := append([]byte(" "), line...) // same instance, other bytes
	rawRoundTrip(t, conn, br, line)
	replay := rawRoundTrip(t, conn, br, line)
	hit := rawRoundTrip(t, conn, br, variant)
	want := freshReply(t, line, true)
	if !bytes.Equal(replay, want) || !bytes.Equal(hit, want) {
		t.Fatalf("cached replies:\n raw tier      %.200s\n solution tier %.200s\n want          %.200s", replay, hit, want)
	}
	for _, other := range recycleMix(t, 41) {
		rawRoundTrip(t, conn, br, other)
	}
	if got := rawRoundTrip(t, conn, br, line); !bytes.Equal(got, want) {
		t.Fatalf("raw-tier replay changed:\n got %.200s\nwant %.200s", got, want)
	}
	if got := rawRoundTrip(t, conn, br, variant); !bytes.Equal(got, want) {
		t.Fatalf("solution-tier replay changed:\n got %.200s\nwant %.200s", got, want)
	}
}

// coldServeLines returns n distinct LargeField(200, 20) CCSGA solve
// lines, the solve-cold benchmark workload's shape.
func coldServeLines(t testing.TB, n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = largeFieldLine(t, int64(i)+1, 200, 20, "CCSGA")
	}
	return lines
}

// Per-request allocation ceilings for the stateless cold path; before it
// recycled its memory a request cost about 350 allocations and 122 KB,
// and before both tiers shared one stored reply, 17 and 8 KB.
const (
	maxColdAllocs = 16
	maxColdBytes  = 7 << 10
)

// TestServeColdPathAllocs pins what one stateless cold request allocates
// once both cache tiers are full at their default 1024 entries, over
// distinct LargeField(200, 20) lines: only what outlives the request —
// the one stored reply both tiers share, the entries that index it, and
// the instance's ID strings — and a few small objects.
func TestServeColdPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const capacity, runs = 1024, 100
	srv, err := newSolveServer(serveOpts{cacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	lines := coldServeLines(t, capacity+1+2*runs)
	rb := newReplyBuf()
	next := 0
	serve := func() {
		if out := srv.answerLine(rb, lines[next]); bytes.Contains(out, []byte(`"error"`)) || bytes.Contains(out, []byte(`"cached"`)) {
			t.Fatalf("line %d: reply %.200s, want a cold solve", next, out)
		}
		next++
	}
	for next < capacity {
		serve()
	}
	allocs := testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("cold request: %.1f allocations, %d bytes", allocs, perRequest)
	if allocs > maxColdAllocs || perRequest > maxColdBytes {
		t.Fatalf("cold request allocates %.1f objects and %d bytes, want at most %d and %d",
			allocs, perRequest, maxColdAllocs, maxColdBytes)
	}
}

// BenchmarkServeColdLargeField measures stateless cold solves over
// loopback: distinct LargeField(200, 20) CCSGA lines, caches on, cycling
// through more lines than the tiers hold so every request misses both —
// the solve-cold benchmark workload on one connection. The tiers are
// filled before the clock starts, and the heap they keep per cached solve
// is reported as B-kept/solve. With -benchmem its allocations per op are
// the server's per-request allocations.
func BenchmarkServeColdLargeField(b *testing.B) {
	const distinct = 1100 // more than the 1024-entry tiers hold
	lines := coldServeLines(b, distinct)
	srv, err := newSolveServer(serveOpts{cacheSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	kept := heapPerCachedSolve(b, srv, lines)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = srv.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReaderSize(conn, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
		reply, err := br.ReadSlice('\n')
		if err != nil {
			b.Fatal(err)
		}
		if bytes.Contains(reply, []byte(`"error"`)) {
			b.Fatalf("solve failed: %s", reply)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(kept, "B-kept/solve")
}
