// Tests and benchmarks for the incremental repair path on the session
// protocol (session.go + internal/core/repair.go): engagement and
// accounting, byte-level determinism of a delta stream under concurrent
// noise, -tick coalescing, and the BenchmarkDeltaRepair speedup pair
// recorded in BENCH_service.json.

package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// repairBenchInstance builds an n-device instance over twelve chargers
// on a 4×3 grid, so coalitions stay local (~n/12 devices each) and the
// dirty frontier of a single-device delta is far under the repair
// engine's fallback threshold — the workload the repair path exists for.
func repairBenchInstance(n int) *core.Instance {
	in := &core.Instance{Field: geom.Square(1000)}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       fmt.Sprintf("dev-%04d", i),
			Pos:      geom.Pt(float64(137*i%1000), float64(211*i%1000)),
			Demand:   100 + float64(i%7)*40,
			MoveRate: 0.01,
		})
	}
	tariffs := []pricing.Tariff{
		pricing.Tariff{Kind: pricing.Linear, Rate: 0.03},
		pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.25, Exponent: 0.85},
		testutil.MustTiered([]pricing.Tier{{UpTo: 200, Rate: 0.05}, {UpTo: math.Inf(1), Rate: 0.02}}),
	}
	for j := 0; j < 12; j++ {
		in.Chargers = append(in.Chargers, core.Charger{
			ID:         fmt.Sprintf("ch-%02d", j),
			Pos:        geom.Pt(float64(j%4)*250+125, float64(j/4)*333+167),
			Fee:        5 + float64(j%3),
			Tariff:     tariffs[j%3],
			Efficiency: 0.85 + 0.01*float64(j%5),
		})
	}
	return in
}

// TestServeDeltaRepairEngages pins the wiring end to end: a registered
// CCSGA session answers its delta solves from the repair path (bit1 of
// the schedule flags byte), and the server accounts them in both the
// counters and the TStats JSON.
func TestServeDeltaRepairEngages(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{maxSessions: 4})
	wc := newWireClient(dial())
	defer func() { _ = wc.conn.Close() }()

	shadow := repairBenchInstance(24)
	reg, err := wc.register(shadow, "CCSGA")
	if err != nil {
		t.Fatal(err)
	}
	if reg.repaired {
		t.Error("register response claims repaired; the priming solve is the full warm path")
	}

	ops := [][]sessionDelta{
		{{Op: opDemand, ID: "dev-0003", Demand: 480}},
		{{Op: opLeave, ID: "dev-0007"}},
		{{Op: opJoin, Device: &gen.DeviceDTO{ID: "dev-back", X: 410, Y: 333, Demand: 150, MoveRate: 0.01}}},
	}
	for k, batch := range ops {
		for _, d := range batch {
			if err := applyShadow(shadow, d); err != nil {
				t.Fatal(err)
			}
		}
		got, err := wc.delta(reg.session, batch)
		if err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
		if !got.repaired {
			t.Errorf("delta %d not answered by the repair path", k)
		}
		if _, ok := verifySessionSolve(shadow, got, t.Errorf); !ok {
			t.Fatalf("delta %d failed verification", k)
		}
	}
	if got := srv.repairSolves.Load(); got != uint64(len(ops)) {
		t.Errorf("repairSolves = %d, want %d", got, len(ops))
	}
	if got := srv.repairFallbacks.Load(); got != 0 {
		t.Errorf("repairFallbacks = %d, want 0", got)
	}

	typ, payload, err := wc.call(wire.TStats, nil)
	if err != nil || typ != wire.TOK {
		t.Fatalf("stats: type 0x%02X err %v", byte(typ), err)
	}
	if want := fmt.Sprintf(`"repairSolves":%d`, len(ops)); !strings.Contains(string(payload), want) {
		t.Errorf("stats %s missing %s", payload, want)
	}
	if !strings.Contains(string(payload), `"repairFallbacks":0`) {
		t.Errorf("stats %s missing repairFallbacks", payload)
	}
}

// TestServeSessionDeltaDeterministic replays one churn delta stream
// against two servers — the second one also serving a concurrent noise
// session — and requires byte-identical TSchedule payloads at every
// step. Sessions own their repair state, so neither server-level
// concurrency nor the repair path may leak into the answer bytes.
func TestServeSessionDeltaDeterministic(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	states := churnStates(t, 40, 6)
	stream := make([][]sessionDelta, len(states))
	for v := range states {
		stream[v] = churnDeltas(states[v], states[(v+1)%len(states)])
	}

	replay := func(withNoise bool) [][]byte {
		_, dial := startServerOpts(t, serveOpts{maxSessions: 8})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withNoise {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nc := newWireClient(dial())
				defer func() { _ = nc.conn.Close() }()
				reg, err := nc.register(repairBenchInstance(16), "CCSGA")
				if err != nil {
					t.Errorf("noise register: %v", err)
					return
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d := sessionDelta{Op: opDemand, ID: fmt.Sprintf("dev-%04d", i%16), Demand: 120 + float64(i%9)*30}
					if _, err := nc.delta(reg.session, []sessionDelta{d}); err != nil {
						t.Errorf("noise delta: %v", err)
						return
					}
				}
			}()
		}
		wc := newWireClient(dial())
		defer func() { _ = wc.conn.Close() }()
		reg, err := wc.register(churnInstance(states[0]), "CCSGA")
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(stream))
		for v, batch := range stream {
			payload := wire.AppendUvarint(nil, reg.session)
			payload, err = appendDeltaOps(payload, batch)
			if err != nil {
				t.Fatal(err)
			}
			typ, resp, err := wc.call(wire.TDelta, payload)
			if err != nil || typ != wire.TSchedule {
				t.Fatalf("step %d: type 0x%02X err %v (%s)", v, byte(typ), err, resp)
			}
			out[v] = resp
		}
		close(stop)
		wg.Wait()
		return out
	}

	quiet := replay(false)
	noisy := replay(true)
	for v := range quiet {
		if !bytes.Equal(quiet[v], noisy[v]) {
			t.Fatalf("step %d: delta response bytes diverge under concurrent noise", v)
		}
	}
}

// TestServeTickCoalesces pins -tick batching: concurrent delta requests
// inside one window share a single solve, every caller gets the
// coalesced response, and the combined batch is fully applied.
func TestServeTickCoalesces(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{maxSessions: 4, tick: 250 * time.Millisecond})
	wc := newWireClient(dial())
	defer func() { _ = wc.conn.Close() }()
	reg, err := wc.register(repairBenchInstance(24), "CCSGA")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cc := newWireClient(dial())
			defer func() { _ = cc.conn.Close() }()
			id := fmt.Sprintf("tick-%d", c)
			d := sessionDelta{Op: opJoin, Device: &gen.DeviceDTO{
				ID: id, X: float64(100 * c), Y: 500, Demand: 140, MoveRate: 0.01,
			}}
			got, err := cc.delta(reg.session, []sessionDelta{d})
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			// The shared response covers the caller's own join.
			for _, coal := range got.coalitions {
				for _, m := range coal.Devices {
					if m == id {
						return
					}
				}
			}
			t.Errorf("caller %d: coalesced response missing its own device %s", c, id)
		}(c)
	}
	wg.Wait()
	if got := srv.deltaSolves.Load(); got >= callers {
		t.Errorf("deltaSolves = %d for %d concurrent requests, want coalescing (< %d)", got, callers, callers)
	}

	// A follower's response is the leader's: every member of one window
	// sees the whole coalesced membership. After the windows drain, one
	// solo delta must see all four joined devices.
	got, err := wc.delta(reg.session, []sessionDelta{{Op: opDemand, ID: "dev-0001", Demand: 200}})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[string]bool)
	for _, c := range got.coalitions {
		for _, id := range c.Devices {
			members[id] = true
		}
	}
	for c := 0; c < callers; c++ {
		if id := fmt.Sprintf("tick-%d", c); !members[id] {
			t.Errorf("device %s missing after coalesced joins", id)
		}
	}
	if len(members) != 24+callers {
		t.Errorf("final membership %d devices, want %d", len(members), 24+callers)
	}
}

// TestTickFlagValidation pins the -tick flag contract.
func TestTickFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-serve", "-tick", "-1s"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-tick must be >= 0") {
		t.Errorf("negative tick: %v", err)
	}
	if err := run([]string{"-serve", "-tick", "10ms", "-max-sessions", "0"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-tick needs the session protocol") {
		t.Errorf("tick without sessions: %v", err)
	}
}

// BenchmarkDeltaRepair measures the delta hot path at n=1024 under
// single-device churn (one leave or one re-join per request), repair on
// versus the full warm dynamics (-serve would spell this noRepair).
// The repair/fullwarm req/s ratio is the BENCH_service.json headline.
func BenchmarkDeltaRepair(b *testing.B) {
	b.Run("repair", func(b *testing.B) { benchDeltaRepair(b, false) })
	b.Run("fullwarm", func(b *testing.B) { benchDeltaRepair(b, true) })
}

func benchDeltaRepair(b *testing.B, noRepair bool) {
	srv, err := newSolveServer(serveOpts{maxSessions: 4, noRepair: noRepair})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = srv.Serve(l) }()

	in := repairBenchInstance(1024)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	wc := newWireClient(conn)
	reg, err := wc.register(in, "CCSGA")
	if err != nil {
		b.Fatal(err)
	}
	// Pre-encode the churn cycle: device k leaves, then rejoins with its
	// original attributes, across 16 rotating devices — every frame is a
	// one-device delta, so frame i applies at step i for any N.
	var frames [][]byte
	for k := 0; k < 16; k++ {
		dev := in.Devices[k]
		leave := []sessionDelta{{Op: opLeave, ID: dev.ID}}
		join := []sessionDelta{{Op: opJoin, Device: &gen.DeviceDTO{
			ID: dev.ID, X: dev.Pos.X, Y: dev.Pos.Y, Demand: dev.Demand, MoveRate: dev.MoveRate,
		}}}
		for _, ops := range [][]sessionDelta{leave, join} {
			payload := wire.AppendUvarint(nil, reg.session)
			payload, err = appendDeltaOps(payload, ops)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := wire.NewWriter(&buf).WriteFrame(wire.TDelta, payload); err != nil {
				b.Fatal(err)
			}
			frames = append(frames, buf.Bytes())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
		typ, payload, err := wc.r.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if typ != wire.TSchedule {
			b.Fatalf("frame 0x%02X: %s", byte(typ), payload)
		}
	}
	b.StopTimer()
	if !noRepair && srv.repairSolves.Load() == 0 {
		b.Fatal("repair variant never took the repair path")
	}
	if noRepair && srv.repairSolves.Load() != 0 {
		b.Fatal("fullwarm variant took the repair path")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
