// Tests for the session delta protocol (session.go) and its binary
// transport (serve_wire.go). The headline is the equivalence property:
// a session-path schedule must be a pure Nash equilibrium whose cost the
// client can reproduce from its own shadow instance, and it must stay
// within the PR 4 warm-start bound of an independent cold solve.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// sessionInstance builds a deterministic instance with the unique device
// IDs the session protocol requires.
func sessionInstance(n int, capacitated bool) *core.Instance {
	in := &core.Instance{Field: geom.Square(1000)}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       fmt.Sprintf("dev-%03d", i),
			Pos:      geom.Pt(float64(137*i%1000), float64(211*i%1000)),
			Demand:   100 + float64(i%7)*40,
			MoveRate: 0.01,
		})
	}
	var capacity float64
	if capacitated {
		capacity = 2000
	}
	// Heterogeneous chargers (distinct tariff kinds, fees, efficiencies),
	// like the instances the PR 4 warm-start bound was established on:
	// strong preference orderings keep the equilibrium landscape from
	// being artificially symmetric.
	tariffs := []pricing.Tariff{
		pricing.Tariff{Kind: pricing.Linear, Rate: 0.03},
		pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.25, Exponent: 0.85},
		testutil.MustTiered([]pricing.Tier{{UpTo: 200, Rate: 0.05}, {UpTo: math.Inf(1), Rate: 0.02}}),
	}
	for j := 0; j < 3; j++ {
		in.Chargers = append(in.Chargers, core.Charger{
			ID:         fmt.Sprintf("ch-%d", j),
			Pos:        geom.Pt(float64(200+300*j), float64(500-150*j)),
			Fee:        5 + float64(5*j),
			Tariff:     tariffs[j],
			Efficiency: 0.9 - 0.1*float64(j),
			Capacity:   capacity,
		})
	}
	return in
}

// jsonLine marshals any request as one newline-terminated line.
func jsonLine(t testing.TB, req solveRequest) []byte {
	t.Helper()
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

func registerRequest(t testing.TB, in *core.Instance, scheduler string) solveRequest {
	t.Helper()
	raw, err := gen.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	return solveRequest{Register: true, Scheduler: scheduler, Instance: raw}
}

// sessionSolve is a transport-neutral view of a session solve response,
// so the JSON and binary paths verify through the same helper.
type sessionSolve struct {
	session    uint64
	cost       float64
	passes     int
	switches   int
	nash       bool
	repaired   bool
	coalitions []coalitionJSON
}

func solveFromResponse(resp solveResponse) sessionSolve {
	return sessionSolve{
		session:    resp.Session,
		cost:       resp.Cost,
		passes:     resp.Passes,
		switches:   resp.Switches,
		nash:       resp.Nash,
		repaired:   resp.Repaired,
		coalitions: resp.Coalitions,
	}
}

// applyShadow mirrors one delta onto the client-side shadow instance,
// using the same DTO conversions the server applies so the floats stay
// bit-identical.
func applyShadow(in *core.Instance, d sessionDelta) error {
	switch d.Op {
	case opJoin:
		in.Devices = append(in.Devices, core.Device{
			ID:       d.Device.ID,
			Pos:      geom.Pt(d.Device.X, d.Device.Y),
			Demand:   d.Device.Demand,
			MoveRate: d.Device.MoveRate,
		})
		return nil
	case opLeave:
		for i := range in.Devices {
			if in.Devices[i].ID == d.ID {
				in.Devices = append(in.Devices[:i], in.Devices[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("shadow: unknown device %q", d.ID)
	case opDemand:
		for i := range in.Devices {
			if in.Devices[i].ID == d.ID {
				in.Devices[i].Demand = d.Demand
				return nil
			}
		}
		return fmt.Errorf("shadow: unknown device %q", d.ID)
	case opTariff:
		tf, err := gen.DecodeTariff(*d.Tariff)
		if err != nil {
			return err
		}
		for j := range in.Chargers {
			if in.Chargers[j].ID == d.Charger {
				in.Chargers[j].Tariff = tf
				return nil
			}
		}
		return fmt.Errorf("shadow: unknown charger %q", d.Charger)
	}
	return fmt.Errorf("shadow: unknown op %q", d.Op)
}

// verifySessionSolve rebuilds the shadow instance independently, checks
// the server's schedule is a valid capacity-feasible partition whose
// reported cost the client reproduces, checks the Nash claim, and
// returns the warm/cold cost ratio against an independent cold solve.
// All failures report through errf (safe from worker goroutines).
func verifySessionSolve(shadow *core.Instance, got sessionSolve, errf func(string, ...any)) (float64, bool) {
	cp := &core.Instance{Field: shadow.Field}
	cp.Devices = append([]core.Device(nil), shadow.Devices...)
	cp.Chargers = append([]core.Charger(nil), shadow.Chargers...)
	cm, err := core.NewCostModel(cp)
	if err != nil {
		errf("shadow rebuild: %v", err)
		return 0, false
	}
	devIdx := make(map[string]int, len(cp.Devices))
	for i, d := range cp.Devices {
		devIdx[d.ID] = i
	}
	chIdx := make(map[string]int, len(cp.Chargers))
	for j, c := range cp.Chargers {
		chIdx[c.ID] = j
	}
	sched := &core.Schedule{}
	for _, c := range got.coalitions {
		j, ok := chIdx[c.Charger]
		if !ok {
			errf("response names unknown charger %q", c.Charger)
			return 0, false
		}
		members := make([]int, 0, len(c.Devices))
		for _, id := range c.Devices {
			i, ok := devIdx[id]
			if !ok {
				errf("response names unknown device %q", id)
				return 0, false
			}
			members = append(members, i)
		}
		sort.Ints(members)
		sched.Coalitions = append(sched.Coalitions, core.Coalition{Charger: j, Members: members})
	}
	if err := sched.Validate(len(cp.Devices), len(cp.Chargers)); err != nil {
		errf("session schedule not a valid partition: %v", err)
		return 0, false
	}
	if err := cm.ValidateCapacity(sched); err != nil {
		errf("session schedule: %v", err)
		return 0, false
	}
	if !got.nash {
		errf("session solve not Nash stable")
		return 0, false
	}
	local := cm.TotalCost(sched)
	if math.Abs(local-got.cost) > 1e-9*(1+math.Abs(local)) {
		errf("reported cost %v, client recomputes %v", got.cost, local)
		return 0, false
	}
	cold, err := core.CCSGA(cm, core.CCSGAOptions{})
	if err != nil {
		errf("cold solve: %v", err)
		return 0, false
	}
	coldCost := cm.TotalCost(cold.Schedule)
	ratio := got.cost / coldCost
	if ratio > 1.10 {
		errf("session cost %v exceeds cold cost %v by >10%%", got.cost, coldCost)
		return ratio, false
	}
	return ratio, true
}

// --- binary transport helpers (the client half of serve_wire.go) ---

type wireClient struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

func newWireClient(conn net.Conn) *wireClient {
	return &wireClient{
		conn: conn,
		r:    wire.NewReader(bufio.NewReader(conn), maxRequestBytes),
		w:    wire.NewWriter(conn),
	}
}

func (c *wireClient) call(typ wire.Type, payload []byte) (wire.Type, []byte, error) {
	if err := c.w.WriteFrame(typ, payload); err != nil {
		return 0, nil, err
	}
	rt, rp, err := c.r.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	out := append([]byte(nil), rp...) // detach from the reader's buffer
	return rt, out, nil
}

// appendDeltaOps encodes ops in the TDelta payload format.
func appendDeltaOps(b []byte, ops []sessionDelta) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(ops)))
	for _, d := range ops {
		switch d.Op {
		case opJoin:
			b = append(b, opcodeJoin)
			b = wire.AppendString(b, d.Device.ID)
			b = wire.AppendFloat64(b, d.Device.X)
			b = wire.AppendFloat64(b, d.Device.Y)
			b = wire.AppendFloat64(b, d.Device.Demand)
			b = wire.AppendFloat64(b, d.Device.MoveRate)
		case opLeave:
			b = append(b, opcodeLeave)
			b = wire.AppendString(b, d.ID)
		case opDemand:
			b = append(b, opcodeDemand)
			b = wire.AppendString(b, d.ID)
			b = wire.AppendFloat64(b, d.Demand)
		case opTariff:
			b = append(b, opcodeTariff)
			b = wire.AppendString(b, d.Charger)
			var err error
			if b, err = appendTariffDTO(b, d.Tariff); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("encode: unknown op %q", d.Op)
		}
	}
	return b, nil
}

func appendTariffDTO(b []byte, dto *gen.TariffDTO) ([]byte, error) {
	switch dto.Kind {
	case "linear":
		b = append(b, 0)
		return wire.AppendFloat64(b, dto.Rate), nil
	case "powerlaw":
		b = append(b, 1)
		b = wire.AppendFloat64(b, dto.Coeff)
		return wire.AppendFloat64(b, dto.Exponent), nil
	case "tiered":
		b = append(b, 2)
		b = wire.AppendUvarint(b, uint64(len(dto.Tiers)))
		for _, tier := range dto.Tiers {
			upTo := math.Inf(1)
			if tier.UpTo != "inf" {
				var err error
				if upTo, err = strconv.ParseFloat(tier.UpTo, 64); err != nil {
					return nil, err
				}
			}
			b = wire.AppendFloat64(b, upTo)
			b = wire.AppendFloat64(b, tier.Rate)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("encode: unknown tariff kind %q", dto.Kind)
	}
}

// decodeScheduleBlock parses the schedule block shared by TSession and
// TSchedule payloads.
func decodeScheduleBlock(d *wire.Decoder) (sessionSolve, error) {
	var out sessionSolve
	out.cost = d.Float64()
	out.passes = int(d.Uvarint())
	out.switches = int(d.Uvarint())
	flags := d.Byte()
	out.nash = flags&1 != 0
	out.repaired = flags&2 != 0
	ncoal := d.Uvarint()
	for k := uint64(0); k < ncoal && d.Err() == nil; k++ {
		cj := coalitionJSON{Charger: d.String()}
		nm := d.Uvarint()
		for i := uint64(0); i < nm && d.Err() == nil; i++ {
			cj.Devices = append(cj.Devices, d.String())
		}
		out.coalitions = append(out.coalitions, cj)
	}
	return out, d.Done()
}

func (c *wireClient) register(in *core.Instance, scheduler string) (sessionSolve, error) {
	raw, err := gen.EncodeInstance(in)
	if err != nil {
		return sessionSolve{}, err
	}
	payload := wire.AppendString(nil, scheduler)
	payload = append(payload, raw...)
	typ, resp, err := c.call(wire.TRegister, payload)
	if err != nil {
		return sessionSolve{}, err
	}
	if typ == wire.TError {
		return sessionSolve{}, fmt.Errorf("server: %s", resp)
	}
	if typ != wire.TSession {
		return sessionSolve{}, fmt.Errorf("register answered frame 0x%02X", byte(typ))
	}
	d := wire.NewDecoder(resp)
	id := d.Uvarint()
	out, err := decodeScheduleBlock(d)
	out.session = id
	return out, err
}

func (c *wireClient) delta(id uint64, ops []sessionDelta) (sessionSolve, error) {
	payload := wire.AppendUvarint(nil, id)
	payload, err := appendDeltaOps(payload, ops)
	if err != nil {
		return sessionSolve{}, err
	}
	typ, resp, err := c.call(wire.TDelta, payload)
	if err != nil {
		return sessionSolve{}, err
	}
	if typ == wire.TError {
		return sessionSolve{}, fmt.Errorf("server: %s", resp)
	}
	if typ != wire.TSchedule {
		return sessionSolve{}, fmt.Errorf("delta answered frame 0x%02X", byte(typ))
	}
	out, err := decodeScheduleBlock(wire.NewDecoder(resp))
	out.session = id
	return out, err
}

// --- the equivalence property ---

// sessionWorker streams one randomized delta session and verifies every
// solve. Even workers speak JSON, odd workers speak binary frames, so
// both transports run concurrently against one listener.
func sessionWorker(t *testing.T, dial func() net.Conn, worker, batches int,
	ratioSum *float64, solves *int, mu *sync.Mutex) {
	errf := func(format string, args ...any) {
		t.Errorf("worker %d: "+format, append([]any{worker}, args...)...)
	}
	r := rand.New(rand.NewSource(int64(1000 + worker)))
	capacitated := worker%3 == 0
	shadow := sessionInstance(8+worker%5, capacitated)
	conn := dial()
	binary := worker%2 == 1

	var (
		jsonBR *bufio.Reader
		wc     *wireClient
	)
	var got sessionSolve
	if binary {
		wc = newWireClient(conn)
		solve, err := wc.register(shadow, "CCSGA")
		if err != nil {
			errf("register: %v", err)
			return
		}
		got = solve
	} else {
		jsonBR = bufio.NewReader(conn)
		if _, err := conn.Write(jsonLine(t, registerRequest(t, shadow, "CCSGA"))); err != nil {
			errf("register write: %v", err)
			return
		}
		line, err := jsonBR.ReadBytes('\n')
		if err != nil {
			errf("register read: %v", err)
			return
		}
		var resp solveResponse
		if err := json.Unmarshal(line, &resp); err != nil || resp.Err != "" {
			errf("register: %q (%v)", line, err)
			return
		}
		got = solveFromResponse(resp)
	}
	if got.session == 0 {
		errf("register returned session 0")
		return
	}
	id := got.session
	if ratio, ok := verifySessionSolve(shadow, got, errf); ok {
		mu.Lock()
		*ratioSum += ratio
		*solves++
		mu.Unlock()
	} else {
		return
	}

	nextID := 0
	for step := 0; step < batches; step++ {
		ops := randomDeltaBatch(r, shadow, worker, &nextID, !capacitated)
		for _, d := range ops {
			if err := applyShadow(shadow, d); err != nil {
				errf("step %d: %v", step, err)
				return
			}
		}
		var err error
		if binary {
			got, err = wc.delta(id, ops)
		} else {
			var resp solveResponse
			if _, werr := conn.Write(jsonLine(t, solveRequest{Session: id, Deltas: ops})); werr != nil {
				errf("step %d write: %v", step, werr)
				return
			}
			line, rerr := jsonBR.ReadBytes('\n')
			if rerr != nil {
				errf("step %d read: %v", step, rerr)
				return
			}
			if err = json.Unmarshal(line, &resp); err == nil && resp.Err != "" {
				err = fmt.Errorf("server: %s", resp.Err)
			}
			got = solveFromResponse(resp)
		}
		if err != nil {
			errf("step %d: %v", step, err)
			return
		}
		ratio, ok := verifySessionSolve(shadow, got, func(format string, args ...any) {
			errf("step %d: "+format, append([]any{step}, args...)...)
		})
		if !ok {
			return
		}
		mu.Lock()
		*ratioSum += ratio
		*solves++
		mu.Unlock()
	}
}

// randomDeltaBatch draws 1–3 ops valid against the shadow's current
// state. tariffs gates tariff updates: under binding session capacities
// a price change can strand a full charger's members (no device can
// individually migrate into a full cheaper slot), which is outside the
// warm-start bound's regime — PR 4 established the capacitated bound
// over membership and demand churn only.
func randomDeltaBatch(r *rand.Rand, shadow *core.Instance, worker int, nextID *int, tariffs bool) []sessionDelta {
	n := 1 + r.Intn(3)
	ops := make([]sessionDelta, 0, n)
	// Track IDs as the batch itself mutates membership.
	present := make(map[string]bool, len(shadow.Devices))
	for _, d := range shadow.Devices {
		present[d.ID] = true
	}
	pick := func() string {
		ids := make([]string, 0, len(present))
		for id := range present {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids[r.Intn(len(ids))]
	}
	for len(ops) < n {
		roll := r.Float64()
		if !tariffs && roll >= 0.85 {
			roll = r.Float64() * 0.85
		}
		switch {
		case roll < 0.30:
			*nextID++
			id := fmt.Sprintf("w%d-join-%04d", worker, *nextID)
			ops = append(ops, sessionDelta{Op: opJoin, Device: &gen.DeviceDTO{
				ID: id, X: r.Float64() * 1000, Y: r.Float64() * 1000,
				Demand: 80 + r.Float64()*300, MoveRate: 0.005 + r.Float64()*0.02,
			}})
			present[id] = true
		case roll < 0.55 && len(present) > 2:
			id := pick()
			ops = append(ops, sessionDelta{Op: opLeave, ID: id})
			delete(present, id)
		case roll < 0.85 && len(present) > 0:
			ops = append(ops, sessionDelta{Op: opDemand, ID: pick(), Demand: 80 + r.Float64()*300})
		default:
			// A tariff update is a price adjustment within the charger's
			// tariff kind, not a product change: the warm-start cost
			// bound is an empirical property of streaming perturbations,
			// and a price shock that rewrites the whole cost landscape is
			// a new instance, not a delta (re-register for that).
			j := r.Intn(len(shadow.Chargers))
			var dto gen.TariffDTO
			switch j {
			case 0:
				dto = gen.TariffDTO{Kind: "linear", Rate: 0.02 + r.Float64()*0.02}
			case 1:
				dto = gen.TariffDTO{Kind: "powerlaw", Coeff: 0.2 + r.Float64()*0.1, Exponent: 0.8 + r.Float64()*0.1}
			default:
				dto = gen.TariffDTO{Kind: "tiered", Tiers: []gen.TierDTO{
					{UpTo: strconv.FormatFloat(150+r.Float64()*100, 'g', -1, 64), Rate: 0.04 + r.Float64()*0.02},
					{UpTo: "inf", Rate: 0.02},
				}}
			}
			ops = append(ops, sessionDelta{Op: opTariff, Charger: shadow.Chargers[j].ID, Tariff: &dto})
		}
	}
	return ops
}

// TestPropertySessionDeltaEquivalence is the tentpole's correctness
// claim: across randomized 100+-step delta streams, every session-path
// schedule is pure Nash, the client reproduces its cost from an
// independently rebuilt instance, and the cost stays within the warm-
// start bound of a cold solve — ≤1.10× per solve, ≤1.01 mean. Run under
// -race this also shakes out session-state races at Workers 8.
func TestPropertySessionDeltaEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("Workers%d", workers), func(t *testing.T) {
			testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
			_, dial := startServerOpts(t, serveOpts{maxSessions: 32})
			batches := 120
			if workers > 1 {
				batches = 30 // 8×30 = 240 solves total
			}
			var (
				mu       sync.Mutex
				ratioSum float64
				solves   int
				wg       sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sessionWorker(t, dial, w, batches, &ratioSum, &solves, &mu)
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			want := workers * (batches + 1)
			if solves != want {
				t.Fatalf("verified %d solves, want %d", solves, want)
			}
			if mean := ratioSum / float64(solves); mean > 1.01 {
				t.Errorf("mean session/cold cost ratio %.4f over %d solves, want ≤ 1.01", mean, solves)
			}
		})
	}
}

// --- session lifecycle tests ---

// TestSessionLRUEviction pins the bounded-session contract: beyond
// -max-sessions the least-recently-used session is evicted, a delta
// against it answers exactly {"error":"unknown session"}, and recency is
// updated by use.
func TestSessionLRUEviction(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	reg := obs.NewRegistry()
	srv, dial := startServerOpts(t, serveOpts{maxSessions: 2, reg: reg})
	conn := dial()
	br := bufio.NewReader(conn)

	register := func(n int) uint64 {
		t.Helper()
		resp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, sessionInstance(n, false), "CCSGA")))
		if resp.Err != "" || resp.Session == 0 {
			t.Fatalf("register: %+v", resp)
		}
		return resp.Session
	}
	delta := func(id uint64) solveResponse {
		t.Helper()
		line := jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
			{Op: opDemand, ID: "dev-000", Demand: 150},
		}})
		return roundTrip(t, conn, br, line)
	}

	id1, id2 := register(4), register(5)
	id3 := register(6) // capacity 2: id1 is evicted

	// The evicted session answers the exact unknown-session line.
	if _, err := conn.Write(jsonLine(t, solveRequest{Session: id1, Deltas: []sessionDelta{{Op: opLeave, ID: "dev-000"}}})); err != nil {
		t.Fatal(err)
	}
	raw, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":"unknown session"}` + "\n"; string(raw) != want {
		t.Errorf("delta after evict = %q, want %q", raw, want)
	}

	// Using id2 refreshes it, so the next register evicts id3, not id2.
	if resp := delta(id2); resp.Err != "" {
		t.Fatalf("delta on live session: %s", resp.Err)
	}
	register(7)
	if resp := delta(id3); resp.Err != "unknown session" {
		t.Errorf("delta on LRU-evicted session = %q, want unknown session", resp.Err)
	}
	if resp := delta(id2); resp.Err != "" {
		t.Errorf("recently used session evicted: %s", resp.Err)
	}

	if got := srv.sessions.evictLRU.Load(); got != 2 {
		t.Errorf("LRU evictions = %d, want 2", got)
	}
	if got := srv.unknownSession.Load(); got != 2 {
		t.Errorf("unknown-session count = %d, want 2", got)
	}
	snap := registrySnapshot(t, reg)
	for _, want := range []string{
		"ccsd_sessions_active 2",
		"ccsd_sessions_registered_total 4",
		`ccsd_session_evictions_total{reason="lru"} 2`,
		"ccsd_unknown_session_total 2",
		"ccsd_delta_solves_total 2",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", snap)
	}
}

// TestSessionIdleExpiry pins -session-idle-timeout: a session untouched
// past the TTL lazily expires at its next use and answers the clean
// unknown-session error.
func TestSessionIdleExpiry(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{maxSessions: 8, sessionTTL: time.Minute})
	// Deterministic clock: the offset advances instead of the wall.
	base := time.Now()
	var offset atomic.Int64
	srv.sessions.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }

	conn := dial()
	br := bufio.NewReader(conn)
	resp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, sessionInstance(5, false), "CCSGA")))
	if resp.Err != "" || resp.Session == 0 {
		t.Fatalf("register: %+v", resp)
	}
	id := resp.Session
	deltaLine := jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opDemand, ID: "dev-001", Demand: 200},
	}})

	// Within the TTL the session stays live, and use refreshes it.
	offset.Store(int64(45 * time.Second))
	if resp := roundTrip(t, conn, br, deltaLine); resp.Err != "" {
		t.Fatalf("delta within TTL: %s", resp.Err)
	}
	offset.Store(int64(80 * time.Second)) // 35s after the touch — still fresh
	if resp := roundTrip(t, conn, br, deltaLine); resp.Err != "" {
		t.Fatalf("delta after refresh: %s", resp.Err)
	}

	// Then the session goes quiet past the TTL.
	offset.Store(int64(80*time.Second) + int64(61*time.Second))
	if resp := roundTrip(t, conn, br, deltaLine); resp.Err != "unknown session" {
		t.Errorf("delta after idle expiry = %q, want unknown session", resp.Err)
	}
	if got := srv.sessions.evictTTL.Load(); got != 1 {
		t.Errorf("idle evictions = %d, want 1", got)
	}
	if got := srv.sessions.active(); got != 0 {
		t.Errorf("active sessions = %d, want 0", got)
	}
}

// TestSessionDeltaSemantics pins the failure modes of delta batches:
// prefix application on error, duplicate joins, unknown targets, the
// empty-session guard, and close idempotence.
func TestSessionDeltaSemantics(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{maxSessions: 4})
	conn := dial()
	br := bufio.NewReader(conn)
	resp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, sessionInstance(2, false), "CCSGA")))
	if resp.Err != "" {
		t.Fatalf("register: %s", resp.Err)
	}
	id := resp.Session

	// A batch that fails midway keeps its applied prefix: the leave of
	// dev-000 sticks even though the second op targets a ghost.
	bad := jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opLeave, ID: "dev-000"},
		{Op: opLeave, ID: "ghost"},
	}})
	if resp := roundTrip(t, conn, br, bad); !strings.Contains(resp.Err, `unknown device "ghost"`) ||
		!strings.Contains(resp.Err, "remain applied") {
		t.Errorf("mid-batch failure = %q", resp.Err)
	}
	if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opDemand, ID: "dev-000", Demand: 100},
	}})); !strings.Contains(resp.Err, `unknown device "dev-000"`) {
		t.Errorf("prefix not applied: %q", resp.Err)
	}

	// Duplicate join is rejected; emptying the session is rejected at
	// solve time; a join resurrects it.
	if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opJoin, Device: &gen.DeviceDTO{ID: "dev-001", X: 1, Y: 1, Demand: 100, MoveRate: 0.01}},
	}})); !strings.Contains(resp.Err, `already in session`) {
		t.Errorf("duplicate join = %q", resp.Err)
	}
	if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opLeave, ID: "dev-001"},
	}})); !strings.Contains(resp.Err, "no devices") {
		t.Errorf("emptied session = %q", resp.Err)
	}
	if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opJoin, Device: &gen.DeviceDTO{ID: "fresh", X: 10, Y: 10, Demand: 120, MoveRate: 0.01}},
	}})); resp.Err != "" || resp.Cost <= 0 {
		t.Errorf("join into empty session: %+v", resp)
	}

	// Close acknowledges, is idempotent, and kills the session.
	for i := 0; i < 2; i++ {
		if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Close: true})); !resp.Closed {
			t.Errorf("close %d: %+v", i, resp)
		}
	}
	if resp := roundTrip(t, conn, br, jsonLine(t, solveRequest{Session: id, Deltas: []sessionDelta{
		{Op: opDemand, ID: "fresh", Demand: 130},
	}})); resp.Err != "unknown session" {
		t.Errorf("delta after close = %q, want unknown session", resp.Err)
	}
	if got := srv.sessions.active(); got != 0 {
		t.Errorf("active sessions = %d, want 0", got)
	}

	// Register-time validation: non-warm schedulers and duplicate IDs.
	if resp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, sessionInstance(3, false), "CCSA"))); !strings.Contains(resp.Err, "does not support sessions") {
		t.Errorf("CCSA register = %q", resp.Err)
	}
	dup := sessionInstance(3, false)
	dup.Devices[2].ID = dup.Devices[0].ID
	if resp := roundTrip(t, conn, br, jsonLine(t, registerRequest(t, dup, "CCSGA"))); !strings.Contains(resp.Err, "duplicate device ID") {
		t.Errorf("duplicate-ID register = %q", resp.Err)
	}
}

// TestSessionsDisabled pins the -max-sessions 0 behavior: session verbs
// answer a clean error and the stateless path is unaffected.
func TestSessionsDisabled(t *testing.T) {
	srv, err := newSolveServer(serveOpts{cacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.handle(registerRequest(t, sessionInstance(3, false), "CCSGA")); !strings.Contains(resp.Err, "session protocol disabled") {
		t.Errorf("register = %q", resp.Err)
	}
	if resp := srv.handle(solveRequest{Session: 7, Deltas: []sessionDelta{{Op: opLeave, ID: "x"}}}); !strings.Contains(resp.Err, "session protocol disabled") {
		t.Errorf("delta = %q", resp.Err)
	}
	if resp := srv.handle(solveRequest{Stats: true}); resp.Stats == nil || resp.Stats.Sessions != nil {
		t.Errorf("stats should omit the session block when disabled: %+v", resp.Stats)
	}
}

// --- binary transport tests ---

// TestServeBinaryProtocol drives register → delta → stats → close over
// frames, on the same listener a JSON connection uses concurrently.
func TestServeBinaryProtocol(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, maxSessions: 4})

	// A JSON connection works before, during, and after binary traffic.
	jc := dial()
	jbr := bufio.NewReader(jc)
	if resp := roundTrip(t, jc, jbr, solveLine(t, serveInstance(4, 0), "CCSA")); resp.Err != "" {
		t.Fatalf("JSON solve: %s", resp.Err)
	}

	wc := newWireClient(dial())
	shadow := sessionInstance(6, false)
	reg, err := wc.register(shadow, "CCSGA")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if reg.session == 0 || !reg.nash || reg.cost <= 0 {
		t.Fatalf("register solve: %+v", reg)
	}
	if _, ok := verifySessionSolve(shadow, reg, t.Errorf); !ok {
		t.Fatal("register solve failed verification")
	}

	ops := []sessionDelta{
		{Op: opLeave, ID: "dev-002"},
		{Op: opDemand, ID: "dev-000", Demand: 250},
		{Op: opTariff, Charger: "ch-1", Tariff: &gen.TariffDTO{Kind: "tiered", Tiers: []gen.TierDTO{
			{UpTo: "200", Rate: 0.05}, {UpTo: "inf", Rate: 0.02},
		}}},
		{Op: opJoin, Device: &gen.DeviceDTO{ID: "late", X: 400, Y: 600, Demand: 180, MoveRate: 0.012}},
	}
	for _, d := range ops {
		if err := applyShadow(shadow, d); err != nil {
			t.Fatal(err)
		}
	}
	got, err := wc.delta(reg.session, ops)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if _, ok := verifySessionSolve(shadow, got, t.Errorf); !ok {
		t.Fatal("delta solve failed verification")
	}

	// TStats answers the service counters as JSON inside a TOK frame.
	typ, payload, err := wc.call(wire.TStats, nil)
	if err != nil || typ != wire.TOK {
		t.Fatalf("stats frame: type 0x%02X err %v", byte(typ), err)
	}
	var st serviceStats
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatalf("stats payload %q: %v", payload, err)
	}
	if st.Sessions == nil || st.Sessions.Active != 1 || st.Sessions.DeltaSolves != 1 {
		t.Errorf("stats %+v, want 1 active session, 1 delta solve", st.Sessions)
	}

	// Close, then a delta on the dead session comes back as TError.
	if typ, _, err := wc.call(wire.TClose, wire.AppendUvarint(nil, reg.session)); err != nil || typ != wire.TOK {
		t.Fatalf("close: type 0x%02X err %v", byte(typ), err)
	}
	if _, err := wc.delta(reg.session, ops[:1]); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("delta after close = %v, want unknown session", err)
	}

	// The JSON connection still works, and the counters saw both paths.
	if resp := roundTrip(t, jc, jbr, solveLine(t, serveInstance(4, 0), "CCSA")); resp.Err != "" {
		t.Errorf("JSON solve after binary traffic: %s", resp.Err)
	}
	if srv.requests.Load() < 6 {
		t.Errorf("requests = %d, want ≥ 6", srv.requests.Load())
	}
}

// TestServeBinaryErrors pins the hostile-input behavior of the binary
// path: malformed messages answer TError without killing the
// connection, garbled framing answers TError and hangs up, oversized
// frames get the "request too large" treatment.
func TestServeBinaryErrors(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, maxSessions: 4})

	// Undecodable payload: connection survives, failure counted.
	wc := newWireClient(dial())
	typ, payload, err := wc.call(wire.TDelta, []byte{0x01}) // truncated
	if err != nil || typ != wire.TError {
		t.Fatalf("truncated delta: type 0x%02X err %v", byte(typ), err)
	}
	if !strings.Contains(string(payload), "bad delta payload") {
		t.Errorf("error payload %q", payload)
	}
	if reg, err := wc.register(sessionInstance(4, false), "CCSGA"); err != nil || reg.session == 0 {
		t.Fatalf("register after payload error: %+v %v", reg, err)
	}

	// Unknown frame type: TError, connection survives.
	if typ, payload, err := wc.call(wire.TSchedule, nil); err != nil || typ != wire.TError ||
		!strings.Contains(string(payload), "unexpected frame type") {
		t.Errorf("server-type frame from client: type 0x%02X payload %q err %v", byte(typ), payload, err)
	}

	// Garbled framing (bad version byte): final TError, then hangup.
	conn := dial()
	if _, err := conn.Write([]byte{wire.Magic, 0x42, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bufio.NewReader(conn), maxRequestBytes)
	typ, payload, err = r.ReadFrame()
	if err != nil || typ != wire.TError || !strings.Contains(string(payload), "version") {
		t.Errorf("bad version: type 0x%02X payload %q err %v", byte(typ), payload, err)
	}
	if _, _, err := r.ReadFrame(); err == nil {
		t.Error("connection still open after framing error")
	}

	// Oversized frame: "request too large" TError, counted like the
	// JSON oversized path.
	before := srv.failures.Load()
	conn2 := dial()
	huge := wire.AppendUvarint([]byte{wire.Magic, wire.Version, byte(wire.TRegister)}, maxRequestBytes+1)
	if _, err := conn2.Write(huge); err != nil {
		t.Fatal(err)
	}
	r2 := wire.NewReader(bufio.NewReader(conn2), maxRequestBytes)
	typ, payload, err = r2.ReadFrame()
	if err != nil || typ != wire.TError || string(payload) != "request too large" {
		t.Errorf("oversized: type 0x%02X payload %q err %v", byte(typ), payload, err)
	}
	if got := srv.failures.Load(); got != before+1 {
		t.Errorf("failures = %d, want %d", got, before+1)
	}
}

// TestServeBinaryNonFiniteTariff: the binary protocol carries tariff
// parameters as raw float bits, so a delta can re-tariff a charger with a
// NaN or infinite coefficient or rate (a register frame's instance is
// JSON, which has no such numbers). Each is answered with TError and
// counted as a failure, and the session keeps its tariffs and answers
// the next valid delta.
func TestServeBinaryNonFiniteTariff(t *testing.T) {
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, maxSessions: 4})
	wc := newWireClient(dial())
	shadow := sessionInstance(6, false)
	reg, err := wc.register(shadow, "CCSGA")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	for _, dto := range []gen.TariffDTO{
		{Kind: "powerlaw", Coeff: math.NaN(), Exponent: 0.85},
		{Kind: "powerlaw", Coeff: 0.25, Exponent: math.NaN()},
		{Kind: "linear", Rate: math.NaN()},
		{Kind: "linear", Rate: math.Inf(1)},
		{Kind: "tiered", Tiers: []gen.TierDTO{{UpTo: "200", Rate: math.Inf(1)}, {UpTo: "inf", Rate: 0.02}}},
	} {
		before := srv.failures.Load()
		_, err := wc.delta(reg.session, []sessionDelta{{Op: opTariff, Charger: "ch-1", Tariff: &dto}})
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%+v: delta error %v, want a non-finite parameter error", dto, err)
		}
		if got := srv.failures.Load(); got != before+1 {
			t.Errorf("%+v: failures = %d, want %d", dto, got, before+1)
		}
	}
	op := sessionDelta{Op: opDemand, ID: "dev-000", Demand: 250}
	if err := applyShadow(shadow, op); err != nil {
		t.Fatal(err)
	}
	got, err := wc.delta(reg.session, []sessionDelta{op})
	if err != nil {
		t.Fatalf("valid delta after the rejected ones: %v", err)
	}
	if _, ok := verifySessionSolve(shadow, got, t.Errorf); !ok {
		t.Fatal("delta solve after the rejected tariffs failed verification")
	}
}

// TestServeBinaryIdleTimeout pins the reaper on the binary path.
func TestServeBinaryIdleTimeout(t *testing.T) {
	testutil.CheckGoroutines(t, "cmd/ccsd", "repro/internal/netserve")
	srv, dial := startServerOpts(t, serveOpts{cacheSize: 4, maxSessions: 4, idleTimeout: 100 * time.Millisecond})
	wc := newWireClient(dial())
	if _, err := wc.register(sessionInstance(4, false), "CCSGA"); err != nil {
		t.Fatal(err)
	}
	// Client goes quiet; the server hangs up without an error frame.
	_ = wc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, err := wc.r.ReadFrame(); err == nil {
		t.Errorf("server sent frame 0x%02X to an idle connection, want hangup", byte(typ))
	}
	if got := srv.requests.Load(); got != 1 {
		t.Errorf("requests = %d, want 1 (idle close is not a request)", got)
	}
	if got := srv.failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0 (idle close is not a failure)", got)
	}
}

// --- churn benchmark: JSON cold path vs session deltas ---

// churnStates derives a cyclic recurring-visit workload from
// internal/online's canonical generator: a population of n sensors
// returns visit after visit with fresh demands, and each visit ~1/6 of
// the population is absent, so consecutive visits differ by leaves,
// joins, and demand changes — the non-duplicate workload the stateless
// cache cannot help with.
func churnStates(tb testing.TB, n, visits int) []map[string]core.Device {
	tb.Helper()
	arrivals, err := online.GenerateRecurringArrivals(1, n, visits,
		600, 100, 300, 600, geom.Square(1000), 100, 140, 0.008, 0.012, 0)
	if err != nil {
		tb.Fatal(err)
	}
	states := make([]map[string]core.Device, visits)
	for v := range states {
		states[v] = make(map[string]core.Device, n)
	}
	const period = 600
	for _, a := range arrivals {
		v := int(a.At / period)
		states[v][a.Device.ID] = a.Device
	}
	for v := range states {
		for i := 0; i < n; i++ {
			if (i+v)%6 == 0 {
				delete(states[v], fmt.Sprintf("dev-%03d", i))
			}
		}
	}
	return states
}

// churnInstance renders a visit state as a full instance (device order by
// ID) on the heterogeneous charger set.
func churnInstance(state map[string]core.Device) *core.Instance {
	in := sessionInstance(0, false)
	ids := make([]string, 0, len(state))
	for id := range state {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		in.Devices = append(in.Devices, state[id])
	}
	return in
}

// churnDeltas diffs consecutive visit states into one delta batch.
func churnDeltas(prev, next map[string]core.Device) []sessionDelta {
	ids := make([]string, 0, len(prev)+len(next))
	for id := range prev {
		ids = append(ids, id)
	}
	for id := range next {
		if _, ok := prev[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var ops []sessionDelta
	for _, id := range ids {
		p, inPrev := prev[id]
		nx, inNext := next[id]
		switch {
		case inPrev && !inNext:
			ops = append(ops, sessionDelta{Op: opLeave, ID: id})
		case !inPrev && inNext:
			ops = append(ops, sessionDelta{Op: opJoin, Device: &gen.DeviceDTO{
				ID: id, X: nx.Pos.X, Y: nx.Pos.Y, Demand: nx.Demand, MoveRate: nx.MoveRate,
			}})
		case p.Demand != nx.Demand:
			ops = append(ops, sessionDelta{Op: opDemand, ID: id, Demand: nx.Demand})
		}
	}
	return ops
}

// BenchmarkServeChurnJSONCold is the baseline: every visit re-sends the
// full instance as JSON and solves cold (cache off — the states cycle,
// but a real churning population never repeats a fingerprint).
func BenchmarkServeChurnJSONCold(b *testing.B) {
	srv, err := newSolveServer(serveOpts{})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = srv.Serve(l) }()

	states := churnStates(b, 60, 8)
	lines := make([][]byte, len(states))
	for v, state := range states {
		lines[v] = solveLine(b, churnInstance(state), "CCSGA")
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
		reply, err := br.ReadBytes('\n')
		if err != nil {
			b.Fatal(err)
		}
		if bytes.Contains(reply, []byte(`"error"`)) {
			b.Fatalf("solve failed: %s", reply)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeChurnSessionDelta is the same workload through the
// session protocol: register once, then stream each visit's diff as a
// binary delta frame and warm re-solve.
func BenchmarkServeChurnSessionDelta(b *testing.B) {
	srv, err := newSolveServer(serveOpts{maxSessions: 4})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = srv.Serve(l) }()

	states := churnStates(b, 60, 8)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	wc := newWireClient(conn)
	reg, err := wc.register(churnInstance(states[0]), "CCSGA")
	if err != nil {
		b.Fatal(err)
	}
	// Pre-encode one frame per transition; the cycle returns to states[0]
	// so frame i applies at step i for any N.
	frames := make([][]byte, len(states))
	for v := range states {
		payload := wire.AppendUvarint(nil, reg.session)
		payload, err = appendDeltaOps(payload, churnDeltas(states[v], states[(v+1)%len(states)]))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.NewWriter(&buf).WriteFrame(wire.TDelta, payload); err != nil {
			b.Fatal(err)
		}
		frames[v] = buf.Bytes()
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
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestWireBufferDetach guards the test client itself: responses must be
// detached from the reader's reused buffer (a regression here would
// silently corrupt multi-frame assertions above).
func TestWireBufferDetach(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	_ = w.WriteFrame(wire.TOK, []byte("first"))
	_ = w.WriteFrame(wire.TOK, []byte("secnd"))
	r := wire.NewReader(bufio.NewReader(&buf), 1024)
	_, p1, _ := r.ReadFrame()
	detached := append([]byte(nil), p1...)
	_, _, _ = r.ReadFrame()
	if string(detached) != "first" {
		t.Errorf("detached copy corrupted: %q", detached)
	}
}
