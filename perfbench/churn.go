package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/wire"
)

// session-churn is a traced pass only (see README.md for why it has no
// end-to-end run). It registers churnSessions gen.LargeField(1024, 12)
// sessions over the binary protocol, then streams one-device TDelta
// frames over the sessions in turn, one whole delta cycle per session at
// a time. In each session, device k leaves and then re-joins with its
// original attributes, over 32 rotating devices (the shape of cmd/ccsd's
// BenchmarkDeltaRepair, with 16). Spreading the stream over many seeded
// sessions and devices averages out how much one instance's layout and
// one device's session make a repair cost.
const (
	churnDevices, churnChargers = 1024, 12
	churnSessions               = 64
	churnRotating               = 32
	// churnPrefix is the fixed delta count the counts are taken over;
	// every traced pass sends at least this many.
	churnPrefix = 4096
	// churnBlock is two passes over every session's delta cycle.
	churnBlock = 2 * churnSessions * 2 * churnRotating
	// wire opcodes of the two delta ops, as cmd/ccsd/serve_wire.go
	// defines them.
	opcodeJoin, opcodeLeave = 1, 2
	maxFrame                = 8 << 20
)

// churnOp is delta op k of the stream.
type churnOp struct {
	leave bool
	dev   core.Device
}

// replica mirrors one ccsd session in process: the same cost model
// patches and ScheduleRepair calls the server makes for the same deltas.
type replica struct {
	cm       *core.CostModel
	ws       *core.WarmStart
	rs       *core.RepairState
	devIndex map[string]int
}

func newReplica(inst []byte) (*replica, *core.CCSGAResult, error) {
	in, err := gen.DecodeInstance(inst)
	if err != nil {
		return nil, nil, err
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return nil, nil, err
	}
	r := &replica{cm: cm, ws: core.NewWarmStart(), rs: core.NewRepairState(), devIndex: map[string]int{}}
	for i, d := range in.Devices {
		r.devIndex[d.ID] = i
	}
	res, err := r.solve()
	return r, res, err
}

// apply performs one delta op the way ccsd's session.apply does.
func (r *replica) apply(op churnOp) error {
	if !op.leave {
		if err := r.cm.AddDevice(op.dev); err != nil {
			return err
		}
		r.devIndex[op.dev.ID] = r.cm.NumDevices() - 1
		return nil
	}
	i, ok := r.devIndex[op.dev.ID]
	if !ok {
		return fmt.Errorf("leave: unknown device %q", op.dev.ID)
	}
	if err := r.cm.RemoveDevice(i); err != nil {
		return err
	}
	delete(r.devIndex, op.dev.ID)
	devs := r.cm.Instance().Devices
	for j := i; j < len(devs); j++ {
		r.devIndex[devs[j].ID] = j
	}
	return nil
}

func (r *replica) solve() (*core.CCSGAResult, error) {
	return core.CCSGAScheduler{}.ScheduleRepair(r.cm, r.ws, r.rs)
}

// block renders a solve as ccsd's binary schedule block.
func (r *replica) block(res *core.CCSGAResult) []byte {
	in := r.cm.Instance()
	b := wire.AppendFloat64(nil, r.cm.TotalCost(res.Schedule))
	b = wire.AppendUvarint(b, uint64(res.Passes))
	b = wire.AppendUvarint(b, uint64(res.Switches))
	var flags byte
	if res.NashStable {
		flags |= 1
	}
	if res.Repaired {
		flags |= 2
	}
	b = append(b, flags)
	b = wire.AppendUvarint(b, uint64(len(res.Schedule.Coalitions)))
	for _, c := range res.Schedule.Coalitions {
		b = wire.AppendString(b, in.Chargers[c.Charger].ID)
		b = wire.AppendUvarint(b, uint64(len(c.Members)))
		for _, i := range c.Members {
			b = wire.AppendString(b, in.Devices[i].ID)
		}
	}
	return b
}

// churnTally accumulates the deterministic per-delta counts.
type churnTally struct {
	ops, repaired, fallbacks, nash int
	passes, switches, frontier     int
}

func (t *churnTally) add(res *core.CCSGAResult) {
	t.ops++
	if res.Repaired {
		t.repaired++
		t.frontier += res.FrontierDevices
	} else if res.FallbackReason != "" {
		t.fallbacks++
	}
	if res.NashStable {
		t.nash++
	}
	t.passes += res.Passes
	t.switches += res.Switches
}

func (t *churnTally) counts(prefix string) map[string]float64 {
	n := float64(t.ops)
	frontier := 0.0
	if t.repaired > 0 {
		frontier = float64(t.frontier) / float64(t.repaired)
	}
	return map[string]float64{
		prefix + "core.passes_per_solve":        float64(t.passes) / n,
		prefix + "core.switches_per_solve":      float64(t.switches) / n,
		prefix + "core.repaired_ratio":          float64(t.repaired) / n,
		prefix + "core.repair_fallback_ratio":   float64(t.fallbacks) / n,
		prefix + "core.repair_frontier_devices": frontier,
		prefix + "core.nash_ratio":              float64(t.nash) / n,
	}
}

// churnSession is one registered session's inputs.
type churnSession struct {
	inst     []byte // compact instance JSON
	register []byte // TRegister frame
	regBlock []byte // expected schedule block of the register reply
	ops      [2 * churnRotating]churnOp
}

// opAt maps stream op k to its session and the op's index in that
// session's own delta sequence. The stream visits the sessions in turn,
// one whole delta cycle each, so a session's state stays in cache for
// its cycle instead of every op fetching another session's.
func opAt(k int) (sess, j int) {
	const cycle = 2 * churnRotating
	pass, i := k/(churnSessions*cycle), k%(churnSessions*cycle)
	return i / cycle, pass*cycle + i%cycle
}

// sessionChurn is the session-churn traced pass.
type sessionChurn struct {
	opts     options
	sessions []churnSession
	seed     maphash.Seed
}

func newSessionChurn(seed int64, opts options) (*sessionChurn, error) {
	r := rand.New(rand.NewSource(seed ^ 0x636875726e))
	w := &sessionChurn{opts: opts, seed: maphash.MakeSeed()}
	for s := 0; s < churnSessions; s++ {
		in, err := gen.Instance(r.Int63(), gen.LargeField(churnDevices, churnChargers))
		if err != nil {
			return nil, err
		}
		pretty, err := gen.EncodeInstance(in)
		if err != nil {
			return nil, err
		}
		var inst bytes.Buffer
		if err := json.Compact(&inst, pretty); err != nil {
			return nil, err
		}
		cs := churnSession{inst: inst.Bytes()}
		cs.register = frame(wire.TRegister, append(wire.AppendString(nil, "CCSGA"), cs.inst...))
		rep, res, err := newReplica(cs.inst)
		if err != nil {
			return nil, err
		}
		cs.regBlock = rep.block(res)
		// Rotating devices are drawn from the quarter of the population in
		// the smallest charging sessions.
		size := make([]int, len(in.Devices))
		for _, c := range res.Schedule.Coalitions {
			for _, i := range c.Members {
				size[i] = len(c.Members)
			}
		}
		order := r.Perm(len(in.Devices))
		sort.SliceStable(order, func(a, b int) bool { return size[order[a]] < size[order[b]] })
		var cands []core.Device
		for _, i := range order[:churnDevices/4] {
			cands = append(cands, in.Devices[i])
		}
		if cs.ops, err = pickRotating(cs.inst, cands); err != nil {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
		w.sessions = append(w.sessions, cs)
	}
	return w, nil
}

// newReplicas registers every session in process.
func (w *sessionChurn) newReplicas() ([]*replica, error) {
	var reps []*replica
	for _, cs := range w.sessions {
		rep, _, err := newReplica(cs.inst)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// churnCheckCycles is how many passes over a session's delta cycle
// pickRotating replays.
const churnCheckCycles = 4

// pickRotating chooses a session's rotating devices. A delta whose
// repair would re-evaluate more than half the population falls back to
// a full warm solve, a second latency mode this workload leaves out, so
// candidates are taken in order and a device whose leave or re-join the
// replay does not repair incrementally is swapped for the next one,
// until churnCheckCycles passes over the cycle repair every delta.
func pickRotating(inst []byte, cands []core.Device) ([2 * churnRotating]churnOp, error) {
	var ops [2 * churnRotating]churnOp
	chosen := append([]core.Device(nil), cands[:churnRotating]...)
	for next := churnRotating; ; next++ {
		for k, d := range chosen {
			ops[2*k] = churnOp{leave: true, dev: d}
			ops[2*k+1] = churnOp{dev: d}
		}
		rep, _, err := newReplica(inst)
		if err != nil {
			return ops, err
		}
		bad := -1
		for j := 0; j < churnCheckCycles*len(ops) && bad < 0; j++ {
			if err := rep.apply(ops[j%len(ops)]); err != nil {
				return ops, err
			}
			res, err := rep.solve()
			if err != nil {
				return ops, err
			}
			if !res.Repaired {
				bad = j % len(ops) / 2
			}
		}
		if bad < 0 {
			return ops, nil
		}
		if next == len(cands) {
			return ops, errors.New("too few devices whose deltas repair incrementally")
		}
		chosen[bad] = cands[next]
	}
}

// step advances the replicas by stream op k and returns the hash of the
// schedule block the server must answer with.
func (w *sessionChurn) step(reps []*replica, k int) (uint64, error) {
	s, j := opAt(k)
	r := reps[s]
	if err := r.apply(w.sessions[s].ops[j%(2*churnRotating)]); err != nil {
		return 0, fmt.Errorf("replica op %d: %w", k, err)
	}
	res, err := r.solve()
	if err != nil {
		return 0, fmt.Errorf("replica op %d: %w", k, err)
	}
	return maphash.Bytes(w.seed, r.block(res)), nil
}

// frame encodes one wire frame.
func frame(t wire.Type, payload []byte) []byte {
	var buf bytes.Buffer
	_ = wire.NewWriter(&buf).WriteFrame(t, payload) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// binClient speaks the frame protocol on a serve connection.
type binClient struct {
	cl *client
	r  *wire.Reader
}

func (b *binClient) roundTrip(f []byte) (wire.Type, []byte, error) {
	if _, err := b.cl.conn.Write(f); err != nil {
		return 0, nil, err
	}
	return b.r.ReadFrame()
}

// churnRun is the registered sessions on a live server.
type churnRun struct {
	bc     *binClient
	frames [churnSessions][2 * churnRotating][]byte
}

// primeFn registers every session and checks the register replies; the
// session IDs land in *ids.
func (w *sessionChurn) primeFn(v *verifier, ids *[]uint64) func(*client) error {
	return func(cl *client) error {
		*ids = (*ids)[:0]
		bc := &binClient{cl: cl, r: wire.NewReader(cl.br, maxFrame)}
		for s, cs := range w.sessions {
			typ, payload, err := bc.roundTrip(cs.register)
			if err != nil {
				return err
			}
			if typ != wire.TSession {
				return fmt.Errorf("register answered with frame type 0x%02X: %q", byte(typ), payload)
			}
			d := wire.NewDecoder(payload)
			*ids = append(*ids, d.Uvarint())
			v.check(d.Err() == nil && bytes.Equal(d.Rest(), cs.regBlock), func() string {
				return fmt.Sprintf("session-churn register %d reply differs from the in-process solve", s)
			})
		}
		return nil
	}
}

// start wraps a set-up serve run with its binary client and the delta
// frames, which carry the session IDs and so are encoded after register.
func (w *sessionChurn) start(run *serveRun, ids []uint64) *churnRun {
	cr := &churnRun{bc: &binClient{cl: run.cl, r: wire.NewReader(run.cl.br, maxFrame)}}
	for s, cs := range w.sessions {
		for j, op := range cs.ops {
			p := wire.AppendUvarint(nil, ids[s])
			p = wire.AppendUvarint(p, 1)
			if op.leave {
				p = append(p, opcodeLeave)
				p = wire.AppendString(p, op.dev.ID)
			} else {
				p = append(p, opcodeJoin)
				p = wire.AppendString(p, op.dev.ID)
				p = wire.AppendFloat64(p, op.dev.Pos.X)
				p = wire.AppendFloat64(p, op.dev.Pos.Y)
				p = wire.AppendFloat64(p, op.dev.Demand)
				p = wire.AppendFloat64(p, op.dev.MoveRate)
			}
			cr.frames[s][j] = frame(wire.TDelta, p)
		}
	}
	return cr
}

// frame returns the delta frame of stream op k.
func (cr *churnRun) frame(k int) []byte {
	s, j := opAt(k)
	return cr.frames[s][j%(2*churnRotating)]
}

// op sends delta frame k and returns the reply's schedule block.
func (cr *churnRun) op(k int) ([]byte, error) {
	typ, payload, err := cr.bc.roundTrip(cr.frame(k))
	if err != nil {
		return nil, err
	}
	if typ != wire.TSchedule {
		return nil, fmt.Errorf("delta %d answered with frame type 0x%02X: %q", k, byte(typ), payload)
	}
	return payload, nil
}

// sessionStats is the session block of ccsd's TStats reply.
type sessionStats struct {
	DeltaSolves     uint64 `json:"deltaSolves"`
	RepairSolves    uint64 `json:"repairSolves"`
	RepairFallbacks uint64 `json:"repairFallbacks"`
}

func (cr *churnRun) stats() (sessionStats, error) {
	typ, payload, err := cr.bc.roundTrip(frame(wire.TStats, nil))
	if err != nil {
		return sessionStats{}, err
	}
	var st struct {
		Sessions *sessionStats `json:"sessionProtocol"`
	}
	if typ != wire.TOK {
		return sessionStats{}, fmt.Errorf("stats answered with frame type 0x%02X", byte(typ))
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		return sessionStats{}, err
	}
	if st.Sessions == nil {
		return sessionStats{}, errors.New("stats reply has no session block")
	}
	return *st.Sessions, nil
}

// layers traces deltas: after each reply it replays the op's layer calls
// on a fresh in-process replica — wire decoding of the same frame, the
// CostModel delta op, and ScheduleRepair — as child spans.
func (w *sessionChurn) layers(seconds float64, tr *tracer) (*report, error) {
	const name = "session-churn"
	rep := newReport()
	var v verifier
	var ids []uint64
	run, setup, err := setupServe(w.opts.ccsd, true, w.primeFn(&v, &ids))
	if err != nil {
		return nil, err
	}
	defer run.close()
	rep.info[name+".setup_s"] = setup.Seconds()
	cr := w.start(run, ids)
	reps, err := w.newReplicas()
	if err != nil {
		return nil, err
	}
	st0, err := cr.stats()
	if err != nil {
		return nil, err
	}
	var st1 sessionStats
	var tally churnTally
	var frameBytes, layerUS []float64
	gc0 := run.srv.gcs.Load()
	traced, err := closedLoop(seconds/2, churnPrefix, churnBlock, nil, func(k int) error {
		t0 := time.Now()
		payload, err := cr.op(k)
		if err != nil {
			return err
		}
		root := tr.record(k, -1, name+"/request", t0, time.Now())
		h := maphash.Bytes(w.seed, payload)
		if k == churnPrefix-1 {
			if st1, err = cr.stats(); err != nil {
				return err
			}
		}
		f := cr.frame(k)
		frameBytes = append(frameBytes, float64(len(f)))
		s, j := opAt(k)
		r, op := reps[s], w.sessions[s].ops[j%(2*churnRotating)]
		var (
			res  *core.CCSGAResult
			derr error
		)
		spent := tr.timed(k, root, name+"/wire.decode", func() { derr = decodeDelta(f) })
		if derr != nil {
			return derr
		}
		spent += tr.timed(k, root, name+"/core.delta_apply", func() { derr = r.apply(op) })
		if derr != nil {
			return derr
		}
		spent += tr.timed(k, root, name+"/core.ScheduleRepair", func() { res, derr = r.solve() })
		if derr != nil {
			return derr
		}
		layerUS = append(layerUS, float64(spent.Nanoseconds())/1e3)
		if k < churnPrefix {
			tally.add(res)
		}
		v.check(h == maphash.Bytes(w.seed, r.block(res)), func() string {
			return fmt.Sprintf("session-churn delta %d: schedule differs from the in-process replay", k)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	gcs := run.srv.gcs.Load() - gc0
	reqMS := spanDurationsMS(tr, name+"/request", traced.ops())
	// The untraced stretch continues the stream, so its answers are
	// checked against the same replica after it ends.
	var rest []uint64
	untraced, err := closedLoop(seconds/2, churnPrefix/2, churnBlock, nil, func(k int) error {
		payload, err := cr.op(traced.ops() + k)
		if err != nil {
			return err
		}
		rest = append(rest, maphash.Bytes(w.seed, payload))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, h := range rest {
		want, err := w.step(reps, traced.ops()+k)
		if err != nil {
			return nil, err
		}
		v.check(h == want, func() string {
			return fmt.Sprintf("session-churn delta %d: schedule differs from the in-process replay", traced.ops()+k)
		})
	}
	m := rep.metrics
	for k, val := range tally.counts(name + ".") {
		unit := "count"
		if strings.HasSuffix(k, "_ratio") {
			unit = "ratio"
		}
		m.set(k, val, unit)
		rep.counts[k] = val
	}
	m.set(name+".wire.frame_bytes", mean(frameBytes[:churnPrefix]), "bytes")
	m.set(name+".wire.decode_us", tr.meanUS(name+"/wire.decode"), "us")
	m.set(name+".core.delta_apply_us", tr.meanUS(name+"/core.delta_apply"), "us")
	m.set(name+".core.repair_us", tr.meanUS(name+"/core.ScheduleRepair"), "us")
	m.set(name+".ccsd.unattributed_us", 1000*mean(reqMS)-mean(layerUS), "us")
	m.set(name+".ccsd.gc_per_kop", 1000*float64(gcs)/float64(traced.ops()), "count")
	m.set(name+".trace.overhead_pct", overheadPct(reqMS, untraced.latMS), "%")
	// The server's own repair counters over the same prefix must agree
	// with the replica's.
	srvRepaired := float64(st1.RepairSolves-st0.RepairSolves) / churnPrefix
	srvFallback := float64(st1.RepairFallbacks-st0.RepairFallbacks) / churnPrefix
	v.check(srvRepaired == m[name+".core.repaired_ratio"].Value && srvFallback == m[name+".core.repair_fallback_ratio"].Value, func() string {
		return fmt.Sprintf("session-churn server repair counters (%v repaired, %v fallback) disagree with the replica", srvRepaired, srvFallback)
	})
	rep.info[name+".traced_ops"] = traced.ops()
	v.fill(rep)
	return rep, run.close()
}

// decodeDelta decodes a TDelta frame the way ccsd's frame reader and
// delta-op decoder do.
func decodeDelta(f []byte) error {
	typ, payload, err := wire.NewReader(bytes.NewReader(f), maxFrame).ReadFrame()
	if err != nil {
		return err
	}
	if typ != wire.TDelta {
		return fmt.Errorf("frame type 0x%02X is not a delta", byte(typ))
	}
	d := wire.NewDecoder(payload)
	d.Uvarint() // session ID
	for n := d.Uvarint(); n > 0; n-- {
		switch d.Byte() {
		case opcodeLeave:
			_ = d.String()
		case opcodeJoin:
			_ = core.Device{ID: d.String(), Pos: geom.Pt(d.Float64(), d.Float64()), Demand: d.Float64(), MoveRate: d.Float64()}
		default:
			return errors.New("unexpected delta opcode")
		}
	}
	return d.Done()
}
