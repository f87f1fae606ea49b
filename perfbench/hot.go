package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/instcache"
)

// hotSet is the number of distinct hot instances solve-hot cycles over,
// well under ccsd's 1024-entry cache so every timed request is a
// raw-tier hit.
const hotSet = 64

// hotBlock is 200 passes over the hot set, about a second of requests.
const hotBlock = 200 * hotSet

// hotTracedOps is the fixed traced-op count of a solve-hot traced pass.
const hotTracedOps = 4000

// solveHot: byte-identical repeats of a small primed set.
type solveHot struct {
	opts options
	set  []solveCase
}

func newSolveHot(seed int64, opts options) (*solveHot, error) {
	r := rand.New(rand.NewSource(seed ^ 0x686f74))
	set, err := makeSolveCases(r, hotSet)
	if err != nil {
		return nil, err
	}
	return &solveHot{opts: opts, set: set}, nil
}

func (w *solveHot) counts() (map[string]float64, error) {
	return map[string]float64{"solve-hot.cost_ratio": costRatio(w.set)}, nil
}

// primeFn solves every hot instance once (a cold solve the cache then
// replays) and checks the answers.
func (w *solveHot) primeFn(v *verifier) func(*client) error {
	return func(cl *client) error {
		return sendCases(cl, w.set, v, func(c *solveCase) []byte { return c.expect })
	}
}

// op repeats hot request k and checks the reply is the primed answer
// replayed with "cached":true.
func (w *solveHot) op(cl *client, v *verifier, k int) ([]byte, error) {
	c := &w.set[k%len(w.set)]
	reply, err := cl.roundTrip(c.line)
	if err != nil {
		return nil, err
	}
	v.check(bytes.Equal(reply, c.hot), func() string {
		return fmt.Sprintf("solve-hot op %d: reply is not the primed answer replayed: %.120q", k, reply)
	})
	return reply, nil
}

func (w *solveHot) endToEnd(seconds float64) (*report, error) {
	rep := newReport()
	var v verifier
	run, setups, err := repeatedSetup(w.opts.ccsd, w.primeFn(&v), setupsBefore)
	if err != nil {
		return nil, err
	}
	defer run.close()
	st0, err := readStats(run.cl)
	if err != nil {
		return nil, err
	}
	win, err := closedLoop(seconds, 3*hotBlock, hotBlock, run.srv.cpuTime, func(k int) error {
		_, err := w.op(run.cl, &v, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := serveWindowMetrics(rep, run, win); err != nil {
		return nil, err
	}
	st1, err := readStats(run.cl)
	if err != nil {
		return nil, err
	}
	rep.metrics.set("cost_ratio", costRatio(w.set), "ratio")
	rep.counts["solve-hot.instcache.raw_hit_ratio"] = hitRatio(st0.Raw, st1.Raw, 1)
	if err := run.close(); err != nil {
		return nil, err
	}
	if err := finishSetups(rep, w.opts.ccsd, w.primeFn(&v), setups); err != nil {
		return nil, err
	}
	v.fill(rep)
	return rep, nil
}

// layers traces hot requests: after each reply it replays the raw tier's
// two calls — the SHA-256 key of the request line and ByteCache.Get on a
// replica cache holding the same entries — as child spans.
func (w *solveHot) layers(seconds float64, tr *tracer) (*report, error) {
	const name = "solve-hot"
	rep := newReport()
	var v verifier
	run, setup, err := setupServe(w.opts.ccsd, true, w.primeFn(&v))
	if err != nil {
		return nil, err
	}
	defer run.close()
	rep.info[name+".setup_s"] = setup.Seconds()
	replica, err := instcache.NewBytes(1024)
	if err != nil {
		return nil, err
	}
	for i := range w.set {
		replica.Put(keyOf(w.set[i].line), w.set[i].hot)
	}
	st0, err := readStats(run.cl)
	if err != nil {
		return nil, err
	}
	var st1 serviceStats
	gc0 := run.srv.gcs.Load()
	var replies, layerUS []float64
	traced, err := closedLoop(seconds/2, hotTracedOps, hotBlock, nil, func(k int) error {
		t0 := time.Now()
		reply, err := w.op(run.cl, &v, k)
		if err != nil {
			return err
		}
		root := tr.record(k, -1, name+"/request", t0, time.Now())
		replies = append(replies, float64(len(reply)))
		line := w.set[k%len(w.set)].line
		var key [32]byte
		var got []byte
		var ok bool
		spent := tr.timed(k, root, name+"/instcache.raw_key", func() { key = keyOf(line) })
		spent += tr.timed(k, root, name+"/instcache.ByteCache.Get", func() { got, ok = replica.Get(key) })
		v.check(ok && bytes.Equal(got, reply), func() string { return fmt.Sprintf("solve-hot op %d: replica cache disagrees with the server", k) })
		layerUS = append(layerUS, float64(spent.Nanoseconds())/1e3)
		if k == hotTracedOps-1 {
			// reply aliases the read buffer, so the snapshot waits until
			// the replay has compared it.
			if st1, err = readStats(run.cl); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gcs := run.srv.gcs.Load() - gc0
	reqMS := spanDurationsMS(tr, name+"/request", traced.ops())
	untraced, err := closedLoop(seconds/2, hotTracedOps, hotBlock, nil, func(k int) error {
		_, err := w.op(run.cl, &v, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m.set(name+".instcache.raw_hit_ratio", hitRatio(st0.Raw, st1.Raw, 1), "ratio")
	m.set(name+".instcache.raw_key_us", tr.meanUS(name+"/instcache.raw_key"), "us")
	m.set(name+".instcache.bytecache_get_us", tr.meanUS(name+"/instcache.ByteCache.Get"), "us")
	m.set(name+".ccsd.unattributed_us", 1000*mean(reqMS)-mean(layerUS), "us")
	m.set(name+".ccsd.response_bytes", mean(replies[:hotTracedOps]), "bytes")
	m.set(name+".ccsd.gc_per_kop", 1000*float64(gcs)/float64(traced.ops()), "count")
	m.set(name+".trace.overhead_pct", overheadPct(reqMS, untraced.latMS), "%")
	rep.counts[name+".instcache.raw_hit_ratio"] = m[name+".instcache.raw_hit_ratio"].Value
	rep.counts[name+".ccsd.response_bytes"] = m[name+".ccsd.response_bytes"].Value
	rep.info[name+".traced_ops"] = traced.ops()
	v.fill(rep)
	return rep, run.close()
}
