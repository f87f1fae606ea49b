package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instcache"
)

// The solve-cold pool cycles in a fixed order through more distinct
// instances than ccsd's 1024-entry LRU tiers hold, so every request
// misses both tiers: by the time an instance comes round again, 1024
// others have been inserted since.
const (
	coldPool = 1100
	// coldPrime warm-up solves in setup, distinct from the pool: enough
	// that solving, not spawning ccsd, dominates setup_s, and that the
	// instances' own spread in solve time averages out.
	coldPrime = 64
)

// solveCold: stateless CCSGA solves of distinct instances.
type solveCold struct {
	opts  options
	pool  []solveCase
	prime []solveCase
}

func newSolveCold(seed int64, opts options) (*solveCold, error) {
	r := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	cases, err := makeSolveCases(r, coldPool+coldPrime)
	if err != nil {
		return nil, err
	}
	return &solveCold{opts: opts, pool: cases[:coldPool], prime: cases[coldPool:]}, nil
}

func (w *solveCold) counts() (map[string]float64, error) {
	var passes, switches int
	for _, c := range w.pool {
		passes += c.passes
		switches += c.switches
	}
	return map[string]float64{
		"solve-cold.cost_ratio":          costRatio(w.pool),
		"solve-cold.core.passes_total":   float64(passes),
		"solve-cold.core.switches_total": float64(switches),
	}, nil
}

// primeFn sends the warm-up solves and checks them.
func (w *solveCold) primeFn(v *verifier) func(*client) error {
	return func(cl *client) error {
		return sendCases(cl, w.prime, v, func(c *solveCase) []byte { return c.expect })
	}
}

// op sends pool request k and checks the reply byte for byte.
func (w *solveCold) op(cl *client, v *verifier, k int) ([]byte, error) {
	c := &w.pool[k%len(w.pool)]
	reply, err := cl.roundTrip(c.line)
	if err != nil {
		return nil, err
	}
	v.check(bytes.Equal(reply, c.expect), func() string {
		return fmt.Sprintf("solve-cold op %d: reply differs from the in-process solve: %.120q", k, reply)
	})
	return reply, nil
}

func (w *solveCold) endToEnd(seconds float64) (*report, error) {
	rep := newReport()
	var v verifier
	run, setups, err := repeatedSetup(w.opts.ccsd, w.primeFn(&v), setupsBefore)
	if err != nil {
		return nil, err
	}
	defer run.close()
	win, err := closedLoop(seconds, 3*coldPool, coldPool, run.srv.cpuTime, func(k int) error {
		_, err := w.op(run.cl, &v, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := serveWindowMetrics(rep, run, win); err != nil {
		return nil, err
	}
	st, err := readStats(run.cl)
	if err != nil {
		return nil, err
	}
	rep.metrics.set("cost_ratio", costRatio(w.pool), "ratio")
	rep.counts["solve-cold.instcache.raw_hits"] = float64(st.Raw.Hits)
	rep.counts["solve-cold.instcache.solution_hits"] = float64(st.Solutions.Hits)
	if err := run.close(); err != nil {
		return nil, err
	}
	if err := finishSetups(rep, w.opts.ccsd, w.primeFn(&v), setups); err != nil {
		return nil, err
	}
	v.fill(rep)
	return rep, nil
}

// layers traces one full pool cycle (more when seconds asks for it):
// after each reply it replays the request's layer calls in process —
// decode, cache key, cost model, CCSGA — as child spans, then runs an
// untraced stretch of the same length to measure the tracing overhead.
func (w *solveCold) layers(seconds float64, tr *tracer) (*report, error) {
	const name = "solve-cold"
	rep := newReport()
	var v verifier
	run, setup, err := setupServe(w.opts.ccsd, true, w.primeFn(&v))
	if err != nil {
		return nil, err
	}
	defer run.close()
	rep.info[name+".setup_s"] = setup.Seconds()
	st0, err := readStats(run.cl)
	if err != nil {
		return nil, err
	}
	var st1 serviceStats
	gc0 := run.srv.gcs.Load()
	var (
		replies                            []float64
		decodeAllocs, modelAllocs, solveAl []float64
		passes, switches                   int
		layerUS                            []float64
	)
	traced, err := closedLoop(seconds/2, len(w.pool), coldPool, nil, func(k int) error {
		t0 := time.Now()
		reply, err := w.op(run.cl, &v, k)
		if err != nil {
			return err
		}
		root := tr.record(k, -1, name+"/request", t0, time.Now())
		replies = append(replies, float64(len(reply)))
		if k == len(w.pool)-1 {
			if st1, err = readStats(run.cl); err != nil {
				return err
			}
		}
		c := &w.pool[k%len(w.pool)]
		var (
			in    *core.Instance
			cm    *core.CostModel
			res   *core.CCSGAResult
			lerr  error
			spent time.Duration
		)
		m0 := readMem()
		spent += tr.timed(k, root, name+"/gen.DecodeInstance", func() { in, lerr = gen.DecodeInstance(c.inst) })
		m1 := readMem()
		if lerr != nil {
			return lerr
		}
		spent += tr.timed(k, root, name+"/instcache.KeyFor", func() { _, lerr = instcache.KeyFor(in, "CCSGA", "") })
		if lerr != nil {
			return lerr
		}
		m2 := readMem()
		spent += tr.timed(k, root, name+"/core.NewCostModel", func() { cm, lerr = core.NewCostModel(in) })
		m3 := readMem()
		if lerr != nil {
			return lerr
		}
		spent += tr.timed(k, root, name+"/core.CCSGA", func() { res, lerr = core.CCSGA(cm, core.CCSGAOptions{}) })
		m4 := readMem()
		if lerr != nil {
			return lerr
		}
		decodeAllocs = append(decodeAllocs, float64(m1.objects-m0.objects))
		modelAllocs = append(modelAllocs, float64(m3.objects-m2.objects))
		solveAl = append(solveAl, float64(m4.objects-m3.objects))
		layerUS = append(layerUS, float64(spent.Nanoseconds())/1e3)
		if k < len(w.pool) {
			passes += res.Passes
			switches += res.Switches
		}
		v.check(res.Passes == c.passes && res.Switches == c.switches, func() string { return fmt.Sprintf("solve-cold op %d: in-process replay diverged", k) })
		return nil
	})
	if err != nil {
		return nil, err
	}
	gcs := run.srv.gcs.Load() - gc0
	reqMS := spanDurationsMS(tr, name+"/request", traced.ops())
	untraced, err := closedLoop(seconds/2, len(w.pool)/4, coldPool, nil, func(k int) error {
		_, err := w.op(run.cl, &v, traced.ops()+k)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(w.pool))
	m := rep.metrics
	m.set(name+".gen.decode_us", tr.meanUS(name+"/gen.DecodeInstance"), "us")
	m.set(name+".gen.decode_allocs", mean(decodeAllocs), "count")
	m.set(name+".instcache.key_us", tr.meanUS(name+"/instcache.KeyFor"), "us")
	m.set(name+".core.model_build_us", tr.meanUS(name+"/core.NewCostModel"), "us")
	m.set(name+".core.model_build_allocs", mean(modelAllocs), "count")
	m.set(name+".core.solve_us", tr.meanUS(name+"/core.CCSGA"), "us")
	m.set(name+".core.solve_allocs", mean(solveAl), "count")
	m.set(name+".core.passes_per_solve", float64(passes)/n, "count")
	m.set(name+".core.switches_per_solve", float64(switches)/n, "count")
	m.set(name+".instcache.raw_hit_ratio", hitRatio(st0.Raw, st1.Raw, 1), "ratio")
	m.set(name+".instcache.solutions_hit_ratio", hitRatio(st0.Solutions, st1.Solutions, 0), "ratio")
	m.set(name+".instcache.evictions_per_kop", 1000*float64(st1.Raw.Evictions+st1.Solutions.Evictions-st0.Raw.Evictions-st0.Solutions.Evictions)/n, "count")
	m.set(name+".ccsd.unattributed_us", 1000*mean(reqMS)-mean(layerUS), "us")
	m.set(name+".ccsd.response_bytes", mean(replies[:len(w.pool)]), "bytes")
	m.set(name+".ccsd.gc_per_kop", 1000*float64(gcs)/float64(traced.ops()), "count")
	m.set(name+".trace.overhead_pct", overheadPct(reqMS, untraced.latMS), "%")
	for _, k := range []string{"core.passes_per_solve", "core.switches_per_solve", "instcache.raw_hit_ratio",
		"instcache.solutions_hit_ratio", "instcache.evictions_per_kop"} {
		rep.counts[name+"."+k] = m[name+"."+k].Value
	}
	rep.info[name+".traced_ops"] = traced.ops()
	v.fill(rep)
	return rep, run.close()
}
