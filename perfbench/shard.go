package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/shard"
)

// shard-rounds is a traced pass only (see README.md for why it has no
// end-to-end run). It runs the offline path in process: a shard.Planner
// over a fixed gen.LargeField deployment with the ext5-scale geometry,
// solving rounds over a constant population where each round re-draws
// the demand of a seeded fraction of the devices of the round before.
// The seed draws every device's demand and the per-round changes; the
// device and charger layout is fixed, so the seed does not change how
// the field falls into cells.
const (
	// 200 chargers give the ext5-scale grid of 4 x 4 cells; 6000
	// devices keep a round near 100-150 ms on one CPU.
	shardDevices, shardChargers = 6000, 200
	// shardFieldSeed fixes the deployment (the seed ext5-scale uses).
	shardFieldSeed = 2021
	// shardChangeFrac of the devices get a new demand each round.
	shardChangeFrac = 0.05
	// shardTracedRounds is the fewest rounds of each stretch of a
	// traced pass, and the rounds the counts are taken over.
	shardTracedRounds = 3
)

type shardRounds struct {
	in  *core.Instance // the round-0 field: fixed layout, seeded demands
	cfg shard.Config
	// demandMin and demandMax bound a re-drawn demand; walkSeed seeds
	// the per-round changes.
	demandMin, demandMax float64
	walkSeed             int64
	// noncoop[r-1] is the NONCOOP cost of round r <= shardTracedRounds.
	noncoop [shardTracedRounds]float64
}

func newShardRounds(seed int64) (*shardRounds, error) {
	r := rand.New(rand.NewSource(seed ^ 0x7368617264))
	p := gen.LargeField(shardDevices, shardChargers)
	in, err := gen.Instance(shardFieldSeed, p)
	if err != nil {
		return nil, err
	}
	for i := range in.Devices {
		in.Devices[i].Demand = p.DemandMin + r.Float64()*(p.DemandMax-p.DemandMin)
	}
	// ext5-scale geometry: cells per side grow until each cell holds
	// about 16 chargers; the overlap band is a quarter cell.
	perSide := 2.0
	for perSide*perSide*16 < float64(p.NumChargers) {
		perSide++
	}
	cell := p.FieldSide / perSide
	w := &shardRounds{
		in:        in,
		cfg:       shard.Config{CellSize: cell, Overlap: cell / 4, Workers: runtime.NumCPU()},
		demandMin: p.DemandMin,
		demandMax: p.DemandMax,
		walkSeed:  r.Int63(),
	}
	// NONCOOP cost of the counted rounds: each device's standalone cost in
	// a whole-field cost model that follows the walk. The cost model
	// keeps its instance, so it gets its own copy of the devices.
	cm, err := core.NewCostModel(&core.Instance{Field: in.Field, Chargers: in.Chargers,
		Devices: append([]core.Device(nil), in.Devices...)})
	if err != nil {
		return nil, err
	}
	walk := w.walk()
	for k := range w.noncoop {
		devs := walk.next()
		for _, i := range walk.changed {
			if err := cm.UpdateDevice(i, devs[i]); err != nil {
				return nil, err
			}
		}
		for i := range devs {
			c, _ := cm.StandaloneCost(i)
			w.noncoop[k] += c
		}
	}
	return w, nil
}

// demandWalk yields the devices of rounds 1, 2, ...: each round re-draws
// the demand of shardChangeFrac of the devices of the round before,
// starting from the round-0 field.
type demandWalk struct {
	w       *shardRounds
	r       *rand.Rand
	devs    []core.Device
	changed []int // the devices the last next re-drew
}

// walk starts the round sequence over; every walk yields the same rounds.
func (w *shardRounds) walk() *demandWalk {
	return &demandWalk{w: w, r: rand.New(rand.NewSource(w.walkSeed)), devs: append([]core.Device(nil), w.in.Devices...)}
}

// next advances to the next round and returns its devices, which stay
// valid until the following call.
func (d *demandWalk) next() []core.Device {
	d.changed = d.r.Perm(len(d.devs))[:int(shardChangeFrac*float64(len(d.devs)))]
	for _, i := range d.changed {
		d.devs[i].Demand = d.w.demandMin + d.r.Float64()*(d.w.demandMax-d.w.demandMin)
	}
	return d.devs
}

// shardTally accumulates the deterministic per-round counts.
type shardTally struct {
	rounds                         int
	replicated, reassigned, shards int
	passes, switches               int
	cost, noncoop                  float64
	hash                           [32]byte // chained over EncodeSchedule of each round
}

func (t *shardTally) add(res *shard.Result, noncoop float64) {
	t.rounds++
	t.replicated += res.Replicated
	t.reassigned += res.Reassigned
	t.shards += res.Shards
	t.passes += res.Passes
	t.switches += res.Switches
	t.cost += res.TotalCost
	t.noncoop += noncoop
	t.hash = sha256.Sum256(append(t.hash[:], shard.EncodeSchedule(res.Schedule)...))
}

func (t *shardTally) counts() map[string]float64 {
	n := float64(t.rounds)
	return map[string]float64{
		"shard-rounds.cost_ratio":                      t.cost / t.noncoop,
		"shard-rounds.shard.replicated_ratio":          float64(t.replicated) / n / shardDevices,
		"shard-rounds.shard.reassigned_per_replicated": float64(t.reassigned) / float64(t.replicated),
		"shard-rounds.shard.cells":                     float64(t.shards) / n,
		"shard-rounds.shard.passes_per_round":          float64(t.passes) / n,
		"shard-rounds.shard.switches_per_round":        float64(t.switches) / n,
		// The first 52 bits of the chained schedule hash, exact in a float64.
		"shard-rounds.shard.schedule_hash": float64(binary.BigEndian.Uint64(t.hash[:8]) >> 12),
	}
}

// setup builds a planner and solves the warm-up round.
func (w *shardRounds) setup() (*shard.Planner, time.Duration, error) {
	start := time.Now()
	p, err := shard.NewPlanner(w.in.Field, w.in.Chargers, core.CCSGAScheduler{}, w.cfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.Solve(w.in.Devices); err != nil {
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// check verifies one round's result: every shard Nash-stable, and a
// valid schedule over the round's devices and the planner's chargers.
func (w *shardRounds) check(v *verifier, r int, res *shard.Result) {
	err := res.Schedule.Validate(shardDevices, shardChargers)
	v.check(res.NashStable && err == nil, func() string {
		return fmt.Sprintf("shard-rounds round %d: nash=%v validate=%v", r, res.NashStable, err)
	})
}

// layers traces rounds: each round's Planner.Solve is the root span,
// with its allocations and GC cycles; after it the round is replayed
// layer by layer — Planner.Partition on the same devices, then every
// cell rebuilt from the partition and solved serially and cold with
// NewCostModel plus CCSGA. The cell times are cold approximations of
// the warm per-cell solves inside Solve.
func (w *shardRounds) layers(seconds float64, tr *tracer) (_ *report, err error) {
	const name = "shard-rounds"
	rep := newReport()
	var v verifier
	if err := pinSelf(); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, unpinSelf()) }()
	p, d, err := w.setup()
	if err != nil {
		return nil, err
	}
	rep.info[name+".setup_s"] = d.Seconds()
	t := &shardTally{}
	walk := w.walk()
	// Start from this pass's own live heap, so the GC paces the rounds
	// the same way whichever pass ran before.
	runtime.GC()
	var roundMS, allocMB, gcs, partMS, cellSum, cellMax, skew []float64
	limit := time.Duration(seconds / 2 * float64(time.Second))
	start := time.Now()
	r := 1
	for ; r <= shardTracedRounds || time.Since(start) < limit; r++ {
		devs := walk.next()
		m0 := readMem()
		t0 := time.Now()
		res, err := p.Solve(devs)
		t1 := time.Now()
		m1 := readMem()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		root := tr.record(r, -1, name+"/round", t0, t1)
		roundMS = append(roundMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		allocMB = append(allocMB, float64(m1.bytes-m0.bytes)/(1<<20))
		gcs = append(gcs, float64(m1.gcs-m0.gcs))
		w.check(&v, r, res)
		if r <= shardTracedRounds {
			t.add(res, w.noncoop[r-1])
		}

		var part *shard.Partition
		pd := tr.timed(r, root, name+"/shard.Partition", func() { part, err = p.Partition(devs) })
		if err != nil {
			return nil, err
		}
		partMS = append(partMS, float64(pd.Nanoseconds())/1e6)
		var sum, slowest time.Duration
		var solved int
		for _, sd := range part.Shards {
			if len(sd.Devices) == 0 {
				continue
			}
			sub := &core.Instance{Field: w.in.Field}
			for _, j := range sd.Chargers {
				sub.Chargers = append(sub.Chargers, w.in.Chargers[j])
			}
			for _, i := range sd.Devices {
				sub.Devices = append(sub.Devices, devs[i])
			}
			cd := tr.timed(r, root, name+"/shard.cell_solve", func() {
				var cm *core.CostModel
				if cm, err = core.NewCostModel(sub); err == nil {
					_, err = core.CCSGA(cm, core.CCSGAOptions{})
				}
			})
			if err != nil {
				return nil, err
			}
			sum += cd
			slowest = max(slowest, cd)
			solved++
		}
		cellSum = append(cellSum, float64(sum.Nanoseconds())/1e6)
		cellMax = append(cellMax, float64(slowest.Nanoseconds())/1e6)
		skew = append(skew, float64(slowest)/(float64(sum)/float64(solved)))
	}
	traced := r - 1
	// Untraced rounds continue the sequence for the overhead comparison.
	var plain []float64
	start = time.Now()
	for k := 0; k < shardTracedRounds || time.Since(start) < limit; k, r = k+1, r+1 {
		t0 := time.Now()
		res, err := p.Solve(walk.next())
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		plain = append(plain, float64(time.Since(t0).Nanoseconds())/1e6)
		w.check(&v, r, res)
	}
	m := rep.metrics
	m.set(name+".shard.partition_ms", mean(partMS), "ms")
	m.set(name+".shard.cell_solve_ms_sum", mean(cellSum), "ms")
	m.set(name+".shard.cell_solve_ms_max", mean(cellMax), "ms")
	m.set(name+".shard.cell_skew", mean(skew), "ratio")
	m.set(name+".shard.alloc_mb_per_round", mean(allocMB), "MB")
	m.set(name+".shard.gc_per_round", mean(gcs), "count")
	// Every count, the chained schedule hash and cost_ratio included,
	// enters the determinism self-check.
	rep.counts = t.counts()
	for _, k := range []string{"shard.replicated_ratio", "shard.reassigned_per_replicated"} {
		m.set(name+"."+k, rep.counts[name+"."+k], "ratio")
	}
	for _, k := range []string{"shard.cells", "shard.passes_per_round", "shard.switches_per_round"} {
		m.set(name+"."+k, rep.counts[name+"."+k], "count")
	}
	m.set(name+".trace.overhead_pct", overheadPct(roundMS, plain), "%")
	rep.info[name+".traced_rounds"] = traced
	v.fill(rep)
	return rep, nil
}
