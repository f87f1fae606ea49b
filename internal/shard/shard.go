// Package shard decomposes a cooperative-charging planning instance
// spatially so the online loop can scale far beyond what one whole-field
// coalition-formation run can handle. A deterministic grid over the field
// splits the instance into per-cell sub-instances (one shard per cell
// that contains at least one charger); each shard runs a warm-started
// CCSGA solve independently — in parallel via internal/par — and boundary
// devices are reconciled through an overlap band: a device within reach
// of a neighboring cell's chargers is solved in every such shard and then
// assigned to the one where its cost share is cheapest, with the losing
// shards re-solving (warm, from their just-recorded equilibrium) so every
// shard's final assignment is re-verified as a pure Nash equilibrium.
//
// The decomposition is grounded in the locality of charging utility:
// moving cost grows linearly with distance, so devices far apart almost
// never profit from sharing a session, and capping the coalition-formation
// scope to a cell (plus its overlap band) preserves nearly all of the
// cooperation gain at a small fraction of the whole-field cost. The
// whole-field and sharded solves are compared head-to-head by the
// differential test battery in this package.
//
// Everything is byte-deterministic: shards are processed into pre-indexed
// slots, every tie-break is lexicographic on (cost, index), and the final
// schedule is assembled in canonical (charger, first member) order — the
// output is identical for every worker count and every internal shard
// enumeration order.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/par"
)

// Config tunes the spatial decomposition. The zero value disables
// sharding (callers embedding a Config treat CellSize == 0 as "solve the
// whole field").
type Config struct {
	// CellSize is the grid cell side, meters; > 0 enables sharding.
	CellSize float64
	// Overlap is the boundary band width, meters. A device is
	// additionally solved in every neighboring shard whose cell lies
	// within Overlap of the device's position. Zero degrades to fully
	// disjoint shards: every device is solved exactly once (never
	// dropped), but boundary devices lose the chance to join a
	// neighboring cell's cheaper session.
	Overlap float64
	// Workers bounds how many shards solve concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). The schedule is byte-identical for every
	// value.
	Workers int
}

func (c Config) validate() error {
	switch {
	case c.CellSize <= 0 || math.IsNaN(c.CellSize) || math.IsInf(c.CellSize, 0):
		return fmt.Errorf("shard: cell size %v invalid (need > 0)", c.CellSize)
	case c.Overlap < 0 || math.IsNaN(c.Overlap) || math.IsInf(c.Overlap, 0):
		return fmt.Errorf("shard: overlap %v invalid (need >= 0)", c.Overlap)
	}
	return nil
}

// shardInfo is one grid cell that owns at least one charger.
type shardInfo struct {
	// cell is the row-major grid cell index.
	cell int
	// rect is the cell's rectangle (edge cells may extend past the
	// field; only distances to it matter).
	rect geom.Rect
	// chargers are global charger indices in the cell, ascending.
	chargers []int
}

// Planner owns the grid decomposition of a fixed charger deployment and
// the per-shard warm-start carriers that persist across rounds of a
// recurring workload. Build one per run with NewPlanner and call Solve
// once per round; consecutive rounds over similar device populations
// re-solve only the perturbation (the per-shard carriers seed each solve
// from the shard's previous equilibrium).
//
// A Planner is not safe for concurrent Solve calls; the parallelism
// lives inside Solve.
type Planner struct {
	cfg      Config
	field    geom.Rect
	chargers []core.Charger
	sched    core.RepairScheduler

	cell       float64
	cols, rows int

	shards      []shardInfo
	shardOfCell map[int]int // cell index -> position in shards
	chargerCell []int       // charger index -> cell index
	warm        []*core.WarmStart
}

// NewPlanner builds the grid over field with cfg.CellSize cells, buckets
// the chargers into shards (one shard per cell holding >= 1 charger), and
// allocates a warm-start carrier per shard. A degenerate field (zero
// width or height) collapses to a single shard, which makes the sharded
// solve equivalent to the whole-field one.
func NewPlanner(field geom.Rect, chargers []core.Charger, sched core.RepairScheduler, cfg Config) (*Planner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(chargers) == 0 {
		return nil, errors.New("shard: no chargers")
	}
	if sched == nil {
		return nil, errors.New("shard: nil scheduler")
	}
	p := &Planner{
		cfg:      cfg,
		field:    field,
		chargers: chargers,
		sched:    sched,
		cell:     cfg.CellSize,
		cols:     gridDim(field.Width(), cfg.CellSize),
		rows:     gridDim(field.Height(), cfg.CellSize),
	}
	p.shardOfCell = make(map[int]int)
	p.chargerCell = make([]int, len(chargers))
	for j, ch := range chargers {
		c := p.cellOf(ch.Pos)
		p.chargerCell[j] = c
		k, ok := p.shardOfCell[c]
		if !ok {
			k = len(p.shards)
			p.shardOfCell[c] = k
			p.shards = append(p.shards, shardInfo{cell: c, rect: p.cellRect(c)})
		}
		p.shards[k].chargers = append(p.shards[k].chargers, j)
	}
	// Canonical shard order: ascending cell index. Charger lists are
	// already ascending (chargers were scanned in index order).
	sort.Slice(p.shards, func(a, b int) bool { return p.shards[a].cell < p.shards[b].cell })
	for k, s := range p.shards {
		p.shardOfCell[s.cell] = k
	}
	p.warm = make([]*core.WarmStart, len(p.shards))
	for k := range p.warm {
		p.warm[k] = core.NewWarmStart()
	}
	return p, nil
}

// gridDim returns the number of cells covering an extent.
func gridDim(extent, cell float64) int {
	n := int(math.Ceil(extent / cell))
	if n < 1 {
		n = 1
	}
	return n
}

// cellOf maps a position to its row-major grid cell, clamping positions
// outside the field into the boundary cells. A point exactly on an
// interior cell edge belongs to the higher-indexed cell (floor
// semantics) — pinned by the boundary-device regression tests.
func (p *Planner) cellOf(pos geom.Point) int {
	cx := clampInt(int(math.Floor((pos.X-p.field.MinX)/p.cell)), 0, p.cols-1)
	cy := clampInt(int(math.Floor((pos.Y-p.field.MinY)/p.cell)), 0, p.rows-1)
	return cy*p.cols + cx
}

// cellRect returns cell c's rectangle.
func (p *Planner) cellRect(c int) geom.Rect {
	cx, cy := c%p.cols, c/p.cols
	return geom.Rect{
		MinX: p.field.MinX + float64(cx)*p.cell,
		MinY: p.field.MinY + float64(cy)*p.cell,
		MaxX: p.field.MinX + float64(cx+1)*p.cell,
		MaxY: p.field.MinY + float64(cy+1)*p.cell,
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// feasible reports whether device d fits charger j's session capacity.
func (p *Planner) feasible(d core.Device, j int) bool {
	ch := p.chargers[j]
	return ch.Capacity == 0 || d.Demand/ch.Efficiency <= ch.Capacity*(1+1e-12)
}

// bestSingleton returns the cheapest feasible singleton session for d
// among shard k's chargers — (charger, cost) lexicographic, so ties break
// toward the smaller charger index — or (-1, +Inf) when none fits.
func (p *Planner) bestSingleton(d core.Device, k int) (int, float64) {
	bestJ, bestCost := -1, math.Inf(1)
	for _, j := range p.shards[k].chargers {
		if !p.feasible(d, j) {
			continue
		}
		ch := p.chargers[j]
		cost := ch.Fee + ch.Tariff.Price(d.Demand/ch.Efficiency) + d.MoveRate*d.Pos.Dist(ch.Pos)
		if cost < bestCost {
			bestJ, bestCost = j, cost
		}
	}
	return bestJ, bestCost
}

// ShardDevices is one shard's slice of a Partition.
type ShardDevices struct {
	// Cell is the shard's row-major grid cell index.
	Cell int
	// Chargers are the shard's charger indices (into the planner's
	// charger set), ascending.
	Chargers []int
	// Devices are the device indices (into the partitioned device
	// slice) this shard solves, ascending. A boundary device appears in
	// several shards' lists.
	Devices []int
}

// Partition is the device→shard assignment Solve works from, exposed for
// the boundary-regression tests and for diagnostics.
type Partition struct {
	// Shards aligns with the planner's shard order (ascending cell).
	Shards []ShardDevices
	// Primary[i] is the position in Shards of device i's primary shard —
	// the shard holding the charger where the device's standalone
	// (singleton) play is cheapest among the shards in reach.
	Primary []int
	// Replicated counts devices solved in more than one shard.
	Replicated int
}

// Partition assigns every device to its shard(s):
//
//  1. The candidate shards are the shard of the device's own grid cell
//     plus — when Overlap > 0 — every shard whose cell rectangle lies
//     within Overlap meters of the device. Shards with no
//     capacity-feasible charger for the device are skipped.
//  2. The primary shard is the candidate owning the charger with the
//     cheapest feasible singleton session (ties: smaller charger index);
//     the device is additionally replicated into every other candidate.
//  3. A device with no candidate at all (its cell has no chargers and
//     nothing is within the band) goes to the shard of its nearest
//     feasible charger, found by an expanding ring search — devices are
//     never dropped, even with Overlap == 0.
//
// It errors only when some device fits no charger's session capacity
// anywhere, the same condition that fails core.Instance.Validate.
func (p *Planner) Partition(devices []core.Device) (*Partition, error) {
	out := &Partition{
		Shards:  make([]ShardDevices, len(p.shards)),
		Primary: make([]int, len(devices)),
	}
	for k, s := range p.shards {
		out.Shards[k] = ShardDevices{Cell: s.cell, Chargers: s.chargers}
	}
	// Candidate buffer reused across devices.
	type cand struct {
		k    int // shard position
		j    int // best charger (global index)
		cost float64
	}
	var cands []cand
	for i, d := range devices {
		cands = cands[:0]
		own := p.cellOf(d.Pos)
		if k, ok := p.shardOfCell[own]; ok {
			if j, cost := p.bestSingleton(d, k); j >= 0 {
				cands = append(cands, cand{k: k, j: j, cost: cost})
			}
		}
		if p.cfg.Overlap > 0 {
			// Scan the cell window that could be within the band.
			cx0 := clampInt(int(math.Floor((d.Pos.X-p.cfg.Overlap-p.field.MinX)/p.cell)), 0, p.cols-1)
			cx1 := clampInt(int(math.Floor((d.Pos.X+p.cfg.Overlap-p.field.MinX)/p.cell)), 0, p.cols-1)
			cy0 := clampInt(int(math.Floor((d.Pos.Y-p.cfg.Overlap-p.field.MinY)/p.cell)), 0, p.rows-1)
			cy1 := clampInt(int(math.Floor((d.Pos.Y+p.cfg.Overlap-p.field.MinY)/p.cell)), 0, p.rows-1)
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					c := cy*p.cols + cx
					if c == own {
						continue
					}
					k, ok := p.shardOfCell[c]
					if !ok || p.shards[k].rect.DistTo(d.Pos) > p.cfg.Overlap {
						continue
					}
					if j, cost := p.bestSingleton(d, k); j >= 0 {
						cands = append(cands, cand{k: k, j: j, cost: cost})
					}
				}
			}
		}
		if len(cands) == 0 {
			k, err := p.nearestFeasibleShard(d)
			if err != nil {
				return nil, fmt.Errorf("shard: device %d (%s): %w", i, d.ID, err)
			}
			out.Primary[i] = k
			out.Shards[k].Devices = append(out.Shards[k].Devices, i)
			continue
		}
		best := 0
		for c := 1; c < len(cands); c++ {
			if cands[c].cost < cands[best].cost ||
				(cands[c].cost == cands[best].cost && cands[c].j < cands[best].j) {
				best = c
			}
		}
		out.Primary[i] = cands[best].k
		for _, c := range cands {
			out.Shards[c.k].Devices = append(out.Shards[c.k].Devices, i)
		}
		if len(cands) > 1 {
			out.Replicated++
		}
	}
	return out, nil
}

// nearestFeasibleShard finds the shard of the closest charger that fits
// d's demand, scanning grid cells in expanding Chebyshev rings around
// d's cell. Ties on distance break toward the smaller charger index.
func (p *Planner) nearestFeasibleShard(d core.Device) (int, error) {
	cx := clampInt(int(math.Floor((d.Pos.X-p.field.MinX)/p.cell)), 0, p.cols-1)
	cy := clampInt(int(math.Floor((d.Pos.Y-p.field.MinY)/p.cell)), 0, p.rows-1)
	bestJ, bestD2 := -1, math.Inf(1)
	scan := func(c int) {
		k, ok := p.shardOfCell[c]
		if !ok {
			return
		}
		for _, j := range p.shards[k].chargers {
			if !p.feasible(d, j) {
				continue
			}
			if d2 := d.Pos.Dist2(p.chargers[j].Pos); d2 < bestD2 {
				bestJ, bestD2 = j, d2
			}
		}
	}
	maxR := p.cols
	if p.rows > maxR {
		maxR = p.rows
	}
	for r := 0; r <= maxR; r++ {
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		for y := y0; y <= y1; y++ {
			if y < 0 || y >= p.rows {
				continue
			}
			for x := x0; x <= x1; x++ {
				if x < 0 || x >= p.cols {
					continue
				}
				// Ring only: skip the interior already scanned.
				if r > 0 && x != x0 && x != x1 && y != y0 && y != y1 {
					continue
				}
				scan(y*p.cols + x)
			}
		}
		// Chargers in rings beyond r are at least r cells away.
		if bestJ >= 0 && bestD2 <= float64(r)*p.cell*float64(r)*p.cell {
			break
		}
	}
	if bestJ < 0 {
		return 0, errors.New("fits no charger's session capacity")
	}
	return p.shardOfCell[p.chargerCell[bestJ]], nil
}

// Result is one sharded solve round.
type Result struct {
	// Schedule is the combined schedule over the round's devices, with
	// coalitions in canonical (charger, first member) order and charger
	// indices into the planner's charger set.
	Schedule *core.Schedule
	// TotalCost is the summed comprehensive cost, $.
	TotalCost float64
	// Shards counts shards that solved at least one device this round.
	Shards int
	// Replicated counts boundary devices solved in more than one shard.
	Replicated int
	// Reassigned counts boundary devices whose reconciled shard differs
	// from their primary — the cooperation the overlap band bought.
	Reassigned int
	// Passes and Switches sum the CCSGA engine diagnostics over every
	// per-shard solve, including the re-verification pass.
	Passes   int
	Switches int
	// NashStable reports whether every shard's final assignment was
	// verified as a pure Nash equilibrium of its shard game.
	NashStable bool
}

// shardRun is one shard's in-flight solve state.
type shardRun struct {
	devices []int // indices into the round's devices, ascending
	cm      *core.CostModel
	res     *core.CCSGAResult
	coalOf  []int // local device -> coalition index, built lazily
	// rs holds the shard's converged equilibrium for incremental repair
	// on the reconciliation re-solve. Rounds rebuild cost models, so the
	// state lives one round only.
	rs *core.RepairState
}

// Solve runs one sharded round over the devices: partition, parallel
// per-shard warm-started solves, boundary reconciliation, and a warm
// re-verification re-solve of every shard that lost a boundary device.
// The result is byte-identical for every Config.Workers value. Device
// indices in the returned schedule refer to the devices slice; charger
// indices refer to the planner's charger set.
func (p *Planner) Solve(devices []core.Device) (*Result, error) {
	if len(devices) == 0 {
		return nil, errors.New("shard: no devices")
	}
	part, err := p.Partition(devices)
	if err != nil {
		return nil, err
	}
	runs := make([]shardRun, len(p.shards))
	solve := func(_ context.Context, k int) error {
		devs := part.Shards[k].Devices
		if len(devs) == 0 {
			return nil
		}
		cm, err := core.NewCostModel(p.subInstance(k, devices, devs))
		if err != nil {
			return fmt.Errorf("shard: cell %d: %w", p.shards[k].cell, err)
		}
		// An unprimed repair state runs exactly the warm path and primes
		// itself with the converged equilibrium, arming the reconciliation
		// re-solve below for incremental repair.
		rs := core.NewRepairState()
		res, err := p.sched.ScheduleRepair(cm, p.warm[k], rs)
		if err != nil {
			return fmt.Errorf("shard: cell %d: %w", p.shards[k].cell, err)
		}
		runs[k] = shardRun{devices: devs, cm: cm, res: res, rs: rs}
		return nil
	}
	if err := par.Map(context.Background(), p.cfg.Workers, len(p.shards), solve); err != nil {
		return nil, err
	}
	out := &Result{Replicated: part.Replicated, NashStable: true}
	passes, switches := 0, 0
	for k := range runs {
		if runs[k].res != nil {
			passes += runs[k].res.Passes
			switches += runs[k].res.Switches
		}
	}

	// Reconcile boundary devices: each replicated device keeps the shard
	// where its cost share — its moving cost plus its demand-proportional
	// slice of the session's charging bill — is cheapest. Ties break
	// toward the smaller cell index. Everywhere else it is removed, and
	// the losing shards re-solve.
	removed := make(map[int][]int) // shard position -> local removals (global device indices)
	if part.Replicated > 0 {
		counts := make([]uint8, len(devices))
		for k := range part.Shards {
			for _, i := range part.Shards[k].Devices {
				if counts[i] < 2 {
					counts[i]++
				}
			}
		}
		holders := make(map[int][]int) // device -> shard positions, ascending
		for k := range part.Shards {
			for _, i := range part.Shards[k].Devices {
				if counts[i] > 1 {
					holders[i] = append(holders[i], k)
				}
			}
		}
		dups := make([]int, 0, len(holders))
		for i := range holders {
			dups = append(dups, i)
		}
		sort.Ints(dups)
		for _, i := range dups {
			ks := holders[i]
			best := ks[0]
			bestShare := p.memberShare(&runs[best], i)
			for _, k := range ks[1:] {
				// Ties break on the grid cell index, not the shard's slice
				// position — positions depend on the enumeration order,
				// cells do not (pinned by the shard-order determinism test).
				share := p.memberShare(&runs[k], i)
				if share < bestShare ||
					(share == bestShare && p.shards[k].cell < p.shards[best].cell) {
					best, bestShare = k, share
				}
			}
			if best != part.Primary[i] {
				out.Reassigned++
			}
			for _, k := range ks {
				if k != best {
					removed[k] = append(removed[k], i)
				}
			}
		}
	}

	// Per-shard Nash re-verification pass: shards that lost a boundary
	// device re-solve warm from their just-recorded equilibrium (the
	// departed device's carrier entry is simply ignored); untouched
	// shards keep their verified equilibrium as is.
	if len(removed) > 0 {
		affected := make([]int, 0, len(removed))
		for k := range removed {
			affected = append(affected, k)
		}
		sort.Ints(affected)
		resolve := func(_ context.Context, idx int) error {
			k := affected[idx]
			gone := removed[k]
			sort.Ints(gone)
			keep := runs[k].devices[:0:0]
			gi := 0
			for _, i := range runs[k].devices {
				if gi < len(gone) && gone[gi] == i {
					gi++
					continue
				}
				keep = append(keep, i)
			}
			if len(keep) == 0 {
				runs[k] = shardRun{}
				return nil
			}
			// Patch the shard's existing cost model — the delta ops tell
			// the repair state which slots went dirty — and repair the
			// primed equilibrium instead of rebuilding the model and
			// re-running the full dynamics. Removals go descending so
			// local indices stay valid.
			cm := runs[k].cm
			local := make([]int, len(gone))
			for gi, i := range gone {
				local[gi] = sort.SearchInts(runs[k].devices, i)
			}
			for gi := len(local) - 1; gi >= 0; gi-- {
				if err := cm.RemoveDevice(local[gi]); err != nil {
					return fmt.Errorf("shard: cell %d: %w", p.shards[k].cell, err)
				}
			}
			res, err := p.sched.ScheduleRepair(cm, p.warm[k], runs[k].rs)
			if err != nil {
				return fmt.Errorf("shard: cell %d: %w", p.shards[k].cell, err)
			}
			runs[k] = shardRun{devices: keep, cm: cm, res: res, rs: runs[k].rs}
			return nil
		}
		if err := par.Map(context.Background(), p.cfg.Workers, len(affected), resolve); err != nil {
			return nil, err
		}
		for _, k := range affected {
			if runs[k].res != nil {
				passes += runs[k].res.Passes
				switches += runs[k].res.Switches
			}
		}
	}

	// Assemble the global schedule in canonical order and total the cost
	// shard by shard, walking shards in cell order so the floating-point
	// cost accumulation doesn't depend on the enumeration order either.
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.shards[order[a]].cell < p.shards[order[b]].cell })
	sched := &core.Schedule{}
	for _, k := range order {
		run := &runs[k]
		if run.res == nil {
			continue
		}
		out.Shards++
		out.TotalCost += run.cm.TotalCost(run.res.Schedule)
		out.NashStable = out.NashStable && run.res.NashStable
		for _, c := range run.res.Schedule.Coalitions {
			members := make([]int, len(c.Members))
			for mi, li := range c.Members {
				members[mi] = run.devices[li]
			}
			sched.Coalitions = append(sched.Coalitions, core.Coalition{
				Charger: part.Shards[k].Chargers[c.Charger],
				Members: members,
			})
		}
	}
	sort.Slice(sched.Coalitions, func(a, b int) bool {
		ca, cb := sched.Coalitions[a], sched.Coalitions[b]
		if ca.Charger != cb.Charger {
			return ca.Charger < cb.Charger
		}
		return ca.Members[0] < cb.Members[0]
	})
	if err := sched.Validate(len(devices), len(p.chargers)); err != nil {
		return nil, fmt.Errorf("shard: reconciled schedule invalid: %w", err)
	}
	out.Schedule = sched
	out.Passes = passes
	out.Switches = switches
	return out, nil
}

// memberShare returns device i's reconciliation cost in run's current
// schedule: its moving cost plus its purchased-energy-proportional slice
// of the coalition's charging bill (the PDS share; used as the
// scheme-independent reconciliation metric).
func (p *Planner) memberShare(run *shardRun, device int) float64 {
	li := sort.SearchInts(run.devices, device)
	if run.coalOf == nil {
		run.coalOf = make([]int, len(run.devices))
		for ci := range run.res.Schedule.Coalitions {
			for _, m := range run.res.Schedule.Coalitions[ci].Members {
				run.coalOf[m] = ci
			}
		}
	}
	c := run.res.Schedule.Coalitions[run.coalOf[li]]
	cm := run.cm
	total := cm.Purchased(c.Members, c.Charger)
	mine := cm.Instance().Devices[li].Demand / cm.Instance().Chargers[c.Charger].Efficiency
	return cm.MovingCost(li, c.Charger) + cm.ChargingCost(c.Members, c.Charger)*mine/total
}

// subInstance builds shard k's sub-instance over the given device
// indices. Charger and device structs are copied so concurrent shard
// solves never share mutable state.
func (p *Planner) subInstance(k int, devices []core.Device, devs []int) *core.Instance {
	s := p.shards[k]
	sub := &core.Instance{
		Field:    p.field,
		Devices:  make([]core.Device, len(devs)),
		Chargers: make([]core.Charger, len(s.chargers)),
	}
	for idx, j := range s.chargers {
		sub.Chargers[idx] = p.chargers[j]
	}
	for idx, gi := range devs {
		sub.Devices[idx] = devices[gi]
	}
	return sub
}

// permuteShards reorders the planner's internal shard slice by perm (a
// permutation of [0, len(p.shards))), rebuilding the cell lookup to match.
// It exists only for the determinism tests: every Planner output must be
// byte-identical under any enumeration order, because all tie-breaks are
// on cell and charger indices, never on slice position.
func (p *Planner) permuteShards(perm []int) {
	shards := make([]shardInfo, len(p.shards))
	warm := make([]*core.WarmStart, len(p.warm))
	for to, from := range perm {
		shards[to] = p.shards[from]
		warm[to] = p.warm[from]
	}
	p.shards = shards
	p.warm = warm
	for k, s := range p.shards {
		p.shardOfCell[s.cell] = k
	}
}

// Solve is the one-shot convenience wrapper: grid the instance's field,
// solve it sharded, and return the combined result. Use a Planner
// directly when rounds recur over the same charger deployment so the
// per-shard warm carriers persist.
func Solve(in *core.Instance, sched core.RepairScheduler, cfg Config) (*Result, error) {
	p, err := NewPlanner(in.Field, in.Chargers, sched, cfg)
	if err != nil {
		return nil, err
	}
	return p.Solve(in.Devices)
}

// EncodeSchedule renders a schedule in a canonical, byte-stable text
// form — one "charger: members...\n" line per coalition, sorted by
// (charger, first member) — for determinism pins and golden trace
// hashes. Two schedules encode identically iff they describe the same
// partition.
func EncodeSchedule(s *core.Schedule) []byte {
	cs := append([]core.Coalition(nil), s.Coalitions...)
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Charger != cs[b].Charger {
			return cs[a].Charger < cs[b].Charger
		}
		return cs[a].Members[0] < cs[b].Members[0]
	})
	var b []byte
	for _, c := range cs {
		b = strconv.AppendInt(b, int64(c.Charger), 10)
		b = append(b, ':')
		for _, m := range c.Members {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(m), 10)
		}
		b = append(b, '\n')
	}
	return b
}
