package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// The boundary fixtures use a 300×300 field gridded into 100 m cells
// (a 3×3 grid, cells numbered row-major 0..8), linear tariffs and
// efficiency 1 so costs are easy to reason about by hand.

func fixField() geom.Rect { return geom.Square(300) }

func fixCharger(id string, x, y float64) core.Charger {
	return core.Charger{
		ID: id, Pos: geom.Pt(x, y),
		Fee: 1, Tariff: pricing.Linear{Rate: 0.1}, Efficiency: 1,
	}
}

func fixDevice(id string, x, y float64) core.Device {
	return core.Device{ID: id, Pos: geom.Pt(x, y), Demand: 100, MoveRate: 0.01}
}

// holders returns the positions of the shards whose device lists
// contain device i.
func holders(part *Partition, i int) []int {
	var out []int
	for k := range part.Shards {
		for _, d := range part.Shards[k].Devices {
			if d == i {
				out = append(out, k)
			}
		}
	}
	return out
}

// TestBoundaryDeviceOnCellEdge pins the floor semantics of the grid: a
// device exactly on an interior cell edge belongs to the higher-indexed
// cell, is not duplicated by a zero band, and with a positive band is
// additionally solved in the neighbor it sits on the edge of.
func TestBoundaryDeviceOnCellEdge(t *testing.T) {
	chargers := []core.Charger{
		fixCharger("west", 50, 50),  // cell 0
		fixCharger("east", 150, 50), // cell 1
	}
	devices := []core.Device{fixDevice("edge", 100, 50)} // exactly on the 0|1 edge

	for _, tc := range []struct {
		name        string
		overlap     float64
		wantHolders int
	}{
		// Overlap 0: the edge device lives in exactly one shard — its own
		// floor cell (the east one) — even though the west cell's
		// rectangle is at distance zero.
		{"zero-band", 0, 1},
		// Any positive band replicates it into the west shard too.
		{"positive-band", 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: tc.overlap})
			if err != nil {
				t.Fatal(err)
			}
			part, err := p.Partition(devices)
			if err != nil {
				t.Fatal(err)
			}
			hs := holders(part, 0)
			if len(hs) != tc.wantHolders {
				t.Fatalf("edge device solved in %d shards, want %d (partition %+v)", len(hs), tc.wantHolders, part.Shards)
			}
			// Floor semantics: the device's own cell is the east charger's.
			if own := part.Shards[part.Primary[0]]; tc.overlap == 0 && own.Cell != 1 {
				t.Errorf("edge device's shard is cell %d, want cell 1 (floor semantics)", own.Cell)
			}
			res, err := p.Solve(devices)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.Validate(len(devices), len(chargers)); err != nil {
				t.Errorf("schedule after reconciliation: %v", err)
			}
		})
	}
}

// TestBoundaryReachSpansThreeCells pins multi-neighbor replication: a
// device at the meeting point of several cells, with a band that
// reaches chargers in three of them, is solved in all three shards and
// reconciled into exactly one.
func TestBoundaryReachSpansThreeCells(t *testing.T) {
	chargers := []core.Charger{
		fixCharger("nw", 50, 50),  // cell 0
		fixCharger("ne", 150, 50), // cell 1
		fixCharger("sw", 50, 150), // cell 3
	}
	// (100,100) is the corner where cells 0, 1, 3 and 4 meet; its floor
	// cell is 4, which holds no charger, so every assignment comes from
	// the overlap band.
	devices := []core.Device{fixDevice("corner", 100, 100)}
	p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: 25})
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.Partition(devices)
	if err != nil {
		t.Fatal(err)
	}
	if hs := holders(part, 0); len(hs) != 3 {
		t.Fatalf("corner device solved in %d shards, want 3 (partition %+v)", len(hs), part.Shards)
	}
	if part.Replicated != 1 {
		t.Errorf("Replicated = %d, want 1", part.Replicated)
	}
	res, err := p.Solve(devices)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(len(devices), len(chargers)); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if res.Replicated != 1 || len(res.Schedule.Coalitions) != 1 {
		t.Errorf("after reconciliation: %d replicated, %d coalitions; want 1 and 1", res.Replicated, len(res.Schedule.Coalitions))
	}
	// All three chargers are identical and exactly equidistant (50√2 m
	// from the corner), so every singleton cost ties and the tie-break
	// falls through to the charger index: nw (charger 0).
	if got := res.Schedule.Coalitions[0].Charger; got != 0 {
		t.Errorf("equidistant tie resolved to charger %d, want 0 (smallest index)", got)
	}
}

// TestBoundaryZeroOverlapDisjoint pins the degraded mode: a zero band
// yields fully disjoint shards — every device solved exactly once,
// none dropped — including devices whose own cell has no charger,
// which the expanding ring search routes to the nearest feasible one.
func TestBoundaryZeroOverlapDisjoint(t *testing.T) {
	chargers := []core.Charger{
		fixCharger("west", 50, 50),   // cell 0
		fixCharger("east", 250, 250), // cell 8
	}
	devices := []core.Device{
		fixDevice("d0", 20, 20),    // cell 0, trivially west
		fixDevice("d1", 99.9, 10),  // just inside cell 0
		fixDevice("d2", 100.1, 10), // just inside cell 1: no charger, ring search → west
		fixDevice("d3", 150, 150),  // center cell 4: no charger, ring search
		fixDevice("d4", 299, 299),  // cell 8, east
	}
	p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.Partition(devices)
	if err != nil {
		t.Fatal(err)
	}
	if part.Replicated != 0 {
		t.Errorf("Replicated = %d, want 0 with a zero band", part.Replicated)
	}
	total := 0
	for i := range devices {
		hs := holders(part, i)
		if len(hs) != 1 {
			t.Errorf("device %d solved in %d shards, want exactly 1", i, len(hs))
		}
		total += len(hs)
	}
	if total != len(devices) {
		t.Errorf("%d assignments for %d devices — devices dropped or duplicated", total, len(devices))
	}
	res, err := p.Solve(devices)
	if err != nil {
		t.Fatal(err)
	}
	// Validate is a partition check: every device in exactly one
	// coalition is precisely "degrades to disjoint shards, drops none".
	if err := res.Schedule.Validate(len(devices), len(chargers)); err != nil {
		t.Fatalf("zero-band schedule: %v", err)
	}
	if !res.NashStable {
		t.Error("zero-band shards did not verify Nash-stable")
	}
	// The ring search routes the chargerless-cell devices to their
	// nearest charger: d2 to west, d3 equidistant-ish → nearest by
	// Euclidean distance (west at ~141.4 m, east at ~141.4 m — exactly
	// equidistant, smaller charger index wins).
	coalOf := make(map[int]int)
	for _, c := range res.Schedule.Coalitions {
		for _, m := range c.Members {
			coalOf[m] = c.Charger
		}
	}
	if coalOf[2] != 0 {
		t.Errorf("d2 served by charger %d, want 0 (nearest feasible via ring search)", coalOf[2])
	}
	if coalOf[3] != 0 {
		t.Errorf("d3 equidistant tie served by charger %d, want 0 (smallest index)", coalOf[3])
	}
}

// TestBoundaryRingSearchSkipsInfeasible pins the capacity interaction:
// a device whose nearby chargers cannot fit its demand is routed past
// them to the nearest feasible one instead of erroring or being
// dropped.
func TestBoundaryRingSearchSkipsInfeasible(t *testing.T) {
	small := fixCharger("small", 150, 150) // cell 4, adjacent to the device
	small.Capacity = 10                    // cannot fit demand 100
	big := fixCharger("big", 250, 50)      // cell 2, farther away
	chargers := []core.Charger{small, big}
	devices := []core.Device{fixDevice("d", 110, 110)} // cell 4, next to the small charger
	p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.Partition(devices)
	if err != nil {
		t.Fatal(err)
	}
	if got := part.Shards[part.Primary[0]].Chargers; len(got) != 1 || got[0] != 1 {
		t.Fatalf("device partitioned to chargers %v, want the feasible far charger [1]", got)
	}
	res, err := p.Solve(devices)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Coalitions[0].Charger; got != 1 {
		t.Errorf("served by charger %d, want 1", got)
	}
}

// TestBoundaryReconciledLoserReverifies pins the re-verification pass:
// when a replicated device is reconciled away from a shard, that shard
// re-solves and the final result still reports Nash stability and a
// valid partition.
func TestBoundaryReconciledLoserReverifies(t *testing.T) {
	chargers := []core.Charger{
		fixCharger("west", 50, 50),
		fixCharger("east", 150, 50),
	}
	// Three devices clustered by the east charger plus one between the
	// cells, inside the band of both: the boundary device joins the
	// east coalition (bigger session, same fee spread over more energy),
	// and the west shard — which also solved it — must drop it and
	// re-verify.
	devices := []core.Device{
		fixDevice("b", 95, 50),
		fixDevice("e1", 145, 50),
		fixDevice("e2", 150, 55),
		fixDevice("e3", 155, 50),
	}
	p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(devices)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicated != 1 {
		t.Fatalf("Replicated = %d, want 1", res.Replicated)
	}
	if err := res.Schedule.Validate(len(devices), len(chargers)); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if !res.NashStable {
		t.Error("not Nash-stable after reconciliation re-solve")
	}
	coalOf := make(map[int]int)
	for _, c := range res.Schedule.Coalitions {
		for _, m := range c.Members {
			coalOf[m] = c.Charger
		}
	}
	if coalOf[0] != 1 {
		t.Errorf("boundary device served by charger %d, want 1 (east coalition is cheaper per member)", coalOf[0])
	}
	if res.Reassigned != 1 {
		t.Errorf("Reassigned = %d, want 1 (primary was the nearer west charger)", res.Reassigned)
	}
}
