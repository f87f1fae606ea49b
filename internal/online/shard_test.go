package online

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/shard"
)

// shardTestConfig builds a recurring workload over a clustered large
// field with sharding enabled at the given worker count.
func shardTestConfig(t *testing.T, workers int) Config {
	t.Helper()
	p := gen.LargeField(300, 8)
	in, err := gen.Instance(5, p)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := GenerateRecurringVisits(5, in.Devices, 3, 600, 60, 900, 1200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Chargers:  in.Chargers,
		Arrivals:  arrivals,
		Policy:    Threshold{K: len(in.Devices)},
		Scheduler: &core.CCSGAScheduler{},
		Field:     in.Field,
		Shard:     shard.Config{CellSize: p.FieldSide / 2, Overlap: p.FieldSide / 8, Workers: workers},
	}
}

// TestShardedRunMetrics exercises the online loop's sharded round path:
// every visit solves as one whole-population round, each round reports
// its decomposition diagnostics, and every round verifies Nash-stable.
func TestShardedRunMetrics(t *testing.T) {
	m, err := Run(shardTestConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 3 || m.Served != 900 {
		t.Fatalf("Rounds=%d Served=%d, want 3 rounds serving 900", m.Rounds, m.Served)
	}
	if m.DeadlineMisses != 0 {
		t.Errorf("DeadlineMisses = %d, want 0", m.DeadlineMisses)
	}
	if len(m.RoundStats) != 3 {
		t.Fatalf("RoundStats has %d entries, want 3", len(m.RoundStats))
	}
	for i, rs := range m.RoundStats {
		if !rs.NashStable {
			t.Errorf("round %d not Nash-stable", i)
		}
		if rs.Shards < 2 {
			t.Errorf("round %d used %d shards, want a real decomposition (>= 2)", i, rs.Shards)
		}
		if rs.Devices != 300 {
			t.Errorf("round %d served %d devices, want 300", i, rs.Devices)
		}
	}
}

// TestShardedRunWorkerDeterminism pins the online guarantee inherited
// from the planner: a sharded run's metrics — costs included — are
// identical at any Shard.Workers value.
func TestShardedRunWorkerDeterminism(t *testing.T) {
	ref, err := Run(shardTestConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		m, err := Run(shardTestConfig(t, w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, m) {
			t.Errorf("metrics differ between Shard.Workers=1 and %d:\n%+v\nvs\n%+v", w, ref, m)
		}
	}
}

// TestShardConfigValidation pins the wiring contracts: sharding needs a
// warm-capable scheduler, refuses to combine with WarmStart, and
// rejects a bad geometry before any round runs.
func TestShardConfigValidation(t *testing.T) {
	base := shardTestConfig(t, 1)

	cold := base
	cold.Scheduler = core.CCSAScheduler{}
	if _, err := Run(cold); err == nil || !strings.Contains(err.Error(), "RepairScheduler") {
		t.Errorf("cold scheduler with Shard: got %v, want RepairScheduler error", err)
	}

	both := base
	both.WarmStart = true
	if _, err := Run(both); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("Shard+WarmStart: got %v, want mutual-exclusion error", err)
	}

	bad := base
	bad.Shard.Overlap = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative overlap: want error, got nil")
	}
}
