package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite the golden trace hash")

// TestDeterminismAcrossWorkers pins the package's first determinism
// guarantee: the reconciled schedule — and every diagnostic — is
// byte-identical whether shards solve serially or on 4 or 8 workers.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := gen.Default()
		p.NumDevices = 60
		p.NumChargers = 10
		in, err := gen.Instance(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		var ref *Result
		var refBytes []byte
		for _, workers := range []int{1, 4, 8} {
			res, err := Solve(in, &core.CCSGAScheduler{}, Config{CellSize: 400, Overlap: 400, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			enc := EncodeSchedule(res.Schedule)
			if ref == nil {
				ref, refBytes = res, enc
				continue
			}
			if !bytes.Equal(enc, refBytes) {
				t.Errorf("seed %d: schedule bytes differ between Workers=1 and Workers=%d:\n%s\nvs\n%s",
					seed, workers, refBytes, enc)
			}
			if res.TotalCost != ref.TotalCost {
				t.Errorf("seed %d workers %d: TotalCost %v != %v", seed, workers, res.TotalCost, ref.TotalCost)
			}
			if res.Passes != ref.Passes || res.Switches != ref.Switches ||
				res.Replicated != ref.Replicated || res.Reassigned != ref.Reassigned {
				t.Errorf("seed %d workers %d: diagnostics differ: %+v vs %+v", seed, workers, res, ref)
			}
		}
	}
}

// TestDeterminismAcrossShardOrder pins the second guarantee: the output
// does not depend on the order shards are enumerated internally,
// because every tie-break keys on grid-cell and charger indices, never
// on slice position. Two planners over the same field — one canonical,
// one with its shard slice reversed via the test hook — must produce
// byte-identical schedules and bit-identical costs round after
// recurring round (the warm carriers evolve too, so a divergence
// compounds and cannot hide).
func TestDeterminismAcrossShardOrder(t *testing.T) {
	p := gen.Default()
	p.NumDevices = 60
	p.NumChargers = 10
	in, err := gen.Instance(11, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CellSize: 400, Overlap: 400, Workers: 4}
	a, err := NewPlanner(in.Field, in.Chargers, &core.CCSGAScheduler{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanner(in.Field, in.Chargers, &core.CCSGAScheduler{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, len(b.shards))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	b.permuteShards(perm)
	for round := 0; round < 3; round++ {
		ra, err := a.Solve(in.Devices)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Solve(in.Devices)
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := EncodeSchedule(ra.Schedule), EncodeSchedule(rb.Schedule)
		if !bytes.Equal(ea, eb) {
			t.Fatalf("round %d: schedule bytes differ under reversed shard order:\n%s\nvs\n%s", round, ea, eb)
		}
		if ra.TotalCost != rb.TotalCost {
			t.Fatalf("round %d: TotalCost %v != %v under reversed shard order", round, ra.TotalCost, rb.TotalCost)
		}
	}
}

// TestGoldenTraceHash10k pins a 10k-device / 100-charger recurring trace
// end to end: three warm rounds over a clustered large field, hashed
// round by round (SHA-256 over the canonical schedule encoding) and
// checked against testdata/trace10k.sha256. Any change to the grid
// math, the candidate or reconciliation tie-breaks, the warm carriers,
// or CCSGA itself shows up as a hash diff. Regenerate deliberately with
// `go test ./internal/shard -run TestGoldenTraceHash10k -update`.
func TestGoldenTraceHash10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device trace skipped in -short mode")
	}
	p := gen.LargeField(10_000, 100)
	in, err := gen.Instance(2021, p)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(in.Field, in.Chargers, &core.CCSGAScheduler{},
		Config{CellSize: p.FieldSide / 5, Overlap: p.FieldSide / 20, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// One whole-population round per visit, as in the scale experiment:
	// the same sensors return, so rounds 2 and 3 exercise the warm
	// re-solve path over the carriers round 1 populated.
	h := sha256.New()
	for v := 0; v < 3; v++ {
		res, err := planner.Solve(in.Devices)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(EncodeSchedule(res.Schedule))
	}
	got := hex.EncodeToString(h.Sum(nil))
	golden := filepath.Join("testdata", "trace10k.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("10k trace hash changed:\n got %s\nwant %s\nIf the change is intended, regenerate with -update.",
			got, strings.TrimSpace(string(want)))
	}
}
