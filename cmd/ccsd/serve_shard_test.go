package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pricing"
	"repro/internal/shard"
)

// shardServeOpts is the sharded-serve configuration under test: cells
// small enough that serveInstance's 3-charger row splits across them.
func shardServeOpts(workers int) serveOpts {
	return serveOpts{
		cacheSize: 16,
		shard:     shard.Config{CellSize: 400, Overlap: 50, Workers: workers},
	}
}

// TestServeShardSolvesValid routes a one-shot CCSGA solve through the
// server-side shard path and checks the answer is a complete, cacheable
// schedule: every device assigned exactly once, replays served from the
// byte cache.
func TestServeShardSolvesValid(t *testing.T) {
	_, dial := startServerOpts(t, shardServeOpts(0))
	conn := dial()
	br := bufio.NewReader(conn)
	in := serveInstance(24, 0)
	line := solveLine(t, in, "CCSGA")

	first := roundTrip(t, conn, br, line)
	if first.Err != "" {
		t.Fatalf("sharded solve failed: %s", first.Err)
	}
	if first.Cached || first.Sessions == 0 || first.Cost <= 0 {
		t.Fatalf("implausible sharded solve: %+v", first)
	}
	seen := map[string]int{}
	for _, c := range first.Coalitions {
		for _, d := range c.Devices {
			seen[d]++
		}
	}
	if len(seen) != len(in.Devices) {
		t.Fatalf("sharded schedule covers %d of %d devices", len(seen), len(in.Devices))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("device %s assigned %d times", id, n)
		}
	}
	second := roundTrip(t, conn, br, line)
	if !second.Cached {
		t.Fatalf("replay not served from cache: %+v", second)
	}
	if second.Cost != first.Cost || second.Sessions != first.Sessions {
		t.Fatalf("cached replay drifted: %+v vs %+v", second, first)
	}
}

// TestServeShardFallbackByteIdentical pins the compatibility contract:
// a scheduler without warm-start support (CCSA) takes the whole-field
// path even on a shard-configured server, so its responses match a
// server with sharding off byte for byte. Same for the zero config.
func TestServeShardFallbackByteIdentical(t *testing.T) {
	_, dialPlain := startServer(t, 16)
	_, dialShard := startServerOpts(t, shardServeOpts(0))
	plain, sharded := dialPlain(), dialShard()
	pbr, sbr := bufio.NewReader(plain), bufio.NewReader(sharded)

	in := serveInstance(16, 0)
	for _, scheduler := range []string{"CCSA", "NONCOOP"} {
		line := solveLine(t, in, scheduler)
		for i := 0; i < 2; i++ { // fresh solve, then cached replay
			want := rawRoundTrip(t, plain, pbr, line)
			got := rawRoundTrip(t, sharded, sbr, line)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d diverged on shard server:\n got %s\nwant %s",
					scheduler, i, got, want)
			}
		}
	}
}

// TestServeShardWorkersByteIdentical pins shard.Config's determinism
// contract at the service boundary: worker parallelism must not leak
// into response bytes (it is also excluded from the cache key).
func TestServeShardWorkersByteIdentical(t *testing.T) {
	_, dialOne := startServerOpts(t, shardServeOpts(1))
	_, dialFour := startServerOpts(t, shardServeOpts(4))
	one, four := dialOne(), dialFour()
	obr, fbr := bufio.NewReader(one), bufio.NewReader(four)

	line := solveLine(t, serveInstance(24, 1), "CCSGA")
	want := rawRoundTrip(t, one, obr, line)
	got := rawRoundTrip(t, four, fbr, line)
	if !bytes.Equal(got, want) {
		t.Fatalf("worker count changed response bytes:\n got %s\nwant %s", got, want)
	}
}

func TestNewSolveServerRejectsBadShardConfig(t *testing.T) {
	for name, cfg := range map[string]shard.Config{
		"negative cell":    {CellSize: -1},
		"nan cell":         {CellSize: math.NaN()},
		"inf cell":         {CellSize: math.Inf(1)},
		"negative overlap": {CellSize: 100, Overlap: -1},
		"nan overlap":      {CellSize: 100, Overlap: math.NaN()},
	} {
		if _, err := newSolveServer(serveOpts{shard: cfg}); err == nil {
			t.Errorf("%s: newSolveServer accepted %+v", name, cfg)
		}
	}
}

func TestRunRejectsBadShardFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"negative cell":        {"-serve", "-shard-cell", "-1"},
		"negative overlap":     {"-serve", "-shard-cell", "100", "-shard-overlap", "-1"},
		"overlap without cell": {"-serve", "-shard-overlap", "5"},
		"workers without cell": {"-serve", "-shard-workers", "2"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// TestServeShardInvalidInstanceSameError pins the sharded path's
// validation: ccsd leaves validation to the solve, and shard.Solve only
// validates cell sub-instances, so the shard branch validates the whole
// instance itself. An invalid instance must get the same error bytes
// with sharding on and off, on a fresh solve and on a repeat.
func TestServeShardInvalidInstanceSameError(t *testing.T) {
	_, dialPlain := startServer(t, 16)
	_, dialShard := startServerOpts(t, shardServeOpts(0))
	plain, sharded := dialPlain(), dialShard()
	pbr, sbr := bufio.NewReader(plain), bufio.NewReader(sharded)

	negative := serveInstance(24, 0)
	negative.Devices[5].Demand = -5
	unreachable := serveInstance(24, 0)
	for j := range unreachable.Chargers {
		unreachable.Chargers[j].Capacity = 50
	}
	badTariff := serveInstance(24, 0)
	badTariff.Chargers[1].Tariff = pricing.PowerLaw{Coeff: 0.3, Exponent: 2}
	for name, in := range map[string]*core.Instance{
		"negative demand": negative,
		"over capacity":   unreachable,
		"convex tariff":   badTariff,
		"no chargers":     {Field: negative.Field, Devices: serveInstance(24, 0).Devices},
		"empty":           {Field: negative.Field},
	} {
		line := solveLine(t, in, "CCSGA")
		for i := 0; i < 2; i++ {
			want := rawRoundTrip(t, plain, pbr, line)
			got := rawRoundTrip(t, sharded, sbr, line)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: sharded error differs:\n got %s\nwant %s", name, i, got, want)
			}
			if !bytes.Contains(got, []byte(`"error":"core: `)) {
				t.Fatalf("%s round %d: want a validation error, got %s", name, i, got)
			}
		}
	}
}
