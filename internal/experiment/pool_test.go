package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// The experiment harness fans its cells out through par.Map. par's own
// tests cover every item running once and the empty pool; the tests
// below pin the parts of the contract the harness's error and
// cancellation handling relies on.

// TestParallelMapFirstErrorSerial pins the "first error, not a later or
// joined one" contract where ordering is fully deterministic: with one
// worker, the error at index 2 is returned and indices after it never
// run, even though index 5 would also fail.
func TestParallelMapFirstErrorSerial(t *testing.T) {
	errAt2 := errors.New("boom at 2")
	var ran int32
	err := par.Map(context.Background(), 1, 10, func(_ context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		switch i {
		case 2:
			return errAt2
		case 5:
			return errors.New("later error that must never surface")
		}
		return nil
	})
	if !errors.Is(err, errAt2) {
		t.Fatalf("err = %v, want %v", err, errAt2)
	}
	if ran != 3 {
		t.Errorf("ran %d items, want 3 (0, 1, and the failing 2)", ran)
	}
}

// TestParallelMapErrorStopsPoolPromptly is the cancellation test: one
// failing cell must cancel the pool's context, stop workers from
// claiming the remaining items, and surface exactly that error.
func TestParallelMapErrorStopsPoolPromptly(t *testing.T) {
	boom := errors.New("cell failure")
	const n = 1000
	var ran int32
	err := par.Map(context.Background(), 8, n, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		// Give the failure time to propagate so a pool that kept
		// claiming items would visibly run far more than a few cells.
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing cell's error %v", err, boom)
	}
	if got := atomic.LoadInt32(&ran); got >= n/2 {
		t.Errorf("pool ran %d of %d items after the failure, want a prompt stop", got, n)
	}
}

// TestParallelMapOnlyFirstErrorSurfaces forces several concurrent
// failures and checks the returned error is one of them, unwrapped —
// never a joined aggregate.
func TestParallelMapOnlyFirstErrorSurfaces(t *testing.T) {
	errs := make([]error, 16)
	for i := range errs {
		errs[i] = fmt.Errorf("failure %d", i)
	}
	err := par.Map(context.Background(), 8, len(errs), func(_ context.Context, i int) error {
		return errs[i]
	})
	if err == nil {
		t.Fatal("want an error")
	}
	matches := 0
	for _, e := range errs {
		if errors.Is(err, e) {
			matches++
		}
	}
	if matches != 1 {
		t.Errorf("returned error matches %d cell errors, want exactly 1 (no joining): %v", matches, err)
	}
}

func TestParallelMapExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := par.Map(ctx, 4, 100, func(_ context.Context, _ int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers check the context before claiming; a pre-cancelled context
	// must not start meaningful work (a few in-flight claims are fine).
	if got := atomic.LoadInt32(&ran); got > 8 {
		t.Errorf("ran %d items under a pre-cancelled context", got)
	}
}

func TestParallelMapCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := par.Map(ctx, 4, 500, func(_ context.Context, i int) error {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got >= 500 {
		t.Errorf("ran all %d items despite mid-run cancellation", got)
	}
}

func TestConfigWorkerCount(t *testing.T) {
	if got := (Config{Workers: 3}).workerCount(); got != 3 {
		t.Errorf("workerCount = %d, want 3", got)
	}
	if got := (Config{}).workerCount(); got < 1 {
		t.Errorf("default workerCount = %d, want >= 1", got)
	}
	if got := (Config{Workers: -2}).workerCount(); got < 1 {
		t.Errorf("negative Workers workerCount = %d, want >= 1", got)
	}
}

func TestConfigSeedDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().Seed; got != 2021 {
		t.Errorf("zero-value Seed = %d, want default 2021", got)
	}
	if got := (Config{Seed: 7}).withDefaults().Seed; got != 7 {
		t.Errorf("Seed 7 = %d after defaults", got)
	}
	if got := (Config{Seed: 0, SeedSet: true}).withDefaults().Seed; got != 0 {
		t.Errorf("explicit seed 0 = %d after defaults, want the literal 0", got)
	}
}

func TestIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Fatalf("IDs has %d entries, registry %d", len(ids), len(Registry()))
	}
	for i, e := range Registry() {
		if ids[i] != e.ID {
			t.Errorf("IDs[%d] = %q, want %q", i, ids[i], e.ID)
		}
	}
}
