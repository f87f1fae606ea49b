package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapRunsEveryItem(t *testing.T) {
	// 0 = GOMAXPROCS; 128 > n exercises the clamp to one worker per item.
	for _, workers := range []int{0, 1, 2, 4, 7, 16, 128} {
		n := 100
		hit := make([]int32, n)
		if err := Map(context.Background(), workers, n, func(_ context.Context, i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	err := Map(context.Background(), 4, 50, func(_ context.Context, i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestMapHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := Map(ctx, 4, 10, func(context.Context, int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
