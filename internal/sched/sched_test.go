package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		const n = 103
		p := NewPool(n, workers)
		hits := make([]int32, n)
		for round := 0; round < 3; round++ {
			p.Dispatch(func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
		}
		p.Stop()
		for i, h := range hits {
			if h != 3 {
				t.Fatalf("workers=%d: index %d visited %d times, want 3", workers, i, h)
			}
		}
	}
}

func TestPoolShardOfMatchesRanges(t *testing.T) {
	p := NewPool(100, 7)
	owner := make([]int, 100)
	p.Dispatch(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			owner[i] = w
		}
	})
	p.Stop()
	for i, w := range owner {
		if got := p.ShardOf(i); got != w {
			t.Fatalf("ShardOf(%d) = %d, but worker %d owns it", i, got, w)
		}
	}
}

func TestPoolEmpty(t *testing.T) {
	p := NewPool(0, 4)
	if p.Workers() != 0 {
		t.Fatalf("empty pool has %d workers", p.Workers())
	}
	ran := false
	p.Dispatch(func(w, lo, hi int) { ran = true }) // must not hang
	p.Stop()
	if ran {
		t.Fatal("dispatch on empty pool ran a worker")
	}
}

func TestParallelForFirstError(t *testing.T) {
	errBoom := errors.New("boom")
	err := ParallelFor(context.Background(), 50, 4, func(_, i int) error {
		if i == 7 || i == 31 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want %v", err, errBoom)
	}
}

func TestParallelForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ParallelFor(ctx, 10, 2, func(_, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestParallelForWorkerIndex pins the per-worker scratch contract: every
// item sees a worker index in [0, max(1, workers clamped to n)), 0 on the
// inline path, and no two items of one worker ever overlap, so scratch
// indexed by w needs no lock.
func TestParallelForWorkerIndex(t *testing.T) {
	for _, tc := range []struct{ n, workers, bound int }{
		{40, 0, 1}, {40, 1, 1}, {40, 3, 3}, {2, 5, 2},
	} {
		busy := make([]atomic.Bool, tc.bound)
		var hits atomic.Int64
		err := ParallelFor(context.Background(), tc.n, tc.workers, func(w, i int) error {
			if w < 0 || w >= tc.bound {
				return fmt.Errorf("item %d ran on worker %d, want [0, %d)", i, w, tc.bound)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker %d ran two items at once", w)
			}
			hits.Add(1)
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		if hits.Load() != int64(tc.n) {
			t.Fatalf("n=%d workers=%d: %d items ran", tc.n, tc.workers, hits.Load())
		}
	}
}

// TestParallelForDistinctWorkers holds every item until all have started,
// so each runs on its own goroutine at once; their worker indices must then
// be exactly {0, ..., n-1}.
func TestParallelForDistinctWorkers(t *testing.T) {
	const n = 3
	var started sync.WaitGroup
	started.Add(n)
	seen := make([]atomic.Int32, n)
	err := ParallelFor(context.Background(), n, n, func(w, i int) error {
		started.Done()
		started.Wait()
		if w < 0 || w >= n {
			return fmt.Errorf("item %d ran on worker %d", i, w)
		}
		seen[w].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range seen {
		if got := seen[w].Load(); got != 1 {
			t.Fatalf("worker %d ran %d items, want 1", w, got)
		}
	}
}
