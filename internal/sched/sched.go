// Package sched provides the repository's shared scheduling primitives: a
// persistent fixed-range worker pool with a barrier per phase (the LOCAL
// engine's round machinery) and a transient work-stealing ParallelFor (the
// facade's sweep fan-out). It is a leaf package — stdlib imports only — so
// both internal/local and internal/core can build on one scheduler instead
// of maintaining private copies (the carried-forward ROADMAP item).
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent pool of workers, each owning a fixed contiguous index
// range of [0, n). Phases are broadcast over per-worker buffered channels and
// joined on a WaitGroup: a steady-state Dispatch performs no allocation and
// spawns no goroutines, which is what lets a simulator round stay at zero
// heap allocations. Ranges are static so a worker's range can double as a
// data shard (e.g. the LOCAL engine's receiver shards).
type Pool struct {
	wg     sync.WaitGroup
	cmds   []chan func(w, lo, hi int)
	lo, hi []int
	chunk  int
}

// NewPool creates a pool over [0, n). workers <= 0 means GOMAXPROCS; the
// count is clamped to n, so a pool over a small n has at most n workers (and
// a pool over n == 0 has none — Dispatch is then a no-op).
func NewPool(n, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{}
	p.chunk = (n + workers - 1) / workers
	if p.chunk < 1 {
		p.chunk = 1
	}
	for w := 0; w < workers; w++ {
		lo := w * p.chunk
		hi := lo + p.chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		p.lo = append(p.lo, lo)
		p.hi = append(p.hi, hi)
		p.cmds = append(p.cmds, make(chan func(w, lo, hi int), 1))
	}
	for w := range p.cmds {
		go p.work(w)
	}
	return p
}

// Workers returns the number of live workers (possibly fewer than requested
// when n is small).
func (p *Pool) Workers() int { return len(p.cmds) }

// Chunk returns the size of each worker's index range (the last range may be
// shorter). ShardOf(i) == i/Chunk() for every i the pool covers.
func (p *Pool) Chunk() int { return p.chunk }

// ShardOf returns the worker index owning i.
func (p *Pool) ShardOf(i int) int { return i / p.chunk }

// Dispatch runs fn(w, lo, hi) on every worker over its own range and blocks
// until all complete. fn must confine writes to per-worker state or to data
// indexed within [lo, hi).
func (p *Pool) Dispatch(fn func(w, lo, hi int)) {
	p.wg.Add(len(p.cmds))
	for _, c := range p.cmds {
		c <- fn
	}
	p.wg.Wait()
}

// Stop terminates the workers; it must be called exactly once, after the
// last Dispatch.
func (p *Pool) Stop() {
	for _, c := range p.cmds {
		close(c)
	}
}

func (p *Pool) work(w int) {
	for fn := range p.cmds[w] {
		fn(w, p.lo[w], p.hi[w])
		p.wg.Done()
	}
}

// ParallelFor runs fn(w, 0), ..., fn(w, n-1) over a transient worker set. The
// workers knob follows the facade's concurrency convention: 0 runs inline
// sequentially, w > 0 uses w workers, w < 0 uses GOMAXPROCS workers. Results
// must be written to caller-owned, index-disjoint slots, which keeps the
// output deterministic regardless of scheduling.
//
// w is the index of the worker running item i: 0 on the inline path, and in
// [0, workers) otherwise (the knob clamped to n). One worker runs its items
// one after another, so a caller may keep per-worker scratch in a slice
// indexed by w and reuse it across items without locking.
//
// Cancellation is checked before every item, so a cancelled sweep stops
// within one item's work and returns ctx.Err(). When several items fail, the
// error of the lowest-indexed failing item that ran is returned (the
// sequential path's choice; under concurrency a later item may fail first,
// but the sweep keeps the smallest index observed).
func ParallelFor(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		completed atomic.Int64
		mu        sync.Mutex
		firstIdx  = n
		firstErr  error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				select {
				case <-done:
					stop.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					fail(i, err)
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Cancellation only surfaces when it actually skipped work: a sweep
	// whose every item completed returns nil even if the context expired as
	// it finished, matching the sequential path.
	if int(completed.Load()) == n {
		return nil
	}
	return ctx.Err()
}
