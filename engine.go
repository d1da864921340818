package repro

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/simulate"
)

// ErrDeadline is the typed failure returned when a run exceeds the engine's
// WithDeadline wall-clock budget: the run's context expires, every scheme's
// round loop aborts within one node step's work, and the result is discarded.
// It wraps context.DeadlineExceeded, so errors.Is matches either sentinel.
var ErrDeadline error = fmt.Errorf("repro: wall-clock deadline exceeded: %w", context.DeadlineExceeded)

// DefaultCacheSize is the stage-1 spanner cache's capacity when
// WithCacheSize is not given: enough for a healthy experiment sweep, small
// enough that a long-lived engine crossing many (graph, seed, parameter)
// keys stays bounded.
const DefaultCacheSize = 32

// Engine executes simulations under one fixed, validated configuration. It
// is cheap to construct, its configuration is immutable after construction,
// and it is safe for concurrent use by multiple goroutines (each Run gets
// its own copy of the options — but registered Observer instances are shared
// across Runs, so a stateful observer on a concurrently-used engine must be
// thread-safe; see Observer).
//
//	eng := repro.NewEngine(
//		repro.WithSeed(42),
//		repro.WithConcurrency(-1),
//		repro.WithGamma(2),
//	)
//	res, err := eng.Run(ctx, "scheme2en", g, repro.MIS(repro.MISRounds(n)))
//
// # Spanner cache
//
// The paper's stage-1 Sampler spanner is a one-off construction whose cost
// is meant to be amortized across many stage-2 executions. The engine
// therefore memoizes stage-1 artifacts keyed by (graph identity, seed,
// spanner parameters, model options): the first Run or BuildSpanner at a key
// constructs the spanner, every subsequent call at the same key reuses it
// without executing a single sampler round. Concurrent Runs at the same key
// are coalesced (single flight): one builds, the rest wait and share the
// artifact. A cache hit is observable as a PhaseCost named "sampler(cached)"
// with zero rounds and messages, so result ledgers report only what the run
// actually spent. Reset drops the cache; WithNoCache disables it.
type Engine struct {
	opts Options

	mu       sync.Mutex
	spanners map[spannerKey]*spannerEntry
	lru      *list.List // of spannerKey; front = most recently used
	cap      int
}

// spannerKey identifies one cached stage-1 construction: exactly the inputs
// that determine the Sampler's execution bit for bit. Concurrency is
// excluded (the sequential and concurrent engines produce identical
// executions), as is MaxRounds (the sampler schedules its own rounds).
type spannerKey struct {
	fingerprint  uint64
	nodes, edges int
	seed         uint64
	k, h         int
	c            float64
	kt1          bool
	logNSlack    float64
}

// spannerEntry is one cache slot. The creator builds the artifact and closes
// ready; waiters block on ready (or their own context). A failed or
// cancelled build is removed from the map so it does not poison the key.
// elem is the entry's recency-list slot, guarded by the engine mutex; it is
// nil once the entry has been evicted or removed.
type spannerEntry struct {
	ready chan struct{}
	st1   *simulate.Stage1
	err   error
	elem  *list.Element
}

// NewEngine builds an engine from functional options (see the With*
// functions). Unset options fall back to the paper's canonical defaults.
func NewEngine(opts ...Option) *Engine {
	o := newOptions(opts)
	size := o.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Engine{
		opts:     o,
		spanners: make(map[spannerKey]*spannerEntry),
		lru:      list.New(),
		cap:      size,
	}
}

// Options returns a copy of the engine's resolved options, the adversary
// profile and its slices included.
func (e *Engine) Options() Options {
	o := e.opts
	o.Observers = append([]Observer(nil), e.opts.Observers...)
	if o.Adversary != nil {
		p := o.Adversary.Clone()
		o.Adversary = &p
	}
	return o
}

// Reset drops every cached stage-1 spanner, so the next Run or BuildSpanner
// at any key constructs from scratch. Builds already in flight complete and
// hand their artifact to the runs waiting on them, but are not re-admitted
// to the cache. Reset is safe to call concurrently with Runs.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.spanners = make(map[spannerKey]*spannerEntry)
	e.lru = list.New()
	e.mu.Unlock()
}

// cachedStage1 is the simulate.Stage1Source bound to the engine's cache. On
// a miss it becomes the builder for its key (observers of the building run
// see the sampler rounds as usual); on a hit — or after waiting out a
// concurrent builder — it returns the memoized artifact under the zero-cost
// phase "sampler(cached)".
func (e *Engine) cachedStage1(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks simulate.Hooks) (*simulate.Stage1, PhaseCost, error) {
	key := spannerKey{
		fingerprint: g.Fingerprint(),
		nodes:       g.NumNodes(),
		edges:       g.NumEdges(),
		seed:        seed,
		k:           p.K,
		h:           p.H,
		c:           p.C,
		kt1:         cfg.KT1,
		logNSlack:   cfg.LogNSlack,
	}
	for {
		e.mu.Lock()
		ent, ok := e.spanners[key]
		if !ok {
			ent = &spannerEntry{ready: make(chan struct{})}
			ent.elem = e.lru.PushFront(key)
			e.spanners[key] = ent
			// LRU bound: evict the coldest entries beyond capacity (never the
			// one just admitted). An evicted in-flight build still completes
			// for its waiters; it is simply no longer re-usable afterwards.
			for e.lru.Len() > e.cap {
				back := e.lru.Back()
				if back == ent.elem {
					break
				}
				bk := back.Value.(spannerKey)
				if old := e.spanners[bk]; old != nil {
					old.elem = nil
				}
				delete(e.spanners, bk)
				e.lru.Remove(back)
			}
			e.mu.Unlock()
			st1, cost, err := simulate.BuildStage1(ctx, g, p, seed, cfg, hooks)
			ent.st1, ent.err = st1, err
			if err != nil {
				// Do not poison the key: a failed (or cancelled) build is
				// retried by the next run, not replayed to it.
				e.mu.Lock()
				if e.spanners[key] == ent {
					delete(e.spanners, key)
					if ent.elem != nil {
						e.lru.Remove(ent.elem)
						ent.elem = nil
					}
				}
				e.mu.Unlock()
			}
			close(ent.ready)
			return st1, cost, err
		}
		e.lru.MoveToFront(ent.elem)
		e.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, PhaseCost{}, ctx.Err()
		}
		if ent.err == nil {
			return ent.st1, PhaseCost{Name: "sampler(cached)"}, nil
		}
		// The builder failed and removed the entry; retry (and possibly
		// become the builder) unless this run was itself cancelled.
		if err := ctx.Err(); err != nil {
			return nil, PhaseCost{}, err
		}
	}
}

// stage1Source resolves the stage-1 source for one run: the engine cache
// unless caching is disabled.
func (e *Engine) stage1Source(o *Options) simulate.Stage1Source {
	if o.NoCache {
		return simulate.BuildStage1
	}
	return e.cachedStage1
}

// Run looks up the named scheme, validates the engine's options against it,
// and executes it on g.
func (e *Engine) Run(ctx context.Context, scheme string, g *Graph, spec AlgorithmSpec) (*SimulationResult, error) {
	return e.RunWith(ctx, scheme, g, spec)
}

// RunWith is Run with per-run option overrides: the extra options are
// layered over the engine's configuration for this run only, leaving the
// engine and its other runs untouched. This is the entry point for serving
// layers that multiplex many clients over one engine — the shared stage-1
// spanner cache keeps amortizing across requests while each request brings
// its own seed, budgets (WithMaxRounds, WithDeadline), and observers.
// Overrides are validated exactly like construction-time options; note that
// WithCacheSize only takes effect at engine construction.
func (e *Engine) RunWith(ctx context.Context, scheme string, g *Graph, spec AlgorithmSpec, extra ...Option) (*SimulationResult, error) {
	s, err := Lookup(scheme)
	if err != nil {
		return nil, err
	}
	return e.RunScheme(ctx, s, g, spec, extra...)
}

// RunScheme executes an already-resolved scheme on g, with optional per-run
// option overrides layered over the engine's configuration (see RunWith).
//
// A positive WithMaxRounds budget is enforced here, uniformly for every
// scheme: a result whose billed rounds exceed the budget is discarded and
// the run fails with ErrRoundBudget, and a pipeline whose *executed* rounds
// overshoot a safety multiple of the budget (a runaway protocol) is
// cancelled in flight and reported the same way. Schemes with their own
// schedule semantics (gossip's fixed-length schedule) may execute
// more rounds than they bill; the budget governs what the result charges.
// Because it charges only what the run actually spends, the budget
// interacts with the spanner cache by design: a run that fails the budget
// on a cold cache (its bill includes the sampler construction) may succeed
// when repeated, once the cached stage-1 spanner brings the bill down to
// the collection phases alone — exactly the amortized cost the paper
// argues for. Budget a cold pipeline with WithNoCache or Reset.
//
// A positive WithDeadline is enforced the same way, as a wall-clock budget:
// the run executes under a context that expires after the configured
// duration, and a run cut short by it fails with the typed ErrDeadline.
func (e *Engine) RunScheme(ctx context.Context, s *Scheme, g *Graph, spec AlgorithmSpec, extra ...Option) (*SimulationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return nil, fmt.Errorf("repro: nil scheme")
	}
	if g == nil {
		return nil, fmt.Errorf("repro: nil graph")
	}
	o := e.Options() // private copy: schemes (and overrides) may not mutate engine state
	for _, fn := range extra {
		if fn != nil {
			fn(&o)
		}
	}
	o.stage1 = e.stage1Source(&o)
	if err := s.Validate(&o); err != nil {
		return nil, fmt.Errorf("repro: scheme %s: %w", s.Name(), err)
	}
	var deadlineCtx context.Context
	if o.Deadline > 0 {
		var cancel context.CancelFunc
		deadlineCtx, cancel = context.WithTimeout(ctx, o.Deadline)
		defer cancel()
		ctx = deadlineCtx
	}
	var guard *roundGuard
	if o.MaxRounds > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		guard = &roundGuard{limit: 2*o.MaxRounds + 64, cancel: cancel}
		o.Observers = append(o.Observers, guard)
		ctx = runCtx
	}
	res, err := s.Run(ctx, g, spec, &o)
	if guard != nil && guard.hit {
		return nil, fmt.Errorf("repro: scheme %s: pipeline cancelled after %d executed rounds, far over the %d-round budget: %w",
			s.Name(), guard.seen, o.MaxRounds, ErrRoundBudget)
	}
	if err != nil {
		// Attribute a deadline expiry to the engine budget only when the
		// budget's own context actually expired — a parent context that
		// carried its own earlier deadline keeps its plain error.
		if deadlineCtx != nil && errors.Is(err, context.DeadlineExceeded) &&
			errors.Is(deadlineCtx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("repro: scheme %s: run exceeded its %v wall-clock budget: %w",
				s.Name(), o.Deadline, ErrDeadline)
		}
		return nil, err
	}
	if o.MaxRounds > 0 && res.Rounds > o.MaxRounds {
		return nil, fmt.Errorf("repro: scheme %s billed %d rounds, over the %d-round budget: %w",
			s.Name(), res.Rounds, o.MaxRounds, ErrRoundBudget)
	}
	return res, nil
}

// roundGuard is the engine's runaway backstop: an observer that counts every
// executed LOCAL round of a run and cancels the run's context once the count
// passes its limit. It runs on the run's coordinating goroutine, like every
// observer, so its fields need no further synchronization.
type roundGuard struct {
	limit  int
	cancel context.CancelFunc
	seen   int
	hit    bool
}

func (r *roundGuard) RoundCompleted(string, int, int64) {
	r.seen++
	if r.seen > r.limit && !r.hit {
		r.hit = true
		r.cancel()
	}
}

func (r *roundGuard) PhaseCompleted(PhaseCost) {}

// BuildSpanner runs the distributed algorithm Sampler (the paper's
// Section 5) on the connected simple graph g under the engine's options and
// returns the spanner with its cost ledger. Parameters come from
// WithSpannerParams, defaulting to the paper's K=2, H=4. Observers see a
// fresh construction as phase "sampler" and a cache hit as the zero-cost
// phase "sampler(cached)"; in both cases the returned Spanner carries the
// construction's original round and message costs. Cancelling ctx aborts a
// fresh construction mid-round.
func (e *Engine) BuildSpanner(ctx context.Context, g *Graph) (*Spanner, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("repro: BuildSpanner: nil graph")
	}
	o := e.Options()
	if err := o.validate(); err != nil {
		return nil, fmt.Errorf("repro: BuildSpanner: %w", err)
	}
	hooks := o.hooks()
	st1, cost, err := e.stage1Source(&o)(ctx, g, o.buildSpannerParams(), o.Seed, o.localConfig(), hooks)
	if err != nil {
		return nil, err
	}
	hooks.PhaseDone(cost)
	// Clone the edge set: the cached artifact is shared and must stay immutable.
	return &Spanner{
		Edges:        slices.Clone(st1.S),
		StretchBound: st1.Stretch,
		Rounds:       st1.Rounds,
		Messages:     st1.Messages,
	}, nil
}
