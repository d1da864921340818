package repro

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/local"
	"repro/internal/simulate"
)

// Options is the resolved configuration of an Engine. Construct it through
// NewEngine and the With* functional options; the zero value plus defaults
// (applied by NewEngine) reproduces the paper's canonical setup: sequential
// engine, seed 0, γ = 1 with the coupling h = 2^{γ+1}−1, Baswana–Sen /
// Elkin–Neiman stage parameter k = 2.
type Options struct {
	// Seed drives all randomness (graph algorithms and protocol coin flips).
	Seed uint64
	// KT1 exposes neighbor IDs on ports; the default (false) is the paper's
	// unique-edge-ID model, strictly between KT0 and KT1. Only the direct
	// scheme supports it; every other scheme fails with ErrKT1Unsupported.
	KT1 bool
	// Concurrency selects the execution engine: 0 runs the sequential
	// engine, n > 0 the concurrent engine with n workers, and n < 0 the
	// concurrent engine with GOMAXPROCS workers. Both engines produce
	// bit-identical executions and outputs; this is purely a wall-clock
	// knob. Note that under n != 0 the scheme pipelines also replay
	// collected balls on concurrent workers, so an AlgorithmSpec's New and
	// Output callbacks may be invoked from multiple goroutines and must be
	// safe for concurrent use (the built-in algorithm constructors are).
	Concurrency int
	// MaxRounds bounds protocols that manage their own halting. The
	// pipeline stages with fixed schedules (sampler, collections, direct
	// runs) override it internally; the gossip schemes use it as their round
	// budget (0 means 100·n, matching the historical driver default).
	MaxRounds int
	// Deadline is the wall-clock twin of MaxRounds: a positive duration
	// bounds how long one run may execute before it is cancelled and fails
	// with the typed ErrDeadline. Zero (the default, unless WithDeadline was
	// given) means no wall-clock bound.
	Deadline time.Duration
	// LogNSlack multiplies the true log2(n) handed to nodes, modeling the
	// O(1)-approximate upper bound on log n. Zero means exact.
	LogNSlack float64
	// Gamma is the Sampler level parameter γ for the message-reduction
	// schemes, with the paper's coupling h = 2^{γ+1}−1. Default 1.
	Gamma int
	// StageK is the stretch parameter k of the simulated stage-2
	// construction (Baswana–Sen or Elkin–Neiman, stretch 2k−1). Default 2.
	StageK int
	// Bandwidth caps, for the CONGEST-budgeted scheme, the words one
	// directed edge may carry per round. Zero (the default, unless
	// WithBandwidth was given) resolves at run time to ⌈log2 n⌉ — the
	// CONGEST model's canonical O(log n)-bit message in words.
	Bandwidth int
	// HybridFraction is the fraction of nodes the hybrid scheme's gossip
	// stage must cover with complete t-balls before the spanner collects the
	// residue. Must lie in (0,1]; default 0.5.
	HybridFraction float64
	// CacheSize bounds the engine's stage-1 spanner cache (LRU eviction).
	// Zero means DefaultCacheSize.
	CacheSize int
	// RoundLedger keeps the internal per-round message ledgers
	// (local.Result.PerRound) the protocol stages accumulate. Default
	// true; WithRoundLedger(false) drops them so a run's memory stays
	// O(1) in executed rounds (see WithRoundLedger).
	RoundLedger bool
	// SpannerK, SpannerH, SpannerC override the Sampler parameters
	// wholesale (hierarchy depth, trial parameter, whp-threshold scale).
	// When SpannerK is zero the schemes derive parameters from Gamma and
	// Engine.BuildSpanner uses the paper defaults K=2, H=4.
	SpannerK int
	SpannerH int
	SpannerC float64
	// Observers receive round- and phase-completion events while a
	// simulation runs.
	Observers []Observer
	// NoCache disables the engine's stage-1 spanner cache: every Run and
	// BuildSpanner then constructs the Sampler spanner from scratch.
	NoCache bool
	// Adversary, when non-nil, subjects every executed protocol stage to the
	// given perturbation profile: seeded message drops and duplications,
	// crash-stop failures, bounded per-edge delivery delays, and mid-run
	// topology events (see WithAdversary). Nil — the default — is the
	// flawless network the paper assumes, byte-identical to historical runs.
	Adversary *AdversaryProfile

	// stage1 supplies stage-1 spanners to the scheme pipelines. The Engine
	// points it at its memoized cache on each Run's private Options copy;
	// nil means a fresh construction per run.
	stage1 simulate.Stage1Source
	// bandwidthSet records that WithBandwidth was given, so validation can
	// reject explicit sub-word budgets while the unset zero still means
	// "auto".
	bandwidthSet bool
	// deadlineSet records that WithDeadline was given, so validation can
	// reject nonsense non-positive budgets while the unset zero still means
	// "no deadline".
	deadlineSet bool
}

// Option mutates Options; pass them to NewEngine.
type Option func(*Options)

// WithSeed sets the root random seed.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithKT1 enables (or disables) the KT1 model variant in which nodes know
// their neighbors' IDs. Only the direct scheme supports it: the other
// schemes replay collected balls, which cannot carry neighbor IDs, so their
// Validate (and every Run) fails with ErrKT1Unsupported.
func WithKT1(on bool) Option { return func(o *Options) { o.KT1 = on } }

// WithConcurrency selects the execution engine: 0 sequential, n > 0
// concurrent with n workers, n < 0 concurrent with GOMAXPROCS workers.
func WithConcurrency(n int) Option { return func(o *Options) { o.Concurrency = n } }

// WithMaxRounds sets the engine's round budget: a positive budget makes any
// scheme whose billed LOCAL rounds exceed it fail with ErrRoundBudget (a
// runaway pipeline is additionally cancelled in flight once its executed
// rounds pass a safety multiple of the budget). The gossip and hybrid
// schemes also use it as their gossip stage's round budget (0 means 100·n,
// matching the historical driver default), and self-halting protocols
// inherit it as their MaxRounds bound.
func WithMaxRounds(r int) Option { return func(o *Options) { o.MaxRounds = r } }

// WithDeadline sets the engine's wall-clock budget per run — the duration
// twin of WithMaxRounds. A run still executing when the budget expires is
// cancelled through the same context plumbing every scheme's round loop
// already honors (both engines abort within one node step's work) and fails
// with the typed ErrDeadline, which also matches context.DeadlineExceeded
// under errors.Is. The budget must be positive; it covers one RunScheme
// call end to end — sampler construction, simulated stages, collection,
// and replays — so a run that misses the deadline on a cold spanner cache
// may meet it once the cached stage-1 artifact is amortized away, exactly
// as with the round budget.
func WithDeadline(d time.Duration) Option {
	return func(o *Options) { o.Deadline, o.deadlineSet = d, true }
}

// WithBandwidth caps the words one directed edge may carry per round in the
// CONGEST-budgeted scheme ("scheme1-congest"). The cap must be at least one
// word; leaving the option unset resolves to ⌈log2 n⌉ words at run time.
func WithBandwidth(words int) Option {
	return func(o *Options) { o.Bandwidth, o.bandwidthSet = words, true }
}

// WithHybridFraction sets the fraction of nodes (in (0,1]) whose t-balls the
// hybrid scheme's gossip stage must complete before the Sampler spanner
// collects the residue. Default 0.5.
func WithHybridFraction(f float64) Option { return func(o *Options) { o.HybridFraction = f } }

// WithCacheSize bounds the engine's stage-1 spanner cache to the given
// number of entries, evicting least-recently-used artifacts beyond it.
// Zero restores DefaultCacheSize; sizing happens at engine construction.
func WithCacheSize(entries int) Option { return func(o *Options) { o.CacheSize = entries } }

// WithLogNSlack sets the slack factor on the log n upper bound handed to
// nodes (must be >= 1; 0 means exact).
func WithLogNSlack(f float64) Option { return func(o *Options) { o.LogNSlack = f } }

// WithGamma sets the Sampler level parameter γ for the schemes (h follows
// the paper's coupling 2^{γ+1}−1).
func WithGamma(gamma int) Option { return func(o *Options) { o.Gamma = gamma } }

// WithStageK sets the stage-2 construction's stretch parameter k
// (stretch 2k−1) for scheme2 and scheme2en.
func WithStageK(k int) Option { return func(o *Options) { o.StageK = k } }

// WithSpannerParams overrides the Sampler parameters wholesale: hierarchy
// depth k, trial parameter h, and whp-threshold scale c (c = 0 keeps the
// default). It takes precedence over WithGamma's coupling.
func WithSpannerParams(k, h int, c float64) Option {
	return func(o *Options) {
		o.SpannerK, o.SpannerH, o.SpannerC = k, h, c
	}
}

// WithRoundLedger enables (the default) or disables the per-round message
// ledgers the protocol stages accumulate. With the ledger disabled a run's
// memory footprint is O(1) in the number of executed rounds — the knob long
// schedules need (slow gossip covers, hybrid seeding, CONGEST dilation):
// outputs, phase costs, and the streamed RoundCompleted events are all
// unchanged, so pairing the option with a MetricsSink retains bounded
// per-round statistics; only the unbounded PerRound slices are dropped. No
// bill reads the ledger, so results are bit-identical with it on or off.
func WithRoundLedger(on bool) Option { return func(o *Options) { o.RoundLedger = on } }

// WithNoCache disables the engine's stage-1 spanner cache, forcing every
// Run and BuildSpanner to construct the Sampler spanner from scratch (the
// pre-cache behaviour, useful for benchmarking the full pipeline cost).
func WithNoCache() Option { return func(o *Options) { o.NoCache = true } }

// WithObserver registers an observer for round- and phase-completion
// events. May be given multiple times; observers are notified in
// registration order.
func WithObserver(obs Observer) Option {
	return func(o *Options) { o.Observers = append(o.Observers, obs) }
}

// WithAdversary subjects every executed protocol stage to the given
// perturbation profile: seeded per-message drops and duplications,
// crash-stop node failures at scheduled rounds, bounded per-edge delivery
// delays, and mid-run edge insertions/deletions. All perturbations are pure
// hashes of (profile seed, engine seed, message identity), so adversarial
// runs stay bit-identical across the sequential and concurrent engines at
// every worker count and are golden-pinnable. Adversary-induced losses and
// duplicates are billed honestly — every send still counts in Messages, and
// PhaseCost.Dropped / PhaseCost.Duplicated attribute the damage.
//
// The stage-1 spanner construction is exempt: schemes treat the sampler's
// spanner as pre-provisioned infrastructure (it is memoized across runs and
// its artifact must not depend on the adversary), so only the simulated,
// collection, gossip, and replayed-execution stages feel the profile. Named
// profiles ship in the internal registry; resolve them through the serve
// API or cmd/simulate's -adversary flag, or construct an AdversaryProfile
// literal here. The option keeps its own copy of p, slices included.
func WithAdversary(p AdversaryProfile) Option {
	p = p.Clone()
	return func(o *Options) { o.Adversary = &p }
}

// newOptions applies defaults and then the given options.
func newOptions(opts []Option) Options {
	o := Options{Gamma: 1, StageK: 2, HybridFraction: 0.5, RoundLedger: true}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// bandwidth resolves the CONGEST word budget for a run on an n-node graph:
// the explicit WithBandwidth value, or ⌈log2 n⌉ words.
func (o *Options) bandwidth(n int) int {
	if o.Bandwidth > 0 {
		return o.Bandwidth
	}
	bw := int(math.Ceil(math.Log2(math.Max(2, float64(n)))))
	if bw < 1 {
		bw = 1
	}
	return bw
}

// gossipBudget resolves the gossip round budget for the gossip and hybrid
// schemes: the configured MaxRounds, or the historical 100·n default.
func (o *Options) gossipBudget(n int) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 100 * n
}

// localConfig translates the options into a LOCAL-simulator config.
func (o *Options) localConfig() local.Config {
	cfg := local.Config{
		Seed:      o.Seed,
		KT1:       o.KT1,
		MaxRounds: o.MaxRounds,
		LogNSlack: o.LogNSlack,
		NoLedger:  !o.RoundLedger,
		Workers:   o.Concurrency,
	}
	if o.Adversary != nil && !o.Adversary.IsZero() {
		cfg.Adversary = adversary.Compile(*o.Adversary, o.Seed)
	}
	return cfg
}

// spannerParams resolves Sampler parameters: the WithSpannerParams override
// (depth SpannerK, trial parameter SpannerH defaulting to 4) when SpannerK
// is positive, fallback otherwise. A nonzero SpannerC replaces the
// threshold scale either way.
func (o *Options) spannerParams(fallback func() core.Params) core.Params {
	var p core.Params
	if o.SpannerK > 0 {
		p = core.Default(o.SpannerK, cmp.Or(o.SpannerH, 4))
	} else {
		p = fallback()
	}
	if o.SpannerC != 0 {
		p.C = o.SpannerC
	}
	return p
}

// samplerParams resolves the Sampler parameters the schemes use for their
// stage-1 spanner; without an override they follow the paper's γ-coupling.
func (o *Options) samplerParams() core.Params {
	return o.spannerParams(func() core.Params { return simulate.Scheme1Params(o.Gamma) })
}

// buildSpannerParams resolves the parameters Engine.BuildSpanner uses;
// without an override they are the paper defaults K=2, H=4 (an explicit
// SpannerH still applies). A negative SpannerK is passed through, so the
// build rejects it.
func (o *Options) buildSpannerParams() core.Params {
	return o.spannerParams(func() core.Params {
		return core.Default(cmp.Or(o.SpannerK, 2), cmp.Or(o.SpannerH, 4))
	})
}

// hooks fans pipeline events out to every registered observer.
func (o *Options) hooks() simulate.Hooks {
	if len(o.Observers) == 0 {
		return simulate.Hooks{}
	}
	obs := o.Observers
	return simulate.Hooks{
		Round: func(phase string, round int, messages int64) {
			for _, ob := range obs {
				ob.RoundCompleted(phase, round, messages)
			}
		},
		Phase: func(cost PhaseCost) {
			for _, ob := range obs {
				ob.PhaseCompleted(cost)
			}
		},
	}
}

// validate checks the option values every scheme depends on. Nonsense
// values are rejected engine-wide — even by schemes that ignore the knob —
// so a misconfigured engine fails fast on its first Run rather than only on
// the one scheme that happens to read the option.
func (o *Options) validate() error {
	if o.LogNSlack != 0 && o.LogNSlack < 1 {
		return fmt.Errorf("LogNSlack %v < 1 is not an upper bound", o.LogNSlack)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("negative MaxRounds %d", o.MaxRounds)
	}
	if o.deadlineSet && o.Deadline <= 0 {
		return fmt.Errorf("non-positive Deadline %v (use WithDeadline)", o.Deadline)
	}
	if o.SpannerK == 0 && o.Gamma < 1 {
		return fmt.Errorf("gamma %d < 1 (use WithGamma or WithSpannerParams)", o.Gamma)
	}
	if o.StageK < 1 {
		return fmt.Errorf("stage-2 parameter k = %d < 1 (use WithStageK)", o.StageK)
	}
	if o.bandwidthSet && o.Bandwidth < 1 {
		return fmt.Errorf("bandwidth %d < 1 word per edge per round (use WithBandwidth)", o.Bandwidth)
	}
	if o.HybridFraction <= 0 || o.HybridFraction > 1 {
		return fmt.Errorf("hybrid fraction %v outside (0,1] (use WithHybridFraction)", o.HybridFraction)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("negative CacheSize %d (use WithCacheSize)", o.CacheSize)
	}
	if o.Adversary != nil {
		if err := o.Adversary.Validate(); err != nil {
			return fmt.Errorf("%w (use WithAdversary)", err)
		}
	}
	return nil
}
