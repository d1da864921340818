package repro

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/globalcompute"
	"repro/internal/simulate"
)

// Scheme is one execution strategy for a t-round LOCAL algorithm: the
// direct baseline, one of the paper's message-reduction pipelines, or a
// literature baseline such as push–pull gossip. Implementations are
// registered by name (RegisterScheme) and looked up by drivers
// (Lookup/Schemes), so new strategies plug in without new top-level API.
type Scheme interface {
	// Name is the registry key ("direct", "scheme1", ...).
	Name() string
	// Description is a one-line summary for listings and -help output.
	Description() string
	// Validate rejects option combinations the scheme cannot honor, before
	// any simulation work starts.
	Validate(opts *Options) error
	// Run simulates spec on g under opts. Outputs are bit-identical to a
	// direct run at the same seed for every registered scheme; cancelling
	// ctx aborts the pipeline within one node step's work.
	Run(ctx context.Context, g *Graph, spec AlgorithmSpec, opts *Options) (*SimulationResult, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Scheme)
)

// RegisterScheme adds a scheme to the registry. It errors on an empty name
// or a duplicate registration.
func RegisterScheme(s Scheme) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("repro: RegisterScheme with empty scheme name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name()]; dup {
		return fmt.Errorf("repro: scheme %q already registered", s.Name())
	}
	registry[s.Name()] = s
	return nil
}

// mustRegister is RegisterScheme for the built-in init path.
func mustRegister(s Scheme) {
	if err := RegisterScheme(s); err != nil {
		panic(err)
	}
}

// Lookup returns the scheme registered under name.
func Lookup(name string) (Scheme, error) {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown scheme %q (registered: %v)", name, SchemeNames())
	}
	return s, nil
}

// Schemes returns every registered scheme, sorted by name.
func Schemes() []Scheme {
	registryMu.RLock()
	out := make([]Scheme, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// SchemeNames returns the sorted names of every registered scheme.
func SchemeNames() []string {
	ss := Schemes()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name()
	}
	return names
}

// schemeFunc is the built-in Scheme implementation: a named run function
// plus a validator.
type schemeFunc struct {
	name     string
	desc     string
	validate func(o *Options) error
	run      func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error)
}

func (s *schemeFunc) Name() string        { return s.name }
func (s *schemeFunc) Description() string { return s.desc }

func (s *schemeFunc) Validate(o *Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if s.validate != nil {
		return s.validate(o)
	}
	return nil
}

func (s *schemeFunc) Run(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
	return s.run(ctx, g, spec, o)
}

// ErrRoundBudget is the typed failure returned when a run exceeds the
// engine's WithMaxRounds budget: the scheme's billed rounds overran it, a
// gossip stage failed to cover its t-balls within its schedule, or the
// runaway guard cancelled the pipeline. Test for it with errors.Is.
var ErrRoundBudget = simulate.ErrRoundBudget

func init() {
	mustRegister(&schemeFunc{
		name: "direct",
		desc: "direct execution on G: ground truth, Θ(t·m) messages",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			hooks := o.hooks()
			outs, run, err := simulate.Direct(ctx, g, spec, o.Seed, hooks.RoundConfig(o.localConfig(), "direct"))
			if err != nil {
				return nil, err
			}
			cost := PhaseCost{Name: "direct", Rounds: run.Rounds, Messages: run.Messages,
				Dropped: run.Dropped, Duplicated: run.Duplicated}
			hooks.PhaseDone(cost)
			return &SimulationResult{
				Scheme:   "direct",
				Outputs:  outs,
				Rounds:   run.Rounds,
				Messages: run.Messages,
				Phases:   []PhaseCost{cost},
			}, nil
		},
	})
	mustRegister(&schemeFunc{
		name: "scheme1",
		desc: "Theorem 3 (i): Sampler spanner + stretch·t-round collection",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.Scheme1Src(ctx, g, spec, o.samplerParams(), o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "scheme1", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "scheme2",
		desc: "Theorem 3 (ii): Sampler spanner simulates Baswana–Sen, whose spanner collects",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.Scheme2WithSrc(ctx, g, spec, o.samplerParams(),
				simulate.BaswanaSenStage2(o.StageK), o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "scheme2", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "scheme2en",
		desc: "scheme2 with Elkin–Neiman as the simulated stage (k+O(1) rounds vs O(k²))",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.Scheme2WithSrc(ctx, g, spec, o.samplerParams(),
				simulate.ElkinNeimanStage2(o.StageK), o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "scheme2en", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "gossip",
		desc: "push–pull gossip collection baseline (Censor-Hillel et al.; Haeupler), billed through the cover round",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := gossipStage(ctx, g, spec, o, "gossip")
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "gossip", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "gossip-earlystop",
		desc: "gossip under the phase label gossip(earlystop): same run and bill, kept for metrics consumers",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := gossipStage(ctx, g, spec, o, "gossip(earlystop)")
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "gossip-earlystop", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "gossip-converge",
		desc: "early-stopped gossip + distributed termination detection (BFS-tree convergecast), detection billed as its own phase",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := gossipStage(ctx, g, spec, o, "gossip(earlystop)")
			if err != nil {
				return nil, err
			}
			// The central stop check knew coverage was complete; distributed
			// nodes do not. Bill what *knowing you're done* costs: at the
			// stop round every node's local predicate ("my ball is covered")
			// is true, and one wave → convergecast-AND → broadcast-halt pass
			// over G's BFS tree carries the unanimous verdict to everyone.
			done := make([]bool, g.NumNodes())
			for v := range done {
				done[v] = true
			}
			hooks := o.hooks()
			dcfg := o.localConfig()
			dcfg.Seed = o.Seed
			ok, drun, err := globalcompute.DetectTermination(ctx, g, done, g.Diameter(),
				hooks.RoundConfig(dcfg, "converge(halt)"))
			if err != nil {
				return nil, fmt.Errorf("gossip-converge termination detection: %w", err)
			}
			if !ok {
				return nil, fmt.Errorf("gossip-converge termination detection returned a false verdict from all-true predicates")
			}
			detectCost := PhaseCost{Name: "converge(halt)", Rounds: drun.Rounds, Messages: drun.Messages,
				Dropped: drun.Dropped, Duplicated: drun.Duplicated}
			hooks.PhaseDone(detectCost)
			res.Phases = append(res.Phases, detectCost)
			return replayResult(ctx, "gossip-converge", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "scheme1-congest",
		desc: "scheme1 under a CONGEST word cap: WithBandwidth words per edge per round, dilation in PhaseCost",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.Scheme1CongestSrc(ctx, g, spec, o.samplerParams(), o.bandwidth(g.NumNodes()),
				o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "scheme1-congest", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "hybrid",
		desc: "gossip seeds WithHybridFraction of the t-balls, the Sampler spanner collects the residue",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.HybridSrc(ctx, g, spec, o.samplerParams(), o.HybridFraction,
				o.gossipBudget(g.NumNodes()), o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "hybrid", res, spec, o)
		},
	})
	mustRegister(&schemeFunc{
		name: "globalcompute",
		desc: "Section 7: spanner BFS tree convergecasts all knowledge, O(stretch·D) rounds, O(n) tree messages",
		run: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
			res, err := simulate.GlobalCollectSrc(ctx, g, spec, o.samplerParams(), o.Seed, o.localConfig(), o.hooks(), o.stage1)
			if err != nil {
				return nil, err
			}
			return replayResult(ctx, "globalcompute", res, spec, o)
		},
	})
}

// gossipStage is the collection stage all three gossip schemes share:
// push–pull gossip runs until every t-ball is covered, within the
// WithMaxRounds budget, and is billed through that cover round under the
// given phase label. Dropped and Duplicated attribute the damage of the
// rounds it executed. Missing the cover within the budget is an
// ErrRoundBudget.
func gossipStage(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options, phase string) (*simulate.SchemeResult, error) {
	budget := o.gossipBudget(g.NumNodes())
	hooks := o.hooks()
	coll, cover, msgs, err := simulate.GossipCollectEarly(ctx, g, spec.T, budget, o.Seed,
		hooks.RoundConfig(o.localConfig(), phase))
	if err != nil {
		return nil, err
	}
	if cover < 0 {
		return nil, fmt.Errorf("gossip did not cover the %d-balls within %d rounds (raise WithMaxRounds): %w",
			spec.T, budget, ErrRoundBudget)
	}
	cost := PhaseCost{Name: phase, Rounds: cover, Messages: msgs,
		Dropped: coll.Run.Dropped, Duplicated: coll.Run.Duplicated}
	hooks.PhaseDone(cost)
	return &simulate.SchemeResult{Coll: coll, Phases: []PhaseCost{cost}}, nil
}

// replayResult recovers every node's output from a scheme's collection —
// fanning the independent per-node replays out over a worker pool under
// WithConcurrency — and packages the cost ledger.
func replayResult(ctx context.Context, scheme string, res *simulate.SchemeResult, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
	outs, err := res.Coll.ReplayAllN(ctx, spec, o.Concurrency)
	if err != nil {
		return nil, err
	}
	return &SimulationResult{
		Scheme:       scheme,
		Outputs:      outs,
		Rounds:       res.TotalRounds(),
		Messages:     res.TotalMessages(),
		Phases:       res.Phases,
		StretchUsed:  res.StretchUsed,
		SpannerEdges: res.SpannerEdges,
	}, nil
}
