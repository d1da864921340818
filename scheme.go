package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/simulate"
	"repro/internal/spanner"
)

// Scheme is one execution strategy for a t-round LOCAL algorithm: the
// direct baseline, one of the paper's message-reduction pipelines, or a
// literature baseline such as push–pull gossip. The schemes form a fixed
// table keyed by name; drivers look them up (Lookup, Schemes) instead of
// naming pipelines, so every scheme is runnable and benchmarked without new
// call sites.
type Scheme struct {
	name string
	desc string
	// pipeline runs a collection scheme's stages and bills them; Run then
	// replays every node's output from the collection.
	pipeline func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error)
	// run replaces pipeline and replay for direct, the one scheme that
	// computes its outputs without a collection.
	run func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error)
}

// Name is the scheme's table key ("direct", "scheme1", ...).
func (s *Scheme) Name() string { return s.name }

// Description is a one-line summary for listings and -help output.
func (s *Scheme) Description() string { return s.desc }

// Validate rejects option combinations the scheme cannot honor, before any
// simulation work starts. Every scheme but direct rejects KT1 with
// ErrKT1Unsupported.
func (s *Scheme) Validate(o *Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.KT1 && s.run == nil {
		return ErrKT1Unsupported
	}
	return nil
}

// ErrKT1Unsupported is the typed failure of WithKT1(true) on any scheme but
// direct. A collection of port lists carries a ball's edge IDs but not its
// nodes' neighbor IDs, so every replay runs without KT1, and an algorithm
// that reads Port.Peer would silently diverge from direct execution. Test
// for it with errors.Is.
var ErrKT1Unsupported = errors.New("KT1 is supported by the direct scheme only: a collection does not carry neighbor IDs")

// Run simulates spec on g under o. Outputs are bit-identical to a direct run
// at the same seed for every scheme; cancelling ctx aborts the pipeline
// within one node step's work. The collection schemes fan the independent
// per-node replays out over a worker pool under WithConcurrency.
func (s *Scheme) Run(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
	if s.run != nil {
		return s.run(ctx, g, spec, o)
	}
	res, err := s.pipeline(ctx, g, spec, o)
	if err != nil {
		return nil, err
	}
	outs, err := res.Coll.ReplayAllN(ctx, spec, o.Concurrency)
	if err != nil {
		return nil, err
	}
	return result(s.name, outs, res), nil
}

// ErrRoundBudget is the typed failure returned when a run exceeds the
// engine's WithMaxRounds budget: the scheme's billed rounds overran it, a
// gossip stage failed to cover its t-balls within its schedule, a
// convergecast starved within its schedule, or the runaway guard cancelled
// the pipeline. Test for it with errors.Is.
var ErrRoundBudget = simulate.ErrRoundBudget

// schemes is the scheme table, sorted by name.
var schemes = []Scheme{
	{
		name: "direct",
		desc: "direct execution on G: ground truth, Θ(t·m) messages",
		run:  runDirect,
	},
	{
		name: "globalcompute",
		desc: "Section 7: spanner BFS tree convergecasts all knowledge, O(stretch·D) rounds, O(n) tree messages",
		pipeline: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
			return simulate.GlobalCollectSrc(ctx, g, spec, o.samplerParams(), o.localConfig(), o.hooks(), o.stage1)
		},
	},
	{
		name:     "gossip",
		desc:     "push–pull gossip collection baseline (Censor-Hillel et al.; Haeupler): an oracle-stopped lower bound, billed through the cover round a central oracle detects",
		pipeline: gossip("gossip"),
	},
	{
		name: "gossip-converge",
		desc: "early-stopped gossip + distributed termination detection (BFS-tree convergecast), detection billed as its own phase",
		pipeline: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
			return simulate.GossipConverge(ctx, g, spec, o.gossipBudget(g.NumNodes()), o.localConfig(), o.hooks())
		},
	},
	{
		name:     "gossip-earlystop",
		desc:     "gossip under the phase label gossip(earlystop): same run and bill, kept for metrics consumers",
		pipeline: gossip("gossip(earlystop)"),
	},
	{
		name: "hybrid",
		desc: "gossip seeds WithHybridFraction of the t-balls, the Sampler spanner collects the residue",
		pipeline: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
			return simulate.HybridSrc(ctx, g, spec, o.samplerParams(), o.HybridFraction,
				o.gossipBudget(g.NumNodes()), o.localConfig(), o.hooks(), o.stage1)
		},
	},
	{
		name: "scheme1",
		desc: "Theorem 3 (i): Sampler spanner + stretch·t-round collection",
		pipeline: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
			return simulate.Scheme1Src(ctx, g, spec, o.samplerParams(), o.localConfig(), o.hooks(), o.stage1)
		},
	},
	{
		name: "scheme1-congest",
		desc: "scheme1 under a CONGEST word cap: WithBandwidth words per edge per round, dilation in PhaseCost",
		pipeline: func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
			return simulate.Scheme1CongestSrc(ctx, g, spec, o.samplerParams(), o.bandwidth(g.NumNodes()),
				o.localConfig(), o.hooks(), o.stage1)
		},
	},
	{
		name:     "scheme2",
		desc:     "Theorem 3 (ii): Sampler spanner simulates Baswana–Sen, whose spanner collects",
		pipeline: scheme2(spanner.BaswanaSenConstruction),
	},
	{
		name:     "scheme2en",
		desc:     "scheme2 with Elkin–Neiman as the simulated stage (k+O(1) rounds vs O(k²))",
		pipeline: scheme2(spanner.ElkinNeimanConstruction),
	},
}

// gossip is the pipeline of the gossip schemes that bill only the gossip
// stage, under the given phase label.
func gossip(phase string) func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
	return func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
		return simulate.Gossip(ctx, g, spec, o.gossipBudget(g.NumNodes()), phase, o.localConfig(), o.hooks())
	}
}

// scheme2 is the two-stage pipeline whose stage 2 simulates the
// construction that build makes for WithStageK's k.
func scheme2(build func(k int) (spanner.Construction, error)) func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
	return func(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*simulate.SchemeResult, error) {
		c, err := build(o.StageK)
		if err != nil {
			return nil, err
		}
		return simulate.Scheme2WithSrc(ctx, g, spec, o.samplerParams(), c, o.localConfig(), o.hooks(), o.stage1)
	}
}

// runDirect is the direct scheme: the algorithm runs on g itself.
func runDirect(ctx context.Context, g *Graph, spec AlgorithmSpec, o *Options) (*SimulationResult, error) {
	outs, res, err := simulate.DirectScheme(ctx, g, spec, o.localConfig(), o.hooks())
	if err != nil {
		return nil, err
	}
	return result("direct", outs, res), nil
}

// result packages a scheme's outputs with its cost ledger.
func result(scheme string, outs []any, res *simulate.SchemeResult) *SimulationResult {
	return &SimulationResult{
		Scheme:       scheme,
		Outputs:      outs,
		Rounds:       res.TotalRounds(),
		Messages:     res.TotalMessages(),
		Phases:       res.Phases,
		StretchUsed:  res.StretchUsed,
		SpannerEdges: len(res.FinalSpanner),
	}
}

// Lookup returns the scheme with the given name.
func Lookup(name string) (*Scheme, error) {
	for i := range schemes {
		if schemes[i].name == name {
			return &schemes[i], nil
		}
	}
	return nil, fmt.Errorf("repro: unknown scheme %q (known: %v)", name, SchemeNames())
}

// Schemes returns every scheme, sorted by name.
func Schemes() []*Scheme {
	out := make([]*Scheme, len(schemes))
	for i := range schemes {
		out[i] = &schemes[i]
	}
	return out
}

// SchemeNames returns the sorted names of every scheme.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i := range schemes {
		names[i] = schemes[i].name
	}
	return names
}
