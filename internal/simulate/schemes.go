package simulate

import (
	"context"
	"errors"
	"fmt"
	"maps"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/globalcompute"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/spanner"
)

// ErrRoundBudget is the typed failure for runs that exceed their round
// budget: a scheme whose billed rounds overrun the configured MaxRounds, a
// gossip stage that fails to cover its t-balls within its budget, a
// convergecast that starves within its schedule, or a pipeline the engine's
// runaway guard had to cancel. Callers test for it with errors.Is.
var ErrRoundBudget = errors.New("simulate: round budget exceeded")

// PhaseCost is one pipeline stage's price. Dilation is nonzero only for
// bandwidth-budgeted stages: the factor by which the CONGEST-style word cap
// stretched the stage's round count relative to the unbudgeted LOCAL
// schedule. Dropped and Duplicated are the stage's adversary-induced losses
// and duplications (zero without an adversary); both kinds of perturbed
// message are already billed inside Messages — the honest-billing contract —
// so these fields attribute, not extend, the bill.
type PhaseCost struct {
	Name       string
	Rounds     int
	Messages   int64
	Dilation   float64
	Dropped    int64
	Duplicated int64
}

// Hooks observes a scheme pipeline as it runs: Round fires after every
// simulator round (labeled with the phase it belongs to), Phase fires when a
// pipeline stage completes. Either may be nil. The zero Hooks observes
// nothing.
type Hooks struct {
	Round func(phase string, round int, messages int64)
	Phase func(cost PhaseCost)
}

// RoundConfig returns cfg with its OnRound callback bound to this phase.
func (h Hooks) RoundConfig(cfg local.Config, phase string) local.Config {
	if h.Round != nil {
		round := h.Round
		cfg.OnRound = func(r int, m int64) { round(phase, r, m) }
	}
	return cfg
}

// PhaseDone reports a completed stage.
func (h Hooks) PhaseDone(cost PhaseCost) {
	if h.Phase != nil {
		h.Phase(cost)
	}
}

// SchemeResult is the outcome of a message-reduction scheme: the collection
// from which any node's output can be replayed, plus full cost accounting.
type SchemeResult struct {
	Coll   *Collection
	Phases []PhaseCost
	// StretchUsed is the stretch bound of the spanner that carried the
	// final collection.
	StretchUsed int
	// FinalSpanner is the edge set of the spanner that carried the final
	// collection (Sampler's for Scheme1Src; the simulated off-the-shelf
	// construction's for Scheme2WithSrc; nil when no spanner carried it).
	FinalSpanner map[graph.EdgeID]bool
}

// TotalMessages sums message costs across phases.
func (r *SchemeResult) TotalMessages() int64 {
	var t int64
	for _, p := range r.Phases {
		t += p.Messages
	}
	return t
}

// TotalRounds sums round costs across phases.
func (r *SchemeResult) TotalRounds() int {
	t := 0
	for _, p := range r.Phases {
		t += p.Rounds
	}
	return t
}

// bill charges one completed stage, reporting it through hooks and appending
// it to Phases. The cost is the LOCAL run the stage executed, adjusted for
// stages whose bill differs from their run (a gossip cover round, a
// CONGEST dilation).
func (r *SchemeResult) bill(hooks Hooks, name string, run local.Result, adjust ...func(*PhaseCost)) {
	cost := PhaseCost{Name: name, Rounds: run.Rounds, Messages: run.Messages,
		Dropped: run.Dropped, Duplicated: run.Duplicated}
	for _, fn := range adjust {
		fn(&cost)
	}
	hooks.PhaseDone(cost)
	r.Phases = append(r.Phases, cost)
}

// billedThrough bills a gossip stage's rounds as the cover round its run
// stopped at. The run executed rounds 0..round, so its messages, Dropped
// and Duplicated are exactly those of the billed rounds.
func billedThrough(round int) func(*PhaseCost) {
	return func(c *PhaseCost) { c.Rounds = round }
}

// starved types a convergecast that did not converge within its schedule
// (an adversarial network can do this) as a round-budget failure.
func starved(err error) error {
	if errors.Is(err, globalcompute.ErrNotConverged) {
		return fmt.Errorf("%w: %w", err, ErrRoundBudget)
	}
	return err
}

// Stage1 is a built stage-1 Sampler spanner together with its materialized
// host subgraph — the reusable artifact of the paper's amortization story:
// the one-off construction whose cost is shared by every collection that
// floods over it. A Stage1 is immutable once built and safe to share across
// concurrent pipeline runs (collections and replays only read it).
type Stage1 struct {
	// S is the spanner edge set.
	S map[graph.EdgeID]bool
	// Host is the materialized subgraph H = (V, S) that collections flood.
	Host *graph.Graph
	// Stretch is the certified stretch bound 2·3^K − 1.
	Stretch int
	// Rounds and Messages are the construction's costs.
	Rounds   int
	Messages int64
}

// Stage1Source supplies the stage-1 spanner for a scheme pipeline, together
// with the phase cost the pipeline should account for it. BuildStage1 is the
// default source (a fresh construction, phase "sampler"); an engine-level
// cache substitutes a source that returns a memoized Stage1 under the
// zero-cost phase "sampler(cached)".
type Stage1Source func(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks Hooks) (*Stage1, PhaseCost, error)

// BuildStage1 runs the distributed Sampler on g and materializes the host
// subgraph. Round events stream through hooks under phase "sampler"; the
// caller is responsible for firing PhaseDone with the returned cost (so a
// caching layer can substitute its own phase label on hits).
func BuildStage1(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks Hooks) (*Stage1, PhaseCost, error) {
	// Stage-1 construction is exempt from the adversary: the spanner is the
	// schemes' pre-provisioned reliable infrastructure (and the engine cache
	// keys spanners on (graph, seed, params) — profile-independent), so the
	// perturbations apply to the simulation traffic the spanner carries, not
	// to building the spanner itself.
	cfg.Adversary = nil
	sp, err := core.BuildDistributed(ctx, g, p, seed, hooks.RoundConfig(cfg, "sampler"))
	if err != nil {
		return nil, PhaseCost{}, err
	}
	host, err := g.SubgraphByEdges(sp.S)
	if err != nil {
		return nil, PhaseCost{}, err
	}
	st1 := &Stage1{
		S:        sp.S,
		Host:     host,
		Stretch:  sp.StretchBound(),
		Rounds:   sp.Run.Rounds,
		Messages: sp.Run.Messages,
	}
	return st1, PhaseCost{Name: "sampler", Rounds: sp.Run.Rounds, Messages: sp.Run.Messages}, nil
}

// stage1 is the prologue every spanner pipeline shares: it obtains the
// stage-1 spanner at cfg.Seed from src (nil means a fresh BuildStage1), bills
// it as the ledger's first phase, and records it as the carrier of the final
// collection until a later stage replaces it.
func stage1(ctx context.Context, scheme string, g *graph.Graph, p core.Params, cfg local.Config, hooks Hooks, src Stage1Source) (*Stage1, *SchemeResult, error) {
	if src == nil {
		src = BuildStage1
	}
	st1, cost, err := src(ctx, g, p, cfg.Seed, cfg, hooks)
	if err != nil {
		return nil, nil, fmt.Errorf("%s stage-1 spanner: %w", scheme, err)
	}
	hooks.PhaseDone(cost)
	return st1, &SchemeResult{Phases: []PhaseCost{cost}, StretchUsed: st1.Stretch, FinalSpanner: st1.S}, nil
}

// DirectScheme is the direct baseline as a billed pipeline: Direct at
// cfg.Seed, charged as the single phase "direct". It returns the outputs
// themselves, so its ledger carries no collection.
func DirectScheme(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config, hooks Hooks) ([]any, *SchemeResult, error) {
	outs, run, err := Direct(ctx, g, spec, cfg.Seed, hooks.RoundConfig(cfg, "direct"))
	if err != nil {
		return nil, nil, err
	}
	res := &SchemeResult{}
	res.bill(hooks, "direct", run)
	return outs, res, nil
}

// Scheme1Src implements Theorem 3's first trade-off: build a spanner with
// the distributed Sampler (parameter γ = p.K), then t-local-broadcast the
// initial knowledge by flooding the spanner for stretch·t rounds. Round
// complexity O(3^γ·t + 6^γ); message complexity Õ(t·n^{1+2/(2^{γ+1}−1)})
// with the paper's parameter coupling h = 2^{γ+1}−1. cfg.Seed is the run
// seed, as for every pipeline.
//
// src supplies the stage-1 spanner; nil means a fresh construction per call.
// An engine-level spanner cache passes its memoized source here so that
// repeated runs amortize the construction.
func Scheme1Src(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, res, err := stage1(ctx, "scheme1", g, p, cfg, hooks, src)
	if err != nil {
		return nil, err
	}
	coll, err := Collect(ctx, g, st1.Host, st1.Stretch*spec.T, cfg.Seed, hooks.RoundConfig(cfg, "collect"))
	if err != nil {
		return nil, fmt.Errorf("scheme1 collection: %w", err)
	}
	res.bill(hooks, "collect", coll.Run)
	res.Coll = coll
	return res, nil
}

// Scheme1Params returns the paper's parameter coupling for scheme 1: level
// count γ and h = 2^{γ+1}−1 so that δ = 1/h and the message exponent
// becomes 1 + 2/(2^{γ+1}−1).
func Scheme1Params(gamma int) core.Params {
	return core.Default(gamma, (1<<(gamma+1))-1)
}

// Scheme2WithSrc implements Theorem 3's second trade-off, the two-stage
// pipeline, with a pluggable off-the-shelf construction c (see
// spanner.BaswanaSenConstruction for why any Construction qualifies):
//
//  1. the distributed Sampler builds a stage-1 spanner H with stretch α;
//  2. H simulates the stage-2 construction: the t₂-ball of every node is
//     collected over H in α·t₂ rounds (phase "simulate-"+c.Name) and c.Spec
//     is replayed locally, yielding each node's incident edges of the better
//     spanner H′ — without sending a single message of the original
//     Ω(m)-message algorithm;
//  3. H′ carries the final collection for the target algorithm.
//
// Stage 2 replays exactly the Spec that simulate.Direct runs as the
// construction's baseline, so every node's replayed edge set equals its
// direct-run output.
//
// src supplies the stage-1 spanner as for Scheme1Src (nil means a fresh
// construction per call).
func Scheme2WithSrc(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, c spanner.Construction, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	// Stage 1: Sampler spanner.
	st1, res, err := stage1(ctx, "scheme2", g, p, cfg, hooks, src)
	if err != nil {
		return nil, err
	}

	// Stage 2: simulate the off-the-shelf construction over H1.
	phase := "simulate-" + c.Name
	coll2, err := Collect(ctx, g, st1.Host, st1.Stretch*c.T, cfg.Seed, hooks.RoundConfig(cfg, phase))
	if err != nil {
		return nil, fmt.Errorf("scheme2 stage-2 collection: %w", err)
	}
	// The per-node replays are independent; fan them out over the run's
	// workers and merge the incident edge sets afterwards (set union is
	// order-independent, so the merged spanner is identical at every
	// concurrency level).
	outs, err := coll2.ReplayAllN(ctx, c.Spec, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("scheme2 stage-2 replay: %w", err)
	}
	h2edges := spanner.Edges(outs)
	res.bill(hooks, phase, coll2.Run)
	h2, err := g.SubgraphByEdges(h2edges)
	if err != nil {
		return nil, fmt.Errorf("scheme2: simulated %s emitted a non-subgraph: %w", c.Name, err)
	}

	// Stage 3: final collection over H2.
	coll, err := Collect(ctx, g, h2, c.Stretch*spec.T, cfg.Seed, hooks.RoundConfig(cfg, "collect"))
	if err != nil {
		return nil, fmt.Errorf("scheme2 final collection: %w", err)
	}
	res.bill(hooks, "collect", coll.Run)
	res.Coll, res.StretchUsed, res.FinalSpanner = coll, c.Stretch, h2edges
	return res, nil
}

// Scheme1CongestSrc is Scheme1Src under a CONGEST-style bandwidth budget:
// the Sampler spanner carries the same stretch·t-hop collection, but every
// directed spanner edge transmits at most bw words per round, so oversized
// ball payloads are split across extra rounds. The collection phase is
// labeled "collect(congest)" and reports its round dilation relative to the
// unbudgeted LOCAL schedule in PhaseCost.Dilation. Outputs replayed from the
// collection are bit-identical to direct execution — the bandwidth cap
// reshapes the schedule, never the knowledge.
func Scheme1CongestSrc(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, bw int, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, res, err := stage1(ctx, "scheme1-congest", g, p, cfg, hooks, src)
	if err != nil {
		return nil, err
	}
	budgetRounds := st1.Stretch * spec.T
	coll, err := CollectBudget(ctx, g, st1.Host, budgetRounds, bw, cfg.Seed, hooks.RoundConfig(cfg, "collect(congest)"))
	if err != nil {
		return nil, fmt.Errorf("scheme1-congest collection: %w", err)
	}
	// The CONGEST collection is centrally scheduled (no LOCAL engine run),
	// so it is adversary-exempt by construction: its run attributes no drops
	// or duplicates.
	res.bill(hooks, "collect(congest)", coll.Run, func(c *PhaseCost) {
		c.Dilation = float64(coll.Run.Rounds) / float64(budgetRounds+1)
	})
	res.Coll = coll
	return res, nil
}

// Gossip is the collection stage the two gossip schemes share: push–pull
// gossip runs until every t-ball is covered, within budget rounds, and is
// billed through that cover round under the given phase label. Dropped and
// Duplicated attribute the damage of exactly those rounds. Missing the
// cover within the budget is an ErrRoundBudget. No spanner carries the
// collection.
func Gossip(ctx context.Context, g *graph.Graph, spec algorithms.Spec, budget int, phase string, cfg local.Config, hooks Hooks) (*SchemeResult, error) {
	coll, cover, _, err := GossipCollectEarly(ctx, g, spec.T, budget, cfg.Seed, hooks.RoundConfig(cfg, phase))
	if err != nil {
		return nil, err
	}
	if cover < 0 {
		return nil, fmt.Errorf("gossip did not cover the %d-balls within %d rounds (raise WithMaxRounds): %w",
			spec.T, budget, ErrRoundBudget)
	}
	res := &SchemeResult{Coll: coll}
	res.bill(hooks, phase, coll.Run, billedThrough(cover))
	return res, nil
}

// GossipConverge is the Gossip stage (phase "gossip(earlystop)") followed by
// distributed termination detection, billed as its own phase
// "converge(halt)". The central stop check knew coverage was complete;
// distributed nodes do not. The second phase bills what knowing you are done
// costs: at the stop round every node's local predicate ("my ball is
// covered") is true, and one wave → convergecast-AND → broadcast-halt pass
// over G's BFS tree carries the unanimous verdict to everyone. A detection
// pass that starves within its schedule is an ErrRoundBudget.
func GossipConverge(ctx context.Context, g *graph.Graph, spec algorithms.Spec, budget int, cfg local.Config, hooks Hooks) (*SchemeResult, error) {
	res, err := Gossip(ctx, g, spec, budget, "gossip(earlystop)", cfg, hooks)
	if err != nil {
		return nil, err
	}
	done := make([]bool, g.NumNodes())
	for v := range done {
		done[v] = true
	}
	ok, run, err := globalcompute.DetectTermination(ctx, g, done, g.Diameter(), hooks.RoundConfig(cfg, "converge(halt)"))
	if err != nil {
		return nil, fmt.Errorf("gossip-converge termination detection: %w", starved(err))
	}
	if !ok {
		return nil, fmt.Errorf("gossip-converge termination detection returned a false verdict from all-true predicates")
	}
	res.bill(hooks, "converge(halt)", run)
	return res, nil
}

// GlobalCollectSrc realizes the paper's Section 7 extension as a collection
// pipeline: the Sampler spanner elects a root and builds a BFS tree, every
// node's port list is convergecast up the tree and the merged table is
// flooded back down (phase "globalcast"), after which every node can replay
// any node's t-ball locally. Rounds are O(stretch · diameter); messages are
// O(n) tree messages carrying tables instead of Θ(t·m) flood traffic. A
// convergecast that starves within its schedule is an ErrRoundBudget.
func GlobalCollectSrc(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, res, err := stage1(ctx, "globalcompute", g, p, cfg, hooks, src)
	if err != nil {
		return nil, err
	}

	n := g.NumNodes()
	ports := portsOf(g)
	inputs := make([]map[graph.NodeID][]graph.EdgeID, n)
	for v := 0; v < n; v++ {
		inputs[v] = map[graph.NodeID][]graph.EdgeID{graph.NodeID(v): ports[v]}
	}
	merge := func(a, b map[graph.NodeID][]graph.EdgeID) map[graph.NodeID][]graph.EdgeID {
		maps.Copy(a, b)
		return a
	}
	// The wave deadline must upper-bound the host diameter; the host is a
	// fixed artifact of this run, so the exact diameter is deterministic.
	waveRounds := st1.Host.Diameter()
	vals, run, err := globalcompute.Converge(ctx, st1.Host, inputs, merge, waveRounds, hooks.RoundConfig(cfg, "globalcast"))
	if err != nil {
		return nil, fmt.Errorf("globalcompute convergecast: %w", starved(err))
	}
	res.bill(hooks, "globalcast", run)

	// Every node holds the merged table (the root's map, shared and
	// read-only from here on). A table of n origins names every node, so
	// every node heard all of them and the heard sets alias one ascending
	// slice 0..n-1.
	all := make([]graph.NodeID, n)
	heard := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		if table := vals[v]; len(table) != n {
			// An incomplete table means the wave/convergecast starved within
			// its schedule (an adversarial network can do this): a budget
			// failure, typed so callers can test for it.
			return nil, fmt.Errorf("globalcompute: node %d's table covers %d of %d nodes: %w", v, len(table), n, ErrRoundBudget)
		}
		all[v] = graph.NodeID(v)
		heard[v] = all
	}
	res.Coll = newCollection(ports, heard, cfg.Seed, run)
	return res, nil
}
