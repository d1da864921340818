// Package repro is a Go reproduction of "Message Reduction in the LOCAL
// Model Is a Free Lunch" (Bitton, Emek, Izumi, Kutten; DISC 2019).
//
// The paper shows that any t-round LOCAL algorithm can be simulated in O(t)
// rounds while sending only Õ(t·n^{1+ε}) messages — independent of the edge
// count m. Its engine is algorithm Sampler, a randomized spanner
// construction with constant stretch, near-linear size, and o(m) message
// complexity in the LOCAL model with unique edge IDs.
//
// # The Engine/Scheme API
//
// The facade is organized around two abstractions:
//
//   - A Scheme is one execution strategy for a t-round algorithm. Schemes
//     live in a fixed table keyed by name — Lookup, Schemes — and cover the
//     paper and its baselines: "direct" (ground truth, Θ(t·m) messages),
//     "scheme1" (Theorem 3's first trade-off),
//     "scheme2" (the two-stage trade-off with Baswana–Sen), "scheme2en"
//     (the Elkin–Neiman stage anticipated by the paper's concluding
//     remarks), "scheme1-congest" (scheme1 under a CONGEST-style
//     WithBandwidth word cap, reporting its round dilation),
//     "globalcompute" (the paper's Section 7 extension: a spanner BFS tree
//     convergecasts all knowledge),
//     and the push–pull baseline family: "gossip" (an oracle-stopped lower
//     bound: a central oracle halts the round loop at the cover round, and
//     the bill runs through it) and "gossip-converge" (distributed
//     termination detection via a BFS-tree convergecast, billed as its own
//     phase on top of the gossip bill).
//     Every scheme produces outputs bit-identical to "direct" at the same
//     seed.
//
//   - An Engine holds one validated configuration, built from functional
//     options (WithSeed, WithConcurrency, WithGamma, WithStageK,
//     WithSpannerParams, WithObserver, ...), and runs schemes under it:
//
//     eng := repro.NewEngine(repro.WithSeed(42), repro.WithGamma(2))
//     res, err := eng.Run(ctx, "scheme2en", g, repro.MaxID(4))
//
// Runs take a context.Context and stop within one node step's work when it
// is cancelled, in both the sequential and the concurrent engine. Observers
// registered with WithObserver stream round- and phase-completion events
// while a simulation is in flight; MetricsSink is a ready-made observer
// that reduces the stream to bounded per-phase statistics. A run keeps no
// per-round record of its own, so even long schedules run at O(1) memory
// in executed rounds.
//
// WithAdversary subjects a run to a pluggable network adversary — seeded
// message drops and duplications, crash-stop failures, bounded per-edge
// delivery delays, and mid-run edge insertions/deletions — with every send
// still billed honestly (PhaseCost.Dropped and PhaseCost.Duplicated
// attribute the damage). Adversarial runs are bit-identical across both
// engines at every worker count; the default (no adversary) is the paper's
// flawless synchronous network.
//
// An Engine memoizes its stage-1 Sampler spanners across Runs keyed by
// (graph, seed, spanner parameters) — the paper's amortization story —
// so repeated simulations at the same key pay the construction only once;
// see Engine for details, Engine.Reset to drop the cache, and WithNoCache
// to opt out. Replays of collected balls fan out over a worker pool under
// WithConcurrency with byte-identical outputs at every concurrency level.
//
// Graph construction, generators, target algorithms, and the LOCAL runtime
// live in the internal packages (internal/graph, internal/graph/gen,
// internal/algorithms, internal/local); the most useful types are aliased
// here so typical use needs only this package plus the generators.
package repro

import (
	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/graph"
)

// Aliases for the types a typical caller touches.
type (
	// Graph is an undirected multigraph with unique edge IDs.
	Graph = graph.Graph
	// NodeID identifies a node (0..n-1).
	NodeID = graph.NodeID
	// EdgeID is a globally unique edge identifier.
	EdgeID = graph.EdgeID
	// AlgorithmSpec describes a t-round LOCAL algorithm to simulate.
	AlgorithmSpec = algorithms.Spec
	// AdversaryProfile configures the pluggable network adversary a run
	// executes against (see WithAdversary): seeded message drops and
	// duplications, crash-stop failures, per-edge delivery delays, and
	// mid-run topology events. The zero value perturbs nothing.
	AdversaryProfile = adversary.Profile
	// AdversaryCrash schedules one crash-stop failure inside an
	// AdversaryProfile.
	AdversaryCrash = adversary.Crash
	// AdversaryEdgeEvent schedules one mid-run edge insertion or deletion
	// inside an AdversaryProfile.
	AdversaryEdgeEvent = adversary.EdgeEvent
)

// Edge-event operations for AdversaryEdgeEvent.Op.
const (
	// InsertEdge adds a fresh edge (new unique ID) between the event's
	// endpoints.
	InsertEdge = adversary.InsertEdge
	// DeleteEdge removes the lowest-ID edge between the event's endpoints
	// (a no-op when none exists).
	DeleteEdge = adversary.DeleteEdge
)

// AdversaryProfiles returns the names of the shipped adversary profiles, in
// registry order; NamedAdversary resolves one by name.
func AdversaryProfiles() []string { return adversary.Names() }

// NamedAdversary returns the shipped adversary profile with the given name.
func NamedAdversary(name string) (AdversaryProfile, bool) { return adversary.Named(name) }

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Spanner is a constructed spanner with its certificate and cost.
type Spanner struct {
	// Edges is the spanner edge set S ⊆ E.
	Edges map[EdgeID]bool
	// StretchBound is the certified stretch 2·3^K − 1.
	StretchBound int
	// Rounds and Messages are the distributed construction costs (zero for
	// centralized builds, whose cost model is not message passing).
	Rounds   int
	Messages int64
}

// Subgraph materializes H = (V, S) over the original graph.
func (s *Spanner) Subgraph(g *Graph) (*Graph, error) {
	return g.SubgraphByEdges(s.Edges)
}

// Verify checks that the spanner spans g within its certified stretch,
// returning the measured maximum edge stretch.
func (s *Spanner) Verify(g *Graph) (int, error) {
	_, rep, err := graph.VerifySpanner(g, s.Edges, s.StretchBound)
	if err != nil {
		return 0, err
	}
	return rep.MaxEdgeStretch, nil
}

// Target algorithm constructors, re-exported for convenience.
var (
	// MaxID is the t-hop maximum-identity algorithm (exact oracle: BFS).
	MaxID = algorithms.MaxID
	// MIS is Luby's maximal independent set with a fixed round budget.
	MIS = algorithms.MIS
	// MISRounds is the default whp-termination budget for MIS.
	MISRounds = algorithms.MISRounds
	// Coloring is randomized (Δ+1)-coloring with a fixed round budget.
	Coloring = algorithms.Coloring
	// ColoringRounds is the default whp budget for Coloring.
	ColoringRounds = algorithms.ColoringRounds
	// BFSLayers computes hop distances from a source up to t.
	BFSLayers = algorithms.BFS
)

// SimulationResult is the outcome of a simulated (or direct) execution.
type SimulationResult struct {
	// Scheme names the scheme that produced this result.
	Scheme string
	// Outputs holds each node's output, index = node.
	Outputs []any
	// Rounds and Messages are the total execution costs. For gossip runs
	// they are the cover round and the messages spent by it.
	Rounds   int
	Messages int64
	// Phases itemizes the pipeline stages in execution order.
	Phases []PhaseCost
	// StretchUsed and SpannerEdges describe the spanner that carried the
	// final collection (zero for direct and gossip runs).
	StretchUsed  int
	SpannerEdges int
}
