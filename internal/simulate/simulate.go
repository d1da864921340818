// Package simulate implements the paper's Section 6: message-efficient
// simulation of arbitrary t-round LOCAL algorithms.
//
// The pipeline follows the paper exactly. In a t-round LOCAL algorithm, the
// computation of node v depends only on the initial knowledge — identity,
// input, incident edge IDs — of the nodes in its ball B_{G,t}(v). The
// simulation therefore (1) performs t-local broadcast of every node's
// initial knowledge, flooding over a spanner H with stretch α for α·t
// rounds, and (2) has every node locally reconstruct its exact t-ball and
// re-execute the algorithm on it ("replay"). Unique edge IDs make the
// reconstruction possible: two collected nodes are adjacent iff their port
// lists share an edge ID. The collection is the broadcast's own record:
// Collection.Ports is broadcast.Result.Known, origin → port list, as the
// flood or gossip left it.
//
// Scheme1Src realizes Theorem 3's first trade-off (spanner built by
// algorithm Sampler, then one collection); Scheme2WithSrc realizes the
// second, two-stage trade-off (Sampler's spanner simulates an off-the-shelf
// spanner construction — Baswana–Sen or Elkin–Neiman here, substituting for
// Derbel et al.; see BaswanaSenStage2 — whose output spanner then carries the
// final collection).
package simulate

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/sched"
)

// Collection is the outcome of the t-local broadcast of port lists: for
// every node, the port list of every node it heard about.
type Collection struct {
	// N is the size of the original network (for replays).
	N int
	// Seed is the run seed shared by the original network and all replays.
	Seed uint64
	// Ports[v] maps each origin u that v heard about to u's incident edge
	// IDs in the original graph: the broadcast result's Known, held as is.
	Ports []map[graph.NodeID][]graph.EdgeID
	// Run is the cost of the collection phase.
	Run local.Result
}

// portsOf extracts every node's (sorted) incident edge list from g: the
// payload table M every collection broadcasts.
func portsOf(g *graph.Graph) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		inc := g.Incident(graph.NodeID(v))
		edges := make([]graph.EdgeID, len(inc))
		for i, h := range inc {
			edges[i] = h.Edge
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		out[v] = edges
	}
	return out
}

// Collect floods every node's original-graph port list over host for the
// given number of rounds. host must span the same node set as g (it is g
// itself for the direct baseline, or a spanner of g for the schemes).
// Cancelling ctx aborts the flood mid-round.
func Collect(ctx context.Context, g, host *graph.Graph, rounds int, seed uint64, cfg local.Config) (*Collection, error) {
	if g.NumNodes() != host.NumNodes() {
		return nil, fmt.Errorf("simulate: host spans %d nodes, graph has %d", host.NumNodes(), g.NumNodes())
	}
	cfg.Seed = seed
	fl, err := broadcast.Flood(ctx, host, portsOf(g), nil, rounds, cfg)
	if err != nil {
		return nil, err
	}
	return &Collection{N: g.NumNodes(), Seed: seed, Ports: fl.Known, Run: fl.Run}, nil
}

// CollectBudget is Collect under a CONGEST-style bandwidth cap: every
// directed host edge carries at most bw words per round, so oversized port
// lists are split across consecutive rounds (see broadcast.FloodBudget). The
// returned collection holds exactly the knowledge Collect would have
// gathered; only the round schedule (and hence Run.Rounds) dilates.
func CollectBudget(ctx context.Context, g, host *graph.Graph, rounds, bw int, seed uint64, cfg local.Config) (*Collection, error) {
	if g.NumNodes() != host.NumNodes() {
		return nil, fmt.Errorf("simulate: host spans %d nodes, graph has %d", host.NumNodes(), g.NumNodes())
	}
	cfg.Seed = seed
	fl, err := broadcast.FloodBudget(ctx, host, portsOf(g), rounds, bw, cfg)
	if err != nil {
		return nil, err
	}
	return &Collection{N: g.NumNodes(), Seed: seed, Ports: fl.Known, Run: fl.Run}, nil
}

// GossipCollectEarly performs the same collection by push–pull gossip (the
// baseline family of Censor-Hillel et al. and Haeupler) and ends the round
// loop the moment every node's distance-t ball is covered (central early
// stopping). It reports that cover round (-1 if the balls were not covered
// within maxRounds) and the messages spent through it. The executed prefix
// is the same execution as the fixed maxRounds-round schedule
// (broadcast.Gossip), so the cover round and its bill are that schedule's;
// only the dead tail — and its wall clock — is skipped. The collection holds
// exactly the knowledge gossip had delivered by the cover round, which
// suffices for every replay.
func GossipCollectEarly(ctx context.Context, g *graph.Graph, t, maxRounds int, seed uint64, cfg local.Config) (*Collection, int, int64, error) {
	cfg.Seed = seed
	bi := broadcast.NewBallIndex(g, t)
	gos, cover, err := broadcast.Gossip(ctx, g, portsOf(g), bi, g.NumNodes(), maxRounds, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	var msgs int64
	if cover >= 0 {
		if msgs, err = gos.MessagesThrough(cover); err != nil {
			return nil, 0, 0, fmt.Errorf("simulate: gossip cover billing: %w", err)
		}
	}
	return &Collection{N: g.NumNodes(), Seed: seed, Ports: gos.Known, Run: gos.Run}, cover, msgs, nil
}

// Replay reconstructs node v's exact t-ball from the collection and
// re-executes the algorithm on it, returning v's output — the value it
// would have produced in a direct t-round run on the original graph.
func (c *Collection) Replay(spec algorithms.Spec, v graph.NodeID) (any, error) {
	known := c.Ports[v]
	// Adjacency among known origins: an edge ID shared by two port lists
	// connects them (the unique-edge-ID assumption at work).
	owners := make(map[graph.EdgeID][]graph.NodeID)
	//freelunch:orderok owner-list order only pairs edge endpoints; replay sorts the ball and takes order-independent BFS distances
	for origin, ports := range known {
		for _, e := range ports {
			owners[e] = append(owners[e], origin)
		}
	}
	adj := make(map[graph.NodeID][]graph.NodeID, len(known))
	//freelunch:orderok adjacency is consumed as a set: replay's distance computation is neighbor-order-independent
	for e, os := range owners {
		if len(os) > 2 {
			return nil, fmt.Errorf("simulate: edge %d claimed by %d nodes", e, len(os))
		}
		if len(os) == 2 {
			adj[os[0]] = append(adj[os[0]], os[1])
			adj[os[1]] = append(adj[os[1]], os[0])
		}
	}
	// Distances from v among known origins. For targets within t these
	// equal original-graph distances: every vertex of a shortest path of
	// length <= t lies in B_{G,t}(v), which the collection covers.
	dist := map[graph.NodeID]int{v: 0}
	queue := []graph.NodeID{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] >= spec.T {
			continue
		}
		for _, w := range adj[u] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	// Ball members, deterministically ordered.
	ball := make([]graph.NodeID, 0, len(dist))
	for u := range dist {
		ball = append(ball, u)
	}
	sort.Slice(ball, func(i, j int) bool { return ball[i] < ball[j] })

	// Build the replay graph: ball nodes with their complete port lists.
	// Edges leaving the ball get their far endpoint as a "phantom" node —
	// the known origin beyond distance t when the collection heard of it, or
	// a synthetic node otherwise. Phantoms sit at distance >= t+1 from v, so
	// their (arbitrary) behaviour cannot influence v within t rounds; they
	// exist so that boundary nodes of the ball see their true degree.
	idx := make(map[graph.NodeID]int, len(ball))
	var idmap []graph.NodeID
	addNode := func(id graph.NodeID) int {
		if i, ok := idx[id]; ok {
			return i
		}
		i := len(idmap)
		idx[id] = i
		idmap = append(idmap, id)
		return i
	}
	for _, u := range ball {
		addNode(u)
	}
	type pend struct {
		e    graph.EdgeID
		a, b int
	}
	var pends []pend
	seenEdge := make(map[graph.EdgeID]bool)
	synth := c.N // synthetic phantom identities start beyond all real IDs
	for _, u := range ball {
		for _, e := range known[u] {
			if seenEdge[e] {
				continue
			}
			seenEdge[e] = true
			var far graph.NodeID
			switch os := owners[e]; len(os) {
			case 2:
				far = os[0]
				if far == u {
					far = os[1]
				}
			default:
				far = graph.NodeID(synth)
				synth++
			}
			pends = append(pends, pend{e: e, a: idx[u], b: addNode(far)})
		}
	}
	rg := graph.New(len(idmap))
	for _, p := range pends {
		if p.a == p.b {
			return nil, fmt.Errorf("simulate: reconstructed self-loop on edge %d", p.e)
		}
		if err := rg.AddEdgeWithID(p.e, graph.NodeID(p.a), graph.NodeID(p.b)); err != nil {
			return nil, fmt.Errorf("simulate: rebuilding ball of %d: %w", v, err)
		}
	}

	// Re-execute with original identities, original network size, and the
	// original seed, so every ball node behaves exactly as in the real run.
	protos := make([]local.Protocol, rg.NumNodes())
	run, err := local.Run(rg, func(id graph.NodeID) local.Protocol {
		p := spec.New(id)
		// Factory receives mapped IDs; find the slot by identity.
		protos[idx[id]] = p
		return p
	}, local.Config{
		Seed:      c.Seed,
		MaxRounds: spec.T + 1,
		IDMap:     idmap,
		NOverride: c.N,
	})
	if err != nil {
		return nil, err
	}
	if !run.Halted {
		return nil, fmt.Errorf("simulate: replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	return spec.Output(protos[idx[v]]), nil
}

// ReplayAllN replays every node and returns the full output vector, fanning
// the independent per-node re-executions out over a worker pool. The
// concurrency knob follows the facade convention: 0 sequential, w > 0 that
// many workers, w < 0 GOMAXPROCS. Output slots are indexed by node, so the
// result is byte-identical at every concurrency level; cancelling ctx aborts
// between node replays.
func (c *Collection) ReplayAllN(ctx context.Context, spec algorithms.Spec, concurrency int) ([]any, error) {
	out := make([]any, len(c.Ports))
	err := sched.ParallelFor(ctx, len(c.Ports), concurrency, func(v int) error {
		o, err := c.Replay(spec, graph.NodeID(v))
		if err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
		out[v] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Direct runs the algorithm directly on g — the ground truth and the
// Θ(t·m)-message baseline.
func Direct(ctx context.Context, g *graph.Graph, spec algorithms.Spec, seed uint64, cfg local.Config) ([]any, local.Result, error) {
	protos := make([]local.Protocol, g.NumNodes())
	cfg.Seed = seed
	cfg.MaxRounds = spec.T + 1
	run, err := local.RunCtx(ctx, g, func(v graph.NodeID) local.Protocol {
		protos[v] = spec.New(v)
		return protos[v]
	}, cfg)
	if err != nil {
		return nil, local.Result{}, err
	}
	if !run.Halted {
		return nil, run, fmt.Errorf("simulate: %s did not halt in %d rounds", spec.Name, spec.T)
	}
	out := make([]any, len(protos))
	for v, p := range protos {
		out[v] = spec.Output(p)
	}
	return out, run, nil
}
