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
// Replay is the end-to-end hot path, so it works on reused scratch: a
// replayer rebuilds a ball into buffers it keeps (an edge-owner table,
// NodeID-indexed slots, the ball and phantom lists, one graph reset in
// place) and runs it on one local.Runner. ReplayAllN keeps one replayer per
// worker, so a sweep's steady-state replay allocates little beyond the
// protocol instances; Replay is a single replay on a fresh replayer.
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
	"runtime"
	"slices"
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
// baseline family of Censor-Hillel et al. and Haeupler) and ends the run at
// the barrier of the round in which every node's distance-t ball is covered
// (central early stopping). It reports that cover round (-1 if the balls
// were not covered within maxRounds) and the messages the run sent through
// it, which are its whole bill. The executed prefix is the same execution
// as the fixed maxRounds-round schedule (broadcast.Gossip), so the cover
// round and its bill are that schedule's; only the dead tail — and its wall
// clock — is skipped. The collection holds exactly the knowledge gossip had
// delivered by the cover round, which suffices for every replay.
func GossipCollectEarly(ctx context.Context, g *graph.Graph, t, maxRounds int, seed uint64, cfg local.Config) (*Collection, int, int64, error) {
	cfg.Seed = seed
	gos, cover, err := broadcast.Gossip(ctx, g, portsOf(g), broadcast.NewBallIndex(g, t), g.NumNodes(), maxRounds, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	return &Collection{N: g.NumNodes(), Seed: seed, Ports: gos.Known, Run: gos.Run}, cover, gos.Run.Messages, nil
}

// Replay reconstructs node v's exact t-ball from the collection and
// re-executes the algorithm on it, returning v's output — the value it
// would have produced in a direct t-round run on the original graph. It is
// one replay on a fresh replayer; ReplayAllN reuses one per worker.
func (c *Collection) Replay(spec algorithms.Spec, v graph.NodeID) (any, error) {
	return new(replayer).replay(c, spec, v)
}

// ReplayAllN replays every node and returns the full output vector, fanning
// the independent per-node re-executions out over a worker pool. The
// concurrency knob follows the facade convention: 0 sequential, w > 0 that
// many workers, w < 0 GOMAXPROCS. Each worker keeps one replayer for all of
// its nodes. Output slots are indexed by node, so the result is
// byte-identical at every concurrency level; cancelling ctx aborts between
// node replays.
func (c *Collection) ReplayAllN(ctx context.Context, spec algorithms.Spec, concurrency int) ([]any, error) {
	if concurrency < 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	// ParallelFor's worker indices lie in [0, max(concurrency, 1)).
	reps := make([]replayer, max(concurrency, 1))
	out := make([]any, len(c.Ports))
	err := sched.ParallelFor(ctx, len(c.Ports), concurrency, func(w, v int) error {
		o, err := reps[w].replay(c, spec, graph.NodeID(v))
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

// replayer holds one worker's scratch for ball replays. Every buffer is
// truncated or cleared per replay and regrown only when a ball outgrows it,
// and the replay graph and the engine are rebuilt in place (graph.Reset,
// local.Runner), so a worker's steady-state replay allocates little beyond
// the protocol instances themselves. A replayer serves any collection; it
// is not safe for concurrent use.
type replayer struct {
	owners map[graph.EdgeID]int32 // edge → index into recs
	recs   []edgeOwners
	// mark is NodeID-indexed: -1 for a node the current replay has not
	// touched, otherwise its slot in the replay graph (0 while the BFS
	// discovers the ball). Every touched node is listed in nodes, through
	// which mark is reset before each replay returns, error returns
	// included.
	mark  []int32
	nodes []graph.NodeID // BFS queue, then the sorted ball, then real phantoms
	idmap []graph.NodeID // replay-graph slot → identity
	pends []pendEdge
	rg    graph.Graph
	run   local.Runner

	// The protocol factory, built once per replayer; it keeps the protocol
	// of the replayed node v, the only output a replay reads.
	factory local.Factory
	spec    algorithms.Spec
	v       graph.NodeID
	vp      local.Protocol
}

// edgeOwners records the collected origins whose port lists name one edge:
// the first two (a, b) and their count n. Two owners make the edge; one
// makes it a boundary edge; more is corruption.
type edgeOwners struct {
	a, b graph.NodeID
	n    int32
	seen bool // already emitted as a replay-graph edge
}

// pendEdge is one replay-graph edge between slots a and b.
type pendEdge struct {
	e    graph.EdgeID
	a, b int32
}

// replay rebuilds v's ball from c into the replayer's buffers and re-executes
// spec on it with original identities, original network size, and the
// original seed, so every ball node behaves exactly as in the real run.
func (r *replayer) replay(c *Collection, spec algorithms.Spec, v graph.NodeID) (any, error) {
	if err := r.rebuild(c, spec.T, v); err != nil {
		return nil, err
	}
	if r.factory == nil {
		r.factory = func(id graph.NodeID) local.Protocol {
			p := r.spec.New(id)
			if id == r.v {
				r.vp = p
			}
			return p
		}
	}
	r.spec, r.v = spec, v
	run, err := r.run.Run(context.Background(), &r.rg, r.factory, local.Config{
		Seed:      c.Seed,
		MaxRounds: spec.T + 1,
		IDMap:     r.idmap,
		NOverride: c.N,
		NoLedger:  true,
	})
	if err != nil {
		return nil, err
	}
	if !run.Halted {
		return nil, fmt.Errorf("simulate: replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	return spec.Output(r.vp), nil
}

// rebuild reconstructs v's t-ball from c into r.rg and r.idmap.
//
// Adjacency among known origins comes from shared edge IDs: an edge ID in
// two port lists connects the two origins (the unique-edge-ID assumption
// at work). The ball is every origin within distance t of v; for targets
// within t these distances equal original-graph distances, because every
// vertex of a shortest path of length <= t lies in B_{G,t}(v), which the
// collection covers. Ball members take slots in ascending ID order.
//
// Edges leaving the ball get their far endpoint as a "phantom" node — the
// known origin beyond distance t when the collection heard of it, or a
// synthetic node otherwise, with identities counting up from c.N.
// Phantoms take slots in discovery order. They sit at distance >= t+1 from
// v, so their (arbitrary) behaviour cannot influence v within t rounds;
// they exist so that boundary nodes of the ball see their true degree.
// Edges are inserted in (ball node ascending, port order).
//
// A corrupt collection fails with an error: an origin outside [0, c.N)
// (which would alias a synthetic phantom), an edge claimed by more than two
// origins, or a reconstructed self-loop.
//
//freelunch:noalloc
func (r *replayer) rebuild(c *Collection, t int, v graph.NodeID) error {
	if int(v) < 0 || int(v) >= c.N {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: replay of node %d outside [0, %d)", v, c.N)
	}
	if r.owners == nil {
		//freelunch:allocok once per replayer: the table is cleared, not re-made, per replay
		r.owners = make(map[graph.EdgeID]int32)
	}
	for len(r.mark) < c.N {
		//freelunch:allocok amortized: grows to the largest network once per replayer
		r.mark = append(r.mark, -1)
	}
	defer r.unmark()
	known := c.Ports[v]
	clear(r.owners)
	r.recs = r.recs[:0]
	var (
		badOrigin graph.NodeID
		badEdge   graph.EdgeID
		forged    bool // some origin lies outside [0, c.N); badOrigin is the smallest
		claimed   bool // some edge has three or more owners; badEdge is the smallest
	)
	//freelunch:orderok owner order only pairs edge endpoints, and both errors report the smallest offender
	for origin, ports := range known {
		if int(origin) < 0 || int(origin) >= c.N {
			if !forged || origin < badOrigin {
				badOrigin, forged = origin, true
			}
			continue
		}
		for _, e := range ports {
			k, ok := r.owners[e]
			if !ok {
				r.owners[e] = int32(len(r.recs))
				//freelunch:allocok amortized: truncated and reused across replays
				r.recs = append(r.recs, edgeOwners{a: origin, n: 1})
				continue
			}
			o := &r.recs[k]
			if o.n == 1 {
				o.b = origin
			}
			if o.n++; o.n == 3 && (!claimed || e < badEdge) {
				badEdge, claimed = e, true
			}
		}
	}
	if forged {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: node %d heard of origin %d outside [0, %d)", v, badOrigin, c.N)
	}
	if claimed {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: edge %d claimed by %d nodes", badEdge, r.recs[r.owners[badEdge]].n)
	}

	// Level-synchronous BFS from v over two-owner edges, expanding levels
	// 0..t-1, so the queue ends as exactly the ball.
	//freelunch:allocok amortized: truncated and reused across replays
	r.nodes = append(r.nodes[:0], v)
	r.mark[v] = 0
	for d, lo := 0, 0; d < t && lo < len(r.nodes); d++ {
		for hi := len(r.nodes); lo < hi; lo++ {
			u := r.nodes[lo]
			for _, e := range known[u] {
				o := &r.recs[r.owners[e]]
				if o.n != 2 {
					continue
				}
				w := o.a
				if w == u {
					w = o.b
				}
				if r.mark[w] < 0 {
					r.mark[w] = 0
					//freelunch:allocok amortized: truncated and reused across replays
					r.nodes = append(r.nodes, w)
				}
			}
		}
	}
	slices.Sort(r.nodes)
	//freelunch:allocok amortized: truncated and reused across replays
	r.idmap = append(r.idmap[:0], r.nodes...)
	for i, u := range r.nodes {
		r.mark[u] = int32(i)
	}

	ball := len(r.nodes)
	synth := graph.NodeID(c.N) // synthetic phantom identities start beyond all real IDs
	r.pends = r.pends[:0]
	for a := 0; a < ball; a++ {
		u := r.nodes[a]
		for _, e := range known[u] {
			o := &r.recs[r.owners[e]]
			if o.seen {
				continue
			}
			o.seen = true
			b := int32(len(r.idmap))
			if o.n == 2 {
				far := o.a
				if far == u {
					far = o.b
				}
				if r.mark[far] >= 0 {
					b = r.mark[far]
				} else {
					r.mark[far] = b
					//freelunch:allocok amortized: truncated and reused across replays
					r.nodes = append(r.nodes, far)
					//freelunch:allocok amortized: truncated and reused across replays
					r.idmap = append(r.idmap, far)
				}
			} else {
				//freelunch:allocok amortized: truncated and reused across replays
				r.idmap = append(r.idmap, synth)
				synth++
			}
			//freelunch:allocok amortized: truncated and reused across replays
			r.pends = append(r.pends, pendEdge{e: e, a: int32(a), b: b})
		}
	}

	r.rg.Reset(len(r.idmap))
	for _, p := range r.pends {
		if p.a == p.b {
			//freelunch:allocok error path: formats once and ends the replay
			return fmt.Errorf("simulate: reconstructed self-loop on edge %d", p.e)
		}
		if err := r.rg.AddEdgeWithID(p.e, graph.NodeID(p.a), graph.NodeID(p.b)); err != nil {
			//freelunch:allocok error path: formats once and ends the replay
			return fmt.Errorf("simulate: rebuilding ball of %d: %w", v, err)
		}
	}
	return nil
}

// unmark resets every mark entry the current replay touched.
//
//freelunch:noalloc
func (r *replayer) unmark() {
	for _, u := range r.nodes {
		r.mark[u] = -1
	}
	r.nodes = r.nodes[:0]
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
