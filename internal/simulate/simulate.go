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
// Replay runs only the light cone of the replayed node v. After t rounds,
// v's output depends on a node at distance d only through that node's
// steps in rounds 0..t-d (the t-ball view of LOCAL), so each node of the
// replay graph gets the step horizon t+1-d (local.Config.Horizon): nodes at
// the rim step once, and phantoms beyond the ball are never built. The
// replayer's rebuild doc comment proves the rule exact.
//
// Replay is the end-to-end hot path, so it works on reused scratch: a
// replayer rebuilds a ball into buffers it keeps (a flat, epoch-stamped
// edge-owner table, NodeID-indexed slots, the ball and phantom lists, one
// graph reset in place and filled in edge-ID order) and runs it on one
// local.Runner. ReplayAllN keeps one replayer per worker, so a sweep's
// steady-state replay allocates little beyond the protocol instances;
// Replay is a single replay on a fresh replayer.
//
// Scheme1Src realizes Theorem 3's first trade-off (spanner built by
// algorithm Sampler, then one collection); Scheme2WithSrc realizes the
// second, two-stage trade-off: Sampler's spanner simulates an off-the-shelf
// spanner construction, a spanner.Construction (Baswana–Sen or
// Elkin–Neiman here, substituting for Derbel et al.; see
// spanner.BaswanaSenConstruction), whose output spanner then carries the
// final collection. A construction is one algorithms.Spec: scheme2 replays
// it from collected balls, and Direct runs it on G as the Θ(k·m)-message
// baseline.
package simulate

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
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
// truncated, or invalidated by an epoch bump, per replay and regrown only
// when a ball outgrows it, and the replay graph and the engine are rebuilt
// in place (graph.Reset, local.Runner), so a worker's steady-state replay
// allocates little beyond the protocol instances themselves. A replayer
// serves any collection; it is not safe for concurrent use.
type replayer struct {
	// owners is an open-addressing table from edge ID to an index into
	// recs. A slot belongs to the current replay iff its epoch is r.epoch,
	// so starting a replay empties the table by bumping the epoch.
	owners []ownerSlot
	shift  uint8 // 64 - log2(len(owners)): the Fibonacci hash keeps the top bits
	epoch  uint32
	recs   []edgeOwners
	// origs lists the replayed node's known origins in map order, and slots
	// holds the recs index of each of their ports, origin after origin, so
	// the BFS and phantom passes read owners without hashing anything.
	origs []knownOrigin
	slots []int32
	// known and mark are NodeID-indexed and -1 for a node the current
	// replay has not touched. known[u] is u's index in origs; mark[u] is
	// u's BFS distance from v while the BFS runs, then its replay-graph
	// slot. Every touched node is listed in origs or nodes, through which
	// both are reset before each replay returns, error returns included.
	known []int32
	mark  []int32
	nodes []graph.NodeID // BFS queue, then the sorted ball, then real phantoms
	idmap []graph.NodeID // replay-graph slot → identity
	hor   []int32        // replay-graph slot → step horizon (local.Config.Horizon)
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

// ownerSlot is one owners-table entry: an edge ID, the epoch of the replay
// that inserted it, and its record's index in recs.
type ownerSlot struct {
	e     graph.EdgeID
	epoch uint32
	rec   int32
}

// edgeOwners records the collected origins whose port lists name one edge:
// the first two (a, b) and their count n. Two owners make the edge; one
// makes it a boundary edge; more is corruption.
type edgeOwners struct {
	a, b graph.NodeID
	n    int32
}

// knownOrigin is one origin the replayed node heard of: its port list and
// the offset of that list's owner records in the replayer's slots.
type knownOrigin struct {
	id    graph.NodeID
	at    int32
	ports []graph.EdgeID
}

// pendEdge is one replay-graph edge between slots a and b.
type pendEdge struct {
	e    graph.EdgeID
	a, b int32
}

// replay rebuilds v's ball from c into the replayer's buffers and re-executes
// spec on it with original identities, original network size, and the
// original seed, so every ball node behaves exactly as in the real run. Each
// node steps only up to its light-cone horizon (see rebuild), and v's
// horizon is the whole run, so the run has halted iff v has.
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
		Horizon:   r.hor,
	})
	if err != nil {
		return nil, err
	}
	if !run.Halted {
		return nil, fmt.Errorf("simulate: replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	return spec.Output(r.vp), nil
}

// rebuild reconstructs v's t-ball from c into r.rg, r.idmap and r.hor.
//
// Adjacency among known origins comes from shared edge IDs: an edge ID in
// two port lists connects the two origins (the unique-edge-ID assumption
// at work). One pass over v's collection records every known origin; a
// second pairs the owners of every edge in the owners table, checking all
// known origins, in or out of the ball. The ball is every origin within
// distance t of v; for targets within t these distances equal
// original-graph distances, because every vertex of a shortest path of
// length <= t lies in B_{G,t}(v), which the collection covers. Ball members
// take slots in ascending ID order.
//
// Edges leaving the ball get their far endpoint as a "phantom" node — the
// known origin beyond distance t when the collection heard of it, or a
// synthetic node otherwise, with identities counting up from c.N.
// Phantoms take slots in discovery order (ball node ascending, port order)
// and exist so that boundary nodes of the ball see their true degree.
// Edges are inserted in ascending ID order, so the replay graph's ID index
// only ever appends; the engine orders ports by edge ID, so insertion order
// changes no execution.
//
// The horizon of a node at distance d from v in the replay graph is
// t+1-d: it steps in rounds 0..t-d only. This is exact. By induction on r,
// a node u at distance d takes the same step in every round r <= t-d as in
// a run where every node steps all t+1 rounds. Its round-0 inbox is empty.
// Its round-r inbox holds what its neighbours sent in round r-1; each sits
// at some distance d' <= d+1, so r-1 <= t-d' lies within its horizon, by
// induction it sent the same messages, and all of them were staged because
// u still steps in round r. v, at distance 0, has horizon t+1, the whole
// run, so it never retires and computes exactly what it would if every
// node stepped.
//
// Distances come from the BFS. A ball node at distance d is BFS level d. A
// known-origin phantom hangs only off level t (anything nearer would be in
// the ball), so it sits at t+1 and gets horizon 0: it is never built. A
// synthetic phantom has one edge, to its ball node at distance d, so it
// gets t-d. That is 0 on a complete collection, but an incomplete one (an
// adversary dropped messages) can put a synthetic phantom at distance
// d+1 <= t, and there it must step.
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
	for len(r.mark) < c.N {
		//freelunch:allocok amortized: grows to the largest network once per replayer
		r.mark = append(r.mark, -1)
		//freelunch:allocok amortized: grows to the largest network once per replayer
		r.known = append(r.known, -1)
	}
	defer r.unmark()
	var (
		badOrigin graph.NodeID
		forged    bool // some origin lies outside [0, c.N); badOrigin is the smallest
		nports    int
	)
	known := c.Ports[v]
	//freelunch:allocok amortized: grows to the largest collection once per replayer
	r.origs = slices.Grow(r.origs, len(known))
	//freelunch:orderok origin order only pairs edge endpoints, and the error reports the smallest offender
	for origin, ps := range known {
		if int(origin) < 0 || int(origin) >= c.N {
			if !forged || origin < badOrigin {
				badOrigin, forged = origin, true
			}
			continue
		}
		r.known[origin] = int32(len(r.origs))
		//freelunch:allocok amortized: truncated and reused across replays
		r.origs = append(r.origs, knownOrigin{id: origin, at: int32(nports), ports: ps})
		nports += len(ps)
	}
	if forged {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: node %d heard of origin %d outside [0, %d)", v, badOrigin, c.N)
	}
	if bad, claimed := r.pair(nports); claimed {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: edge %d claimed by %d nodes", bad, r.recs[r.owner(bad)].n)
	}

	// Level-synchronous BFS from v over two-owner edges, expanding levels
	// 0..t-1, so the queue ends as exactly the ball; mark holds distances.
	//freelunch:allocok amortized: truncated and reused across replays
	r.nodes = append(r.nodes[:0], v)
	r.mark[v] = 0
	for d, lo := 0, 0; d < t && lo < len(r.nodes); d++ {
		for hi := len(r.nodes); lo < hi; lo++ {
			u := r.nodes[lo]
			_, recs := r.origin(u)
			for _, k := range recs {
				o := &r.recs[k]
				if o.n != 2 {
					continue
				}
				w := o.a
				if w == u {
					w = o.b
				}
				if r.mark[w] < 0 {
					r.mark[w] = int32(d + 1)
					//freelunch:allocok amortized: truncated and reused across replays
					r.nodes = append(r.nodes, w)
				}
			}
		}
	}
	slices.Sort(r.nodes)
	ball := len(r.nodes)
	//freelunch:allocok amortized: truncated and reused across replays
	r.idmap = append(r.idmap[:0], r.nodes...)
	r.hor = r.hor[:0]
	for i, u := range r.nodes {
		//freelunch:allocok amortized: truncated and reused across replays
		r.hor = append(r.hor, int32(t+1)-r.mark[u])
		r.mark[u] = int32(i)
	}

	// Emit every edge with a ball endpoint once: an edge between two ball
	// nodes from its lower slot, any other from its one ball node.
	synth := graph.NodeID(c.N) // synthetic phantom identities start beyond all real IDs
	r.pends = r.pends[:0]
	for a := 0; a < ball; a++ {
		u := r.nodes[a]
		ports, recs := r.origin(u)
		for i, k := range recs {
			e := ports[i]
			own := &r.recs[k]
			b := int32(len(r.idmap))
			if own.n == 2 {
				far := own.a
				if far == u {
					far = own.b
				}
				switch m := r.mark[far]; {
				case m == int32(a):
					//freelunch:allocok error path: formats once and ends the replay
					return fmt.Errorf("simulate: reconstructed self-loop on edge %d", e)
				case m >= 0 && m < int32(a):
					continue // a ball edge, emitted from its lower slot
				case m >= 0:
					b = m
				default:
					r.mark[far] = b
					//freelunch:allocok amortized: truncated and reused across replays
					r.nodes = append(r.nodes, far)
					//freelunch:allocok amortized: truncated and reused across replays
					r.idmap = append(r.idmap, far)
					//freelunch:allocok amortized: truncated and reused across replays
					r.hor = append(r.hor, 0)
				}
			} else {
				//freelunch:allocok amortized: truncated and reused across replays
				r.idmap = append(r.idmap, synth)
				//freelunch:allocok amortized: truncated and reused across replays
				r.hor = append(r.hor, r.hor[a]-1)
				synth++
			}
			//freelunch:allocok amortized: truncated and reused across replays
			r.pends = append(r.pends, pendEdge{e: e, a: int32(a), b: b})
		}
	}

	slices.SortFunc(r.pends, func(p, q pendEdge) int { return cmp.Compare(p.e, q.e) })
	r.rg.Reset(len(r.idmap))
	for _, p := range r.pends {
		if err := r.rg.AddEdgeWithID(p.e, graph.NodeID(p.a), graph.NodeID(p.b)); err != nil {
			//freelunch:allocok error path: formats once and ends the replay
			return fmt.Errorf("simulate: rebuilding ball of %d: %w", v, err)
		}
	}
	return nil
}

// origin returns known origin u's port list and the recs index of each of
// its ports; both are empty for an origin the replayed node never heard of
// (only the replayed node itself can be one).
//
//freelunch:noalloc
func (r *replayer) origin(u graph.NodeID) ([]graph.EdgeID, []int32) {
	k := r.known[u]
	if k < 0 {
		return nil, nil
	}
	o := &r.origs[k]
	return o.ports, r.slots[o.at : int(o.at)+len(o.ports)]
}

// pair records the owners of every port of every known origin in recs,
// through the owners table, and each port's recs index in slots. It reports
// the smallest edge with three or more owners, if any. The table is sized
// for ports/2 distinct edges, which a complete collection names twice each,
// at load 1/2, and grows on demand past that load.
//
//freelunch:noalloc
func (r *replayer) pair(ports int) (bad graph.EdgeID, claimed bool) {
	if r.epoch++; r.epoch == 0 {
		clear(r.owners) // the epoch wrapped: no stale stamp may look current
		r.epoch = 1
	}
	if len(r.owners) < ports {
		r.grow(ports)
	}
	// Sized up front: slots exactly, recs for the distinct edges of a
	// complete collection, so neither regrows through doubling.
	//freelunch:allocok amortized: grows to the largest collection once per replayer
	r.slots = slices.Grow(r.slots[:0], ports)
	//freelunch:allocok amortized: grows to the largest collection once per replayer
	r.recs = slices.Grow(r.recs[:0], ports/2)
	for _, o := range r.origs {
		for _, e := range o.ports {
			k := r.owner(e)
			own := &r.recs[k]
			switch own.n {
			case 0:
				own.a = o.id
			case 1:
				own.b = o.id
			}
			if own.n++; own.n == 3 && (!claimed || e < bad) {
				bad, claimed = e, true
			}
			//freelunch:allocok amortized: truncated and reused across replays
			r.slots = append(r.slots, k)
		}
	}
	return bad, claimed
}

// fib is 2^64 divided by the golden ratio: multiplying by it and keeping
// the top bits spreads consecutive edge IDs over the owners table.
const fib = 0x9e3779b97f4a7c15

// owner returns e's index in recs, inserting a fresh record for an edge the
// current replay has not seen.
//
//freelunch:noalloc
func (r *replayer) owner(e graph.EdgeID) int32 {
	mask := len(r.owners) - 1
	for i := int(uint64(e) * fib >> r.shift); ; i = (i + 1) & mask {
		s := &r.owners[i]
		if s.epoch != r.epoch {
			k := int32(len(r.recs))
			*s = ownerSlot{e: e, epoch: r.epoch, rec: k}
			//freelunch:allocok amortized: truncated and reused across replays
			r.recs = append(r.recs, edgeOwners{})
			if 2*len(r.recs) > len(r.owners) {
				r.grow(2 * len(r.owners))
			}
			return k
		}
		if s.e == e {
			return s.rec
		}
	}
}

// grow replaces the owners table by one of at least size slots (a power of
// two, at least 16) holding the current replay's entries.
//
//freelunch:noalloc
func (r *replayer) grow(size int) {
	b := bits.Len(uint(max(size, 16) - 1))
	old := r.owners
	//freelunch:allocok amortized: the table only grows, to the largest collection once per replayer
	r.owners = make([]ownerSlot, 1<<b)
	r.shift = uint8(64 - b)
	mask := len(r.owners) - 1
	for _, s := range old {
		if s.epoch != r.epoch {
			continue
		}
		i := int(uint64(s.e) * fib >> r.shift)
		for r.owners[i].epoch == r.epoch {
			i = (i + 1) & mask
		}
		r.owners[i] = s
	}
}

// unmark resets every known and mark entry the current replay touched and
// drops its references to the collection's port lists.
//
//freelunch:noalloc
func (r *replayer) unmark() {
	for _, u := range r.nodes {
		r.mark[u] = -1
	}
	r.nodes = r.nodes[:0]
	for _, o := range r.origs {
		r.known[o.id] = -1
	}
	clear(r.origs)
	r.origs = r.origs[:0]
}

// Direct runs the algorithm directly on g — the ground truth and the
// Θ(t·m)-message baseline. For a spanner.Construction's Spec it is the
// construction's direct distributed run.
func Direct(ctx context.Context, g *graph.Graph, spec algorithms.Spec, seed uint64, cfg local.Config) ([]any, local.Result, error) {
	if g == nil {
		return nil, local.Result{}, fmt.Errorf("simulate: nil graph")
	}
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
