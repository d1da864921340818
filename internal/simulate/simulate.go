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
// lists share an edge ID. The collection is the broadcast's own record: the
// one payload table every node broadcast (Collection.Table, row u being u's
// port list) and the set of origins each node heard (Collection.Ports,
// broadcast.Result.Known as the flood or gossip left it). Every collection
// is built by one constructor from these two.
//
// Replay runs only the light cone of the replayed node v. After t rounds,
// v's output depends on a node at distance d only through that node's
// steps in rounds 0..t-d (the t-ball view of LOCAL), so each node of the
// replay graph gets the step horizon t+1-d (local.Config.Horizon): nodes at
// the rim step once, and phantoms beyond the ball are never built. The
// replayer's rebuild doc comment proves the rule exact.
//
// Replay is the end-to-end hot path. Which two table rows share an edge ID
// is the same for every ball, so a collection pairs its edge owners once,
// on its first replay, and every replay after it reads that pairing; the
// pairing is also where a corrupt table is caught. A replay then only marks
// the replayed node's heard origins and walks the pairing from it, into
// buffers its replayer keeps (NodeID-indexed marks, the ball and phantom
// lists, one graph reset in place and filled in edge-ID order), and runs
// the ball on one local.Runner. ReplayAllN keeps one replayer per worker,
// so a sweep's steady-state replay allocates little beyond the protocol
// instances; Replay is a single replay on a fresh replayer.
//
// ReplayAllN shares one run among the nodes whose heard sets are closed. v's
// heard set is closed when its component of the edge-owner pairing has no
// dangling port (an edge named by one row only) and v heard exactly that
// component. Then the collection reconstructs the whole component with no
// phantom: every port of every member pairs with a member v heard. A
// t-round algorithm's output at a node is a function of its t-hop view,
// which lies inside its component, so one run of the component with every
// node stepping the whole run gives every member the output its light-cone
// replay gives. Two closed members of one component heard the same set, the
// component, and every payload is a row of the one shared Table, so they
// hold equal information: each could have run the same computation from its
// own collection. A sweep therefore runs each closed component once and
// hands every closed member its own output; every other node replays its
// light cone. Replay is local computation, outside every bill, so sharing
// changes no bill.
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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/algorithms"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/sched"
)

// Collection is the outcome of the t-local broadcast of port lists: the
// payload table every node broadcast and, for every node, the origins it
// heard. It is read-only once replayed: the first replay pairs the table's
// edge owners for every later one.
type Collection struct {
	// N is the size of the original network (for replays): len(Table).
	N int
	// Seed is the run seed shared by the original network and all replays.
	Seed uint64
	// Table[u] is u's incident edge IDs in the original graph, ascending:
	// the payload table the broadcast carried, one row per origin.
	Table [][]graph.EdgeID
	// Ports[v] is the set of origins v heard, itself included: the
	// broadcast result's Known, held as is. v knows Table[u] for every u in
	// it.
	Ports []map[graph.NodeID]struct{}
	// Run is the cost of the collection phase.
	Run local.Result

	paired sync.Once
	peers  [][]graph.NodeID // see pair
	comp   []int32          // comp[u] is u's component of the pairing; see pair
	comps  []component      // indexed by component
	bad    error
}

// component is one connected component of a collection's edge-owner
// pairing: its node count, and whether some member's port has no other
// owner (peer -1), which keeps every heard set that covers it open.
type component struct {
	size int32
	open bool
}

// newCollection is the one constructor of a Collection: the payload table
// the broadcast carried and every node's heard set.
func newCollection(table [][]graph.EdgeID, heard []map[graph.NodeID]struct{}, seed uint64, run local.Result) *Collection {
	return &Collection{N: len(table), Seed: seed, Table: table, Ports: heard, Run: run}
}

// portsOf extracts every node's (sorted) incident edge list from g: the
// payload table M every collection broadcasts.
func portsOf(g *graph.Graph) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, g.NumNodes())
	for v := range out {
		inc := g.Incident(graph.NodeID(v))
		edges := make([]graph.EdgeID, len(inc))
		for i, h := range inc {
			edges[i] = h.Edge
		}
		slices.Sort(edges)
		out[v] = edges
	}
	return out
}

// Collect floods every node's original-graph port list over host for the
// given number of rounds. host must span the same node set as g (it is g
// itself for the direct baseline, or a spanner of g for the schemes); the
// broadcast rejects a host whose node count differs from the table's.
// Cancelling ctx aborts the flood mid-round.
func Collect(ctx context.Context, g, host *graph.Graph, rounds int, seed uint64, cfg local.Config) (*Collection, error) {
	cfg.Seed = seed
	table := portsOf(g)
	fl, err := broadcast.Flood(ctx, host, table, nil, rounds, cfg)
	if err != nil {
		return nil, err
	}
	return newCollection(table, fl.Known, seed, fl.Run), nil
}

// CollectBudget is Collect under a CONGEST-style bandwidth cap: every
// directed host edge carries at most bw words per round, so oversized port
// lists are split across consecutive rounds (see broadcast.FloodBudget). The
// returned collection holds exactly the knowledge Collect would have
// gathered; only the round schedule (and hence Run.Rounds) dilates.
func CollectBudget(ctx context.Context, g, host *graph.Graph, rounds, bw int, seed uint64, cfg local.Config) (*Collection, error) {
	cfg.Seed = seed
	table := portsOf(g)
	fl, err := broadcast.FloodBudget(ctx, host, table, rounds, bw, cfg)
	if err != nil {
		return nil, err
	}
	return newCollection(table, fl.Known, seed, fl.Run), nil
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
	table := portsOf(g)
	gos, cover, err := broadcast.Gossip(ctx, g, table, broadcast.NewBallIndex(g, t), g.NumNodes(), maxRounds, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	return newCollection(table, gos.Known, seed, gos.Run), cover, gos.Run.Messages, nil
}

// Replay reconstructs node v's exact t-ball from the collection and
// re-executes the algorithm on it, returning v's output — the value it
// would have produced in a direct t-round run on the original graph. It is
// one light-cone replay on a fresh replayer, whatever v heard: the oracle
// for ReplayAllN's shared runs.
func (c *Collection) Replay(spec algorithms.Spec, v graph.NodeID) (any, error) {
	return new(replayer).replay(c, spec, v)
}

// ReplayAllN replays every node and returns the full output vector, fanning
// the independent per-node re-executions out over a worker pool. The
// concurrency knob follows the facade convention: 0 sequential, w > 0 that
// many workers, w < 0 GOMAXPROCS. Each worker keeps one replayer for all of
// its nodes. Output slots are indexed by node, so the result is
// byte-identical at every concurrency level; cancelling ctx aborts between
// node replays and inside a shared run.
//
// A node whose heard set is closed (see the package doc) takes its output
// from its component's shared run: the first closed member to arrive
// rebuilds the component and runs it once with every node stepping the
// whole run, and every closed member reads its own slot. The rule is exact.
// A closed heard set is v's whole component, so the run holds every
// member's t-hop view in full; closed members of one component heard equal
// sets, so each takes only what its own collection determines. Every other
// node, and every member of a shared run that fails, replays its light
// cone, so a sweep fails with the same lowest node's error as per-node
// Replay. Replay is unbilled: sharing moves no bill.
func (c *Collection) ReplayAllN(ctx context.Context, spec algorithms.Spec, concurrency int) ([]any, error) {
	out, _, err := c.replayAll(ctx, spec, concurrency)
	return out, err
}

// sharedRun is one closed component's full-horizon run within a sweep,
// made by the first closed member to reach it.
type sharedRun struct {
	once sync.Once
	ids  []graph.NodeID // the component, ascending: the run's identity per slot
	outs []any          // outs[i] is the output of ids[i]
	err  error
}

// replayAll is ReplayAllN that also reports how many nodes took their
// output from a shared run.
func (c *Collection) replayAll(ctx context.Context, spec algorithms.Spec, concurrency int) ([]any, int, error) {
	if concurrency < 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	// pair labels the components closed reads. A table it rejects gets
	// none, so every node replays its light cone, which reports the error.
	_, _ = c.pair()
	runs := make([]sharedRun, len(c.comps))
	var shared atomic.Int64
	// ParallelFor's worker indices lie in [0, max(concurrency, 1)).
	reps := make([]replayer, max(concurrency, 1))
	out := make([]any, len(c.Ports))
	err := sched.ParallelFor(ctx, len(c.Ports), concurrency, func(w, v int) error {
		if k, ok := c.closed(v); ok {
			s := &runs[k]
			s.once.Do(func() { s.ids, s.outs, s.err = reps[w].replayShared(ctx, c, spec, graph.NodeID(v)) })
			if s.err == nil {
				i, _ := slices.BinarySearch(s.ids, graph.NodeID(v))
				out[v] = s.outs[i]
				shared.Add(1)
				return nil
			}
		}
		o, err := reps[w].replay(c, spec, graph.NodeID(v))
		if err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
		out[v] = o
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, int(shared.Load()), nil
}

// closed reports whether v's heard set is closed, and v's component: the
// component has no dangling port, v heard as many origins as it has
// members, and every origin v heard is one of them. A heard set is a set,
// so the three together make it the component. The count test rejects an
// open heard set of any other size in O(1); only a set of the component's
// size is walked. Every node of a collection whose table pair rejects is
// open.
//
//freelunch:noalloc
func (c *Collection) closed(v int) (int32, bool) {
	if v >= len(c.comp) {
		return 0, false
	}
	k := c.comp[v]
	heard := c.Ports[v]
	if c.comps[k].open || len(heard) != int(c.comps[k].size) {
		return k, false
	}
	//freelunch:orderok a membership test: every order gives the same answer
	for u := range heard {
		if int(u) < 0 || int(u) >= len(c.comp) || c.comp[u] != k {
			return k, false
		}
	}
	return k, true
}

// pair returns, for every table port, the port's other owner: peers[u][i]
// is the origin w != u whose row also names edge Table[u][i], or -1 when no
// other row names it. Unique edge IDs make this the adjacency of the whole
// network, so it is derived once per collection, on its first replay, and
// shared read-only by every replay after it. A corrupt table fails every
// replay: an edge named by more than two rows, or twice by one row (a
// self-loop). The error names the smallest such edge.
//
// pair also labels the connected components of that adjacency (c.comp and
// c.comps, numbered in order of their smallest member) for ReplayAllN's
// closure test. A rejected table gets no components.
func (c *Collection) pair() ([][]graph.NodeID, error) {
	c.paired.Do(func() {
		type port struct {
			e    graph.EdgeID
			u, i int32
		}
		total := 0
		for _, row := range c.Table {
			total += len(row)
		}
		ports := make([]port, 0, total)
		for u, row := range c.Table {
			for i, e := range row {
				ports = append(ports, port{e: e, u: int32(u), i: int32(i)})
			}
		}
		slices.SortFunc(ports, func(p, q port) int { return cmp.Compare(p.e, q.e) })
		flat := make([]graph.NodeID, len(ports))
		c.peers = make([][]graph.NodeID, len(c.Table))
		for u, row := range c.Table {
			c.peers[u], flat = flat[:len(row):len(row)], flat[len(row):]
		}
		for lo, hi := 0, 0; lo < len(ports); lo = hi {
			hi = lo + 1
			for hi < len(ports) && ports[hi].e == ports[lo].e {
				hi++
			}
			a, b := ports[lo], ports[hi-1]
			switch {
			case hi-lo > 2:
				c.bad = fmt.Errorf("simulate: edge %d claimed by %d nodes", a.e, hi-lo)
				return
			case hi-lo == 1:
				c.peers[a.u][a.i] = -1
			case a.u == b.u:
				c.bad = fmt.Errorf("simulate: reconstructed self-loop on edge %d", a.e)
				return
			default:
				c.peers[a.u][a.i], c.peers[b.u][b.i] = graph.NodeID(b.u), graph.NodeID(a.u)
			}
		}
		c.comp = make([]int32, len(c.Table))
		for u := range c.comp {
			c.comp[u] = -1
		}
		queue := make([]graph.NodeID, 0, len(c.Table))
		for s := range c.comp {
			if c.comp[s] >= 0 {
				continue
			}
			k := int32(len(c.comps))
			open := false
			c.comp[s] = k
			queue = append(queue[:0], graph.NodeID(s))
			for i := 0; i < len(queue); i++ {
				for _, w := range c.peers[queue[i]] {
					switch {
					case w < 0:
						open = true
					case c.comp[w] < 0:
						c.comp[w] = k
						queue = append(queue, w)
					}
				}
			}
			c.comps = append(c.comps, component{size: int32(len(queue)), open: open})
		}
	})
	return c.peers, c.bad
}

// replayer holds one worker's scratch for ball replays. Every buffer is
// truncated per replay and regrown only when a ball outgrows it, and the
// replay graph and the engine are rebuilt in place (graph.Reset,
// local.Runner), so a worker's steady-state replay allocates little beyond
// the protocol instances themselves. A replayer serves any collection; it
// is not safe for concurrent use.
type replayer struct {
	// heard and mark are NodeID-indexed. heard[u] says whether the replayed
	// node heard of u. mark[u] is -1 for a node the current replay has not
	// reached, u's BFS distance from v while the BFS runs, then its
	// replay-graph slot. Both are reset before each replay returns, error
	// returns included: heard through the replayed node's heard set, mark
	// through nodes, which lists every reached node.
	heard []bool
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

// replayShared rebuilds v's closed component from c and runs spec on it
// with every node stepping the whole run, returning the component's
// identities ascending and each one's output. rebuild to a depth of the
// component's size reaches every member, and a closed heard set leaves no
// phantom, so the replay graph is the component and its slots are the
// members in order. Unlike a light-cone replay, the run fails unless every
// node halts.
func (r *replayer) replayShared(ctx context.Context, c *Collection, spec algorithms.Spec, v graph.NodeID) ([]graph.NodeID, []any, error) {
	if err := r.rebuild(c, len(c.Ports[v]), v); err != nil {
		return nil, nil, err
	}
	protos := make([]local.Protocol, 0, len(r.idmap))
	run, err := r.run.Run(ctx, &r.rg, func(id graph.NodeID) local.Protocol {
		p := spec.New(id)
		protos = append(protos, p)
		return p
	}, local.Config{
		Seed:      c.Seed,
		MaxRounds: spec.T + 1,
		IDMap:     r.idmap,
		NOverride: c.N,
		NoLedger:  true,
	})
	if err != nil {
		return nil, nil, err
	}
	if !run.Halted {
		return nil, nil, fmt.Errorf("simulate: shared replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	outs := make([]any, len(protos))
	for i, p := range protos {
		outs[i] = spec.Output(p)
	}
	return slices.Clone(r.idmap), outs, nil
}

// rebuild reconstructs v's t-ball from c into r.rg, r.idmap and r.hor.
//
// Adjacency among heard origins comes from shared edge IDs: a port of a
// heard origin u joins u to the other owner w of its edge (c.pair) only if
// v heard of w too. The ball is every heard origin within distance t of v;
// for targets within t these distances equal original-graph distances,
// because every vertex of a shortest path of length <= t lies in
// B_{G,t}(v), which the collection covers. Ball members take slots in
// ascending ID order.
//
// Edges leaving the ball get their far endpoint as a "phantom" node — the
// heard origin beyond distance t when v heard of it, or a synthetic node
// otherwise, with identities counting up from c.N. Phantoms take slots in
// discovery order (ball node ascending, port order) and exist so that
// boundary nodes of the ball see their true degree. Edges are inserted in
// ascending ID order, so the replay graph's ID index only ever appends; the
// engine orders ports by edge ID, so insertion order changes no execution.
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
// heard-origin phantom hangs only off level t (anything nearer would be in
// the ball), so it sits at t+1 and gets horizon 0: it is never built. A
// synthetic phantom has one edge, to its ball node at distance d, so it
// gets t-d. That is 0 on a complete collection, but an incomplete one (an
// adversary dropped messages) can put a synthetic phantom at distance
// d+1 <= t, and there it must step.
//
// A corrupt collection fails with an error: a heard origin outside
// [0, c.N) (which would alias a synthetic phantom), or a table c.pair
// rejects.
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
		r.heard = append(r.heard, false)
	}
	heard := c.Ports[v]
	defer r.unmark(heard)
	var (
		badOrigin graph.NodeID
		forged    bool // some origin lies outside [0, c.N); badOrigin is the smallest
	)
	//freelunch:orderok marking a set; the error reports the smallest offender
	for origin := range heard {
		if int(origin) < 0 || int(origin) >= c.N {
			if !forged || origin < badOrigin {
				badOrigin, forged = origin, true
			}
			continue
		}
		r.heard[origin] = true
	}
	if forged {
		//freelunch:allocok error path: formats once and ends the replay
		return fmt.Errorf("simulate: node %d heard of origin %d outside [0, %d)", v, badOrigin, c.N)
	}
	peers, err := c.pair()
	if err != nil {
		return err
	}

	// Level-synchronous BFS from v over edges between heard origins,
	// expanding levels 0..t-1, so the queue ends as exactly the ball; mark
	// holds distances.
	//freelunch:allocok amortized: truncated and reused across replays
	r.nodes = append(r.nodes[:0], v)
	r.mark[v] = 0
	for d, lo := 0, 0; d < t && lo < len(r.nodes); d++ {
		for hi := len(r.nodes); lo < hi; lo++ {
			u := r.nodes[lo]
			if !r.heard[u] {
				continue // only v itself can be unheard: it knows no ports
			}
			for _, w := range peers[u] {
				if w >= 0 && r.heard[w] && r.mark[w] < 0 {
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
		if !r.heard[u] {
			continue
		}
		for i, e := range c.Table[u] {
			b := int32(len(r.idmap))
			if far := peers[u][i]; far >= 0 && r.heard[far] {
				switch m := r.mark[far]; {
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

// unmark resets every heard and mark entry the current replay touched.
//
//freelunch:noalloc
func (r *replayer) unmark(heard map[graph.NodeID]struct{}) {
	for _, u := range r.nodes {
		r.mark[u] = -1
	}
	r.nodes = r.nodes[:0]
	for u := range heard {
		if int(u) >= 0 && int(u) < len(r.heard) {
			r.heard[u] = false
		}
	}
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
