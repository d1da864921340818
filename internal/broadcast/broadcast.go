// Package broadcast implements the t-local broadcast primitive of the
// paper's Section 6 — every node v delivers its message M_v to all nodes
// within distance t — in the three forms the experiments compare:
//
//   - Flood on the communication graph G itself: the direct baseline,
//     Θ(t·m) messages;
//   - Flood on a spanner H with stretch α for α·t rounds: the paper's
//     scheme, Θ(α·t·|S|) messages, reaching a superset of each t-ball;
//   - push–pull Gossip: the [Censor-Hillel et al.; Haeupler] family's
//     message profile (Θ(n) messages per round), whose round count we
//     measure empirically — it blows up with the graph's conductance, which
//     is exactly the behaviour the paper's introduction contrasts against.
//
// FloodBudget is Flood under a CONGEST-style word cap per edge and round.
//
// Every primitive shares one rumor model. M_v is node v's port list, entry
// v of a payload table [][]graph.EdgeID; a rumor is the bare origin ID v,
// charged 1 + len(M_v) words wherever it travels. Every receiver reads M_v
// from the same table, so a node records only whom it heard: its Known, a
// set of origins, is both its dedup set and its result. A Result's Known,
// together with the payload table the run was given, is the collection
// simulate replays from, and its Run is the bill: a gossip run with a cover
// target ends at the barrier of its cover round, so its Run and Known cover
// exactly rounds 0..cover.
package broadcast

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/local"
)

// Result is the outcome of a broadcast run.
type Result struct {
	// Known is, per node, the set of origins it heard, itself included;
	// the payload of origin u is entry u of the run's payload table.
	Known []map[graph.NodeID]struct{}
	// Covered counts the nodes that had heard every member of their ball
	// when the run ended. Only Gossip with a ball index sets it.
	Covered int
	// Run carries the LOCAL cost metrics.
	Run local.Result
}

// batch is a set of rumors in transit. A rumor is a bare origin ID: its
// content M_o is entry o of the run's payload table, which every receiver
// reads from the same table, and it is charged 1 + len(M_o) words — one for
// the origin plus the port list it stands for (local.Sizer). Batches travel
// as pointers: boxing a pointer into the payload interface is
// allocation-free.
type batch struct {
	origins  []graph.NodeID
	payloads [][]graph.EdgeID
}

// PayloadUnits implements local.Sizer.
func (b *batch) PayloadUnits() int64 {
	var u int64
	for _, o := range b.origins {
		u += rumorWords(b.payloads, o)
	}
	return u
}

// rumorWords is the size of origin o's rumor: one word for the origin plus
// its port list.
func rumorWords(payloads [][]graph.EdgeID, o graph.NodeID) int64 {
	return 1 + int64(len(payloads[o]))
}

// validate checks the arguments every broadcast entry point shares.
func validate(host *graph.Graph, payloads [][]graph.EdgeID, rounds int) error {
	if host == nil {
		return fmt.Errorf("broadcast: nil host graph")
	}
	if len(payloads) != host.NumNodes() {
		return fmt.Errorf("broadcast: %d payloads for %d nodes", len(payloads), host.NumNodes())
	}
	if rounds < 0 {
		return fmt.Errorf("broadcast: negative round budget")
	}
	return nil
}

// floodNode floods newly learned rumors to all neighbors each round. Its one
// set, known, is both the dedup set and the result. The outgoing batch is
// buffered by round parity: a batch sent in round r is read by receivers in
// round r+1 — or, under an adversary with delivery delays, as late as round
// r+1+B — so the buffer ring holds B+2 batches and the buffer of parity p is
// free for rewriting when p comes around again (after the longest possible
// in-flight lifetime has passed). The flawless network keeps the historical
// two buffers.
type floodNode struct {
	t     int
	seed  bool // whether this node injects its own rumor
	known map[graph.NodeID]struct{}
	fresh []batch
}

func (p *floodNode) Step(env *local.Env, round int, inbox []local.Message) {
	cur := &p.fresh[round%len(p.fresh)]
	cur.origins = cur.origins[:0]
	if round == 0 {
		p.known = map[graph.NodeID]struct{}{env.ID(): {}}
		if p.seed {
			cur.origins = append(cur.origins, env.ID())
		}
	}
	for _, m := range inbox {
		for _, o := range m.Payload.(*batch).origins {
			if _, ok := p.known[o]; !ok {
				p.known[o] = struct{}{}
				cur.origins = append(cur.origins, o)
			}
		}
	}
	if round >= p.t {
		env.Halt()
		return
	}
	if len(cur.origins) > 0 {
		for _, pt := range env.Ports() {
			env.Send(pt.Edge, cur)
		}
	}
}

// Flood floods the rumors of the seeding nodes over host for exactly rounds
// rounds: node v seeds iff seeds[v] (nil seeds means every node seeds).
// Every node forwards everything it hears and knows its own payload, so
// after the run Known[v] holds v itself plus every seeding node within
// host-distance rounds of v. The hybrid scheme floods a seed subset to
// collect only the residue its gossip stage left uncovered. Cancelling ctx
// aborts the underlying run.
func Flood(ctx context.Context, host *graph.Graph, payloads [][]graph.EdgeID, seeds []bool, rounds int, cfg local.Config) (*Result, error) {
	if err := validate(host, payloads, rounds); err != nil {
		return nil, err
	}
	if seeds != nil && len(seeds) != host.NumNodes() {
		return nil, fmt.Errorf("broadcast: %d seed flags for %d nodes", len(seeds), host.NumNodes())
	}
	nodes := make([]*floodNode, host.NumNodes())
	rounds = clampSchedule(&cfg, rounds)
	parities := 2 + maxDelay(cfg)
	run, err := local.RunCtx(ctx, host, func(v graph.NodeID) local.Protocol {
		nd := &floodNode{
			t:     rounds,
			seed:  seeds == nil || seeds[v],
			fresh: make([]batch, parities),
		}
		for i := range nd.fresh {
			nd.fresh[i].payloads = payloads
		}
		nodes[v] = nd
		return nd
	}, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Run: run, Known: make([]map[graph.NodeID]struct{}, len(nodes))}
	for v, nd := range nodes {
		res.Known[v] = nd.known
	}
	return res, nil
}

// maxDelay is the configured adversary's delivery-delay bound (0 without an
// adversary): the extra payload-buffer lifetime the broadcast protocols must
// tolerate before reusing an in-flight envelope.
func maxDelay(cfg local.Config) int {
	if cfg.Adversary != nil {
		return cfg.Adversary.MaxDelay()
	}
	return 0
}

// clampSchedule reconciles a caller-provided round budget (cfg.MaxRounds)
// with a broadcast protocol's own schedule length: the effective schedule is
// the smaller of the two, and the engine bound is set to schedule+1 — the
// final round, in which nodes process their last inbox and halt without
// sending, rides on top of the schedule. This makes the interaction between
// the engine-level budget and the broadcast-internal schedule explicit
// (historically the protocols silently overwrote the caller's budget).
// Returns the effective schedule length.
func clampSchedule(cfg *local.Config, schedule int) int {
	if cfg.MaxRounds > 0 && cfg.MaxRounds < schedule {
		schedule = cfg.MaxRounds
	}
	cfg.MaxRounds = schedule + 1
	return schedule
}

// arrivalTracker centrally aggregates first-arrival events from all gossip
// nodes as they happen. With a BallIndex attached it maintains, per node,
// how many of that node's distance-t ball members are still unheard, and
// counts the nodes whose balls are complete — the early-stop condition
// checked after each round's barrier.
//
// Race discipline: covered is atomic; left[v] is written only from node v's
// Step (each node is stepped by exactly one goroutine per round), and the
// coordinating goroutine reads covered only after the round's barrier.
type arrivalTracker struct {
	covered atomic.Int64
	ball    *BallIndex
	left    []int
}

func newArrivalTracker(n int, bi *BallIndex) *arrivalTracker {
	tr := &arrivalTracker{ball: bi}
	if bi != nil {
		tr.left = make([]int, n)
		for v := range tr.left {
			tr.left[v] = bi.Size(graph.NodeID(v))
		}
	}
	return tr
}

// learn records that node v first heard origin u (including its own rumor at
// round 0).
//
//freelunch:noalloc
func (tr *arrivalTracker) learn(v, u graph.NodeID) {
	if tr.ball == nil || !tr.ball.Contains(v, u) {
		return
	}
	tr.left[v]--
	if tr.left[v] == 0 {
		tr.covered.Add(1)
	}
}

// gossipNode implements synchronous push–pull gossip: each round it pushes
// its full rumor set over one uniformly random incident edge and answers
// last round's pushes with its full set. Its one set, known, is both the
// dedup set and the result, as in floodNode. The rumor snapshot
// and the push/pull envelopes are buffered by round parity — payloads sent
// in round r are read in round r+1 (or as late as r+1+B under an adversary
// with delay bound B, hence B+2 parities in the ring; two on the flawless
// network, as historically) and never later, so parity-p buffers are free
// for reuse when parity p recurs — and the envelopes travel as pointers,
// whose interface boxing is allocation-free. A steady-state gossip round
// therefore allocates only when the rumor set (and with it the snapshot
// buffer) grows.
type gossipNode struct {
	t       int
	track   *arrivalTracker
	known   map[graph.NodeID]struct{}
	replyTo []graph.EdgeID
	push    []gossipPush
	pull    []gossipPull
}

type gossipPush struct{ batch }
type gossipPull struct{ batch }

func (p *gossipNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.known = map[graph.NodeID]struct{}{env.ID(): {}}
		p.track.learn(env.ID(), env.ID())
	}
	for _, m := range inbox {
		var in *batch
		switch msg := m.Payload.(type) {
		case *gossipPush:
			in = &msg.batch
			p.replyTo = append(p.replyTo, m.Edge)
		case *gossipPull:
			in = &msg.batch
		}
		for _, o := range in.origins {
			if _, ok := p.known[o]; !ok {
				p.known[o] = struct{}{}
				p.track.learn(env.ID(), o)
			}
		}
	}
	if round >= p.t {
		env.Halt()
		return
	}
	parity := round % len(p.push)
	all := p.snapshot(parity)
	if len(p.replyTo) > 0 {
		pull := &p.pull[parity]
		pull.origins = all
		for _, e := range p.replyTo {
			env.Send(e, pull)
		}
		p.replyTo = p.replyTo[:0]
	}
	if env.Degree() > 0 {
		pt := env.Ports()[env.Rand().Intn(env.Degree())]
		push := &p.push[parity]
		push.origins = all
		env.Send(pt.Edge, push)
	}
}

// snapshot rebuilds the node's full rumor set into the parity's reusable
// buffer (the pull envelope of the same parity shares it; both are in
// flight for exactly one round).
func (p *gossipNode) snapshot(parity int) []graph.NodeID {
	out := p.pull[parity].origins[:0]
	//freelunch:orderok receivers fold origins into their known map (a set); emission order is never observed
	for o := range p.known {
		out = append(out, o)
	}
	p.pull[parity].origins = out
	return out
}

// Gossip runs push–pull gossip on host for at most rounds rounds (message
// complexity at most 2n per round by construction) and returns the run with
// its cover round. Cancelling ctx aborts the underlying run.
//
// With bi set, the run stops centrally at the barrier of its cover round:
// the first round after which at least target nodes have heard the rumor of
// every member of their distance-t ball (per bi); target = host.NumNodes()
// waits for every ball. The cover round is -1 if the schedule ended first.
// The run itself is the bill: Run covers rounds 0..cover, and Known holds
// exactly what was delivered by then. Messages still in flight under an
// adversary's delays were billed when sent. The executed prefix is
// bit-identical to the full schedule's — per-node RNG streams depend only on
// (seed, id), and the stop check runs after the round's barrier — so the
// cover round and its bill are the fixed schedule's too.
//
// With bi nil, the whole fixed schedule runs and the cover round is -1; it
// is the reference the early-stop tests compare against.
func Gossip(ctx context.Context, host *graph.Graph, payloads [][]graph.EdgeID, bi *BallIndex, target, rounds int, cfg local.Config) (*Result, int, error) {
	if err := validate(host, payloads, rounds); err != nil {
		return nil, 0, err
	}
	n := host.NumNodes()
	if bi != nil && bi.Nodes() != n {
		return nil, 0, fmt.Errorf("broadcast: ball index spans %d nodes, host has %d", bi.Nodes(), n)
	}
	if bi != nil && (target < 0 || target > n) {
		return nil, 0, fmt.Errorf("broadcast: cover target %d outside [0,%d]", target, n)
	}
	nodes := make([]*gossipNode, n)
	rounds = clampSchedule(&cfg, rounds)
	parities := 2 + maxDelay(cfg)
	track := newArrivalTracker(n, bi)
	cover := -1
	if bi != nil {
		cfg.StopWhen = func(round int, _ int64) bool {
			if track.covered.Load() < int64(target) {
				return false
			}
			cover = round
			return true
		}
	}
	run, err := local.RunCtx(ctx, host, func(v graph.NodeID) local.Protocol {
		nd := &gossipNode{
			t:     rounds,
			track: track,
			push:  make([]gossipPush, parities),
			pull:  make([]gossipPull, parities),
		}
		for i := range nd.push {
			nd.push[i].payloads, nd.pull[i].payloads = payloads, payloads
		}
		nodes[v] = nd
		return nd
	}, cfg)
	if err != nil {
		return nil, 0, err
	}
	res := &Result{
		Known:   make([]map[graph.NodeID]struct{}, n),
		Covered: int(track.covered.Load()),
		Run:     run,
	}
	for v, nd := range nodes {
		res.Known[v] = nd.known
	}
	return res, cover, nil
}

// BallIndex is the per-node distance-t ball membership of one graph,
// computed once (one truncated BFS per node) and reused across every query
// that needs it: the gossip early-stop tracker's per-arrival checks and
// hybrid's residue scan. Each ball is kept as the ascending node list
// graph.Ball returns, so membership is a binary search. A BallIndex is
// immutable once built and safe for concurrent readers.
type BallIndex struct {
	balls [][]graph.NodeID
}

// NewBallIndex computes the distance-t ball of every node of g.
func NewBallIndex(g *graph.Graph, t int) *BallIndex {
	bi := &BallIndex{balls: make([][]graph.NodeID, g.NumNodes())}
	for v := range bi.balls {
		bi.balls[v] = g.Ball(graph.NodeID(v), t)
	}
	return bi
}

// Nodes returns the number of nodes the index spans.
func (bi *BallIndex) Nodes() int { return len(bi.balls) }

// Size returns |B_{G,t}(v)|.
func (bi *BallIndex) Size(v graph.NodeID) int { return len(bi.balls[v]) }

// Contains reports whether u lies within distance t of v.
func (bi *BallIndex) Contains(v, u graph.NodeID) bool {
	_, ok := slices.BinarySearch(bi.balls[v], u)
	return ok
}

// Members returns the members of v's ball in ascending order. The slice is
// owned by the index and must not be mutated.
func (bi *BallIndex) Members(v graph.NodeID) []graph.NodeID { return bi.balls[v] }
