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
// charged 1 + len(M_v) words wherever it travels. Each node keeps one map:
// a flood node's Known (origin → M_o), a gossip node's Arrival (origin →
// first round heard), from which Gossip derives Known after the run. A
// Result's Known is the collection simulate replays from.
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
	// Known maps, per node, each heard origin u to its payload M_u.
	Known []map[graph.NodeID][]graph.EdgeID
	// Arrival maps, per node, each heard origin to the round it was first
	// heard (own rumor: round 0). Only Gossip records it; floods leave it
	// nil.
	Arrival []map[graph.NodeID]int
	// Run carries the LOCAL cost metrics.
	Run local.Result

	// cumAt records, for gossip runs with the per-round ledger disabled,
	// the cumulative message count through every round in which some node
	// first heard some origin. Billing deadlines (cover rounds) are always
	// such arrival rounds, so this compact record — bounded by the number
	// of arrival events, independent of the schedule length — answers every
	// MessagesThrough query the ledger used to serve.
	cumAt map[int]int64
}

// MessagesThrough returns the cumulative number of messages sent through
// the given round (inclusive) — the billing primitive behind cover-round
// accounting. With the per-round ledger enabled it sums Run.PerRound
// exactly like MessagesUpTo; with the ledger disabled (local.Config's
// NoLedger) it consults the compact arrival-round record that Gossip
// maintains, which covers every round a cover-round query can return.
// Querying a round with no record is an error: it means the caller asked
// about a non-arrival round of a ledgerless run, which no billing path does.
func (r *Result) MessagesThrough(round int) (int64, error) {
	if r.cumAt == nil {
		if r.Run.PerRound == nil && r.Run.Rounds > 0 {
			// A ledgerless run with no arrival-round record (a flood, not a
			// gossip): there is nothing to bill against — error rather than
			// silently summing the missing ledger to 0.
			return 0, fmt.Errorf("broadcast: no per-round ledger and no arrival-round record (run with the ledger enabled to bill by round)")
		}
		return MessagesUpTo(r.Run, round), nil
	}
	if c, ok := r.cumAt[round]; ok {
		return c, nil
	}
	return 0, fmt.Errorf("broadcast: no cumulative message record at round %d (per-round ledger disabled; only arrival rounds are recorded)", round)
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
// map, known, is both the dedup set and the result. The outgoing batch is
// buffered by round parity: a batch sent in round r is read by receivers in
// round r+1 — or, under an adversary with delivery delays, as late as round
// r+1+B — so the buffer ring holds B+2 batches and the buffer of parity p is
// free for rewriting when p comes around again (after the longest possible
// in-flight lifetime has passed). The flawless network keeps the historical
// two buffers.
type floodNode struct {
	t        int
	seed     bool // whether this node injects its own rumor
	payloads [][]graph.EdgeID
	known    map[graph.NodeID][]graph.EdgeID
	fresh    []batch
}

func (p *floodNode) Step(env *local.Env, round int, inbox []local.Message) {
	cur := &p.fresh[round%len(p.fresh)]
	cur.origins = cur.origins[:0]
	if round == 0 {
		p.known = map[graph.NodeID][]graph.EdgeID{env.ID(): p.payloads[env.ID()]}
		if p.seed {
			cur.origins = append(cur.origins, env.ID())
		}
	}
	for _, m := range inbox {
		for _, o := range m.Payload.(*batch).origins {
			if _, ok := p.known[o]; !ok {
				p.known[o] = p.payloads[o]
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
			t:        rounds,
			seed:     seeds == nil || seeds[v],
			payloads: payloads,
			fresh:    make([]batch, parities),
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
	res := &Result{Run: run, Known: make([]map[graph.NodeID][]graph.EdgeID, len(nodes))}
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
// nodes as they happen. The plain arrival counter lets a ledgerless run
// detect arrival rounds in O(1) per round (instead of scanning all n nodes'
// flags after every round); with a BallIndex attached it additionally
// maintains, per node, how many of that node's distance-t ball members are
// still unheard, and counts the nodes whose balls are complete — the
// early-stop condition checked after each round's barrier.
//
// Race discipline: arrivals and covered are atomics; left[v] is written only
// from node v's Step (each node is stepped by exactly one goroutine per
// round), and the coordinating goroutine reads the atomics only after the
// round's barrier.
type arrivalTracker struct {
	arrivals atomic.Int64
	covered  atomic.Int64
	ball     *BallIndex
	left     []int
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
	tr.arrivals.Add(1)
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
// last round's pushes with its full set. Its one map, arrival, is the rumor
// set; Gossip derives Known from it once, after the run. The rumor snapshot
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
	arrival map[graph.NodeID]int
	replyTo []graph.EdgeID
	push    []gossipPush
	pull    []gossipPull
}

type gossipPush struct{ batch }
type gossipPull struct{ batch }

func (p *gossipNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.arrival = map[graph.NodeID]int{env.ID(): 0}
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
			if _, ok := p.arrival[o]; !ok {
				p.arrival[o] = round
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
	//freelunch:orderok receivers fold origins into their arrival map (a set); emission order is never observed
	for o := range p.arrival {
		out = append(out, o)
	}
	p.pull[parity].origins = out
	return out
}

// Gossip runs push–pull gossip on host for at most rounds rounds (message
// complexity at most 2n per round by construction) and returns the run with
// its cover round. Cancelling ctx aborts the underlying run.
//
// With bi set, the run stops centrally at the end of the first round after
// which at least target nodes have heard the rumor of every member of their
// distance-t ball (per bi); target = host.NumNodes() waits for every ball.
// The executed prefix is bit-identical to the full schedule's — per-node RNG
// streams depend only on (seed, id), and the stop check runs after the
// round's barrier — so arrivals, per-round bills, and MessagesThrough
// answers through the stop round all match the fixed schedule's. The cover
// round is the earliest round by which target balls were complete, or -1 if
// the schedule ended first.
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
	if bi != nil {
		// The hook is a pure coverage check: the cover round itself is
		// recovered post-hoc from the recorded arrivals, so an adversary
		// that defers the stop (delayed messages in flight keep the
		// in-flight gate closed) cannot inflate the billed cover round.
		cfg.StopWhen = func(int, int64) bool {
			return track.covered.Load() >= int64(target)
		}
	}
	// With the per-round ledger disabled, record cumulative message counts
	// at arrival rounds so cover-round billing (MessagesThrough) stays exact
	// at O(1) memory in executed rounds. The tracker's arrival counter makes
	// the per-round check O(1): a round recorded an arrival iff the counter
	// moved since the previous barrier.
	var cumAt map[int]int64
	if cfg.NoLedger {
		cumAt = make(map[int]int64)
		inner := cfg.OnRound
		var cum, lastArrivals int64
		cfg.OnRound = func(r int, m int64) {
			cum += m
			if a := track.arrivals.Load(); a != lastArrivals {
				lastArrivals = a
				cumAt[r] = cum
			}
			if inner != nil {
				inner(r, m)
			}
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
		Known:   make([]map[graph.NodeID][]graph.EdgeID, n),
		Arrival: make([]map[graph.NodeID]int, n),
		Run:     run,
		cumAt:   cumAt,
	}
	for v, nd := range nodes {
		known := make(map[graph.NodeID][]graph.EdgeID, len(nd.arrival))
		for o := range nd.arrival {
			known[o] = payloads[o]
		}
		res.Known[v], res.Arrival[v] = known, nd.arrival
	}
	return res, coverAt(bi, res.Arrival, target), nil
}

// coverAt recovers the run's cover round from the recorded arrivals: the
// earliest round by which at least target nodes held their complete ball —
// the target-th smallest per-node cover round — or -1 if the schedule ended
// first. On a flawless network this equals the round the StopWhen hook fired
// on (the covered counter first reaches target at exactly that round);
// under an adversary it is the true coverage round even when delayed
// in-flight traffic forced the run past it.
func coverAt(bi *BallIndex, arrival []map[graph.NodeID]int, target int) int {
	if bi == nil {
		return -1
	}
	if target <= 0 {
		return 0
	}
	var covered []int
	for _, r := range bi.CoverRounds(arrival) {
		if r >= 0 {
			covered = append(covered, r)
		}
	}
	if len(covered) < target {
		return -1
	}
	slices.Sort(covered)
	return covered[target-1]
}

// BallIndex is the per-node distance-t ball membership of one graph,
// computed once (one truncated BFS per node) and reused across every query
// that needs it: cover-round queries, the gossip early-stop tracker's
// per-arrival checks, and hybrid's residue scan. A BallIndex is immutable
// once built and safe for concurrent readers.
type BallIndex struct {
	t    int
	sets []map[graph.NodeID]bool
}

// NewBallIndex computes the distance-t ball of every node of g.
func NewBallIndex(g *graph.Graph, t int) *BallIndex {
	bi := &BallIndex{t: t, sets: make([]map[graph.NodeID]bool, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		ball := g.Ball(graph.NodeID(v), t)
		m := make(map[graph.NodeID]bool, len(ball))
		for _, u := range ball {
			m[u] = true
		}
		bi.sets[v] = m
	}
	return bi
}

// T returns the ball radius the index was built for.
func (bi *BallIndex) T() int { return bi.t }

// Nodes returns the number of nodes the index spans.
func (bi *BallIndex) Nodes() int { return len(bi.sets) }

// Size returns |B_{G,t}(v)|.
func (bi *BallIndex) Size(v graph.NodeID) int { return len(bi.sets[v]) }

// Contains reports whether u lies within distance t of v.
func (bi *BallIndex) Contains(v, u graph.NodeID) bool { return bi.sets[v][u] }

// Members returns v's ball membership set. The map is owned by the index
// and must not be mutated.
func (bi *BallIndex) Members(v graph.NodeID) map[graph.NodeID]bool { return bi.sets[v] }

// CoverRounds returns, per node, the earliest round by which every ball
// member's rumor had arrived (-1 if the run ended before that). Beyond the
// one output slice it allocates nothing.
func (bi *BallIndex) CoverRounds(arrival []map[graph.NodeID]int) []int {
	out := make([]int, len(bi.sets))
	for v := range bi.sets {
		worst := 0
		//freelunch:orderok max-reduction with a missing-member early exit; the result is visit-order-independent
		for u := range bi.sets[v] {
			r, ok := arrival[v][u]
			if !ok {
				worst = -1
				break
			}
			if r > worst {
				worst = r
			}
		}
		out[v] = worst
	}
	return out
}

// CoverRound returns the earliest round by which every node had heard the
// rumor of every member of its ball, or -1 if the run ended before that.
// Combine with Result.MessagesThrough to get the message cost of achieving
// t-local broadcast.
func (bi *BallIndex) CoverRound(arrival []map[graph.NodeID]int) int {
	return coverAt(bi, arrival, bi.Nodes())
}

// MessagesUpTo sums per-round message counts through the given round
// (inclusive). Rounds beyond the recorded horizon are ignored.
func MessagesUpTo(run local.Result, round int) int64 {
	var total int64
	for r, c := range run.PerRound {
		if r > round {
			break
		}
		total += c
	}
	return total
}
