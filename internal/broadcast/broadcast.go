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
// from the same table, so a node records only whom it heard. Flood and
// Gossip keep that record as an origin bitset of n bits per node, both the
// dedup set and the result: a run holds n/8 bytes per node, allocated once
// when the run starts. A Result's Known lists each node's heard origins
// strictly ascending. Known, together with the payload table the run was
// given, is the collection simulate replays from, and the Run is the bill:
// a gossip run with a ball index ends at the barrier of its cover round, so
// its Run and Known cover exactly rounds 0..cover.
package broadcast

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/local"
)

// Result is the outcome of a broadcast run.
type Result struct {
	// Known is, per node, the origins it heard, itself included, strictly
	// ascending; the payload of origin u is entry u of the run's payload
	// table. The rows may share one backing array: each is capped at its
	// length, so appending to one never writes another.
	Known [][]graph.NodeID
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

// originSet is one node's heard set: bit o says whether the node has heard
// origin o, so the dedup test is one word load and the heard origins come
// out ascending from a scan of the words. A run's sets are the capped rows
// of one flat n×⌈n/64⌉ word array, allocated once when the run starts: n/8
// bytes per node whatever the balls' sizes, where a hash set costs a few
// words per heard origin. Near n ≈ 32k with balls of ~220 nodes the bitset
// outgrows such a map. Each set is written only by its own node's Step.
type originSet []uint64

// newOriginSets returns n empty origin sets over the origins [0, n).
func newOriginSets(n int) []originSet {
	w := (n + 63) / 64
	flat := make([]uint64, n*w)
	sets := make([]originSet, n)
	for v := range sets {
		sets[v] = flat[v*w : (v+1)*w : (v+1)*w]
	}
	return sets
}

// add records origin o and reports whether it was new.
//
//freelunch:noalloc
func (s originSet) add(o graph.NodeID) bool {
	w, bit := uint32(o)>>6, uint64(1)<<(uint32(o)&63)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

// list appends the heard origins to dst in ascending order.
func (s originSet) list(dst []graph.NodeID) []graph.NodeID {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, graph.NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// heardLists returns every set's origins ascending: Result.Known, as capped
// rows of one array.
func heardLists(sets []originSet) [][]graph.NodeID {
	total := 0
	for _, s := range sets {
		for _, w := range s {
			total += bits.OnesCount64(w)
		}
	}
	flat := make([]graph.NodeID, 0, total)
	known := make([][]graph.NodeID, len(sets))
	for v, s := range sets {
		lo := len(flat)
		flat = s.list(flat)
		known[v] = flat[lo:len(flat):len(flat)]
	}
	return known
}

// floodNode floods newly learned rumors to all neighbors each round. Its one
// set, heard, is both the dedup set and the result. The outgoing batch is
// buffered by round parity: a batch sent in round r is read by receivers in
// round r+1 — or, under an adversary with delivery delays, as late as round
// r+1+B — so the buffer ring holds B+2 batches and the buffer of parity p is
// free for rewriting when p comes around again (after the longest possible
// in-flight lifetime has passed). The flawless network keeps the historical
// two buffers.
type floodNode struct {
	t     int
	heard originSet
	fresh []batch
}

func (p *floodNode) Step(env *local.Env, round int, inbox []local.Message) {
	cur := &p.fresh[round%len(p.fresh)]
	cur.origins = cur.origins[:0]
	if round == 0 {
		p.heard.add(env.ID())
		cur.origins = append(cur.origins, env.ID())
	}
	for _, m := range inbox {
		for _, o := range m.Payload.(*batch).origins {
			if p.heard.add(o) {
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

// Flood floods every node's rumor over host for exactly rounds rounds.
// Every node forwards everything it hears, so after the run Known[v] holds
// every node within host-distance rounds of v, v itself included.
// Cancelling ctx aborts the underlying run.
func Flood(ctx context.Context, host *graph.Graph, payloads [][]graph.EdgeID, rounds int, cfg local.Config) (*Result, error) {
	if err := validate(host, payloads, rounds); err != nil {
		return nil, err
	}
	sets := newOriginSets(host.NumNodes())
	rounds = clampSchedule(&cfg, rounds)
	parities := 2 + maxDelay(cfg)
	run, err := local.RunCtx(ctx, host, func(v graph.NodeID) local.Protocol {
		nd := &floodNode{
			t:     rounds,
			heard: sets[v],
			fresh: make([]batch, parities),
		}
		for i := range nd.fresh {
			nd.fresh[i].payloads = payloads
		}
		return nd
	}, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Run: run, Known: heardLists(sets)}, nil
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
// last round's pushes with its full set. heard is the dedup set and the
// result, as in floodNode; order lists the same origins in the order this
// node learned them, and only ever grows by appending.
//
// A round's push and pull carry the prefix order[:L:L], L = len(order), with
// no copy. That is safe under an adversary with delay bound B, whose
// envelopes may be read as late as round r+1+B, because no element of an
// in-flight prefix is ever written again: a later append writes at index L
// or beyond, or moves order to a new array and leaves the old one to the
// envelopes that still hold it. The envelope structs themselves are reused,
// so they are buffered by round parity — B+2 parities in the ring (two on
// the flawless network, as historically), and parity p's envelopes are free
// when p recurs — and travel as pointers, whose interface boxing is
// allocation-free. A steady-state gossip round therefore allocates only when
// order grows.
type gossipNode struct {
	t       int
	track   *arrivalTracker
	heard   originSet
	order   []graph.NodeID
	replyTo []graph.EdgeID
	push    []gossipPush
	pull    []gossipPull
}

type gossipPush struct{ batch }
type gossipPull struct{ batch }

func (p *gossipNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.heard.add(env.ID())
		p.order = append(p.order, env.ID())
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
			if p.heard.add(o) {
				p.order = append(p.order, o)
				p.track.learn(env.ID(), o)
			}
		}
	}
	if round >= p.t {
		env.Halt()
		return
	}
	parity := round % len(p.push)
	all := p.order[:len(p.order):len(p.order)]
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

// Gossip runs push–pull gossip on host for at most rounds rounds (message
// complexity at most 2n per round by construction) and returns the run with
// its cover round. Cancelling ctx aborts the underlying run.
//
// With bi set, the run stops centrally at the barrier of its cover round:
// the first round after which every node has heard the rumor of every member
// of its distance-t ball (per bi). The cover round is -1 if the schedule
// ended first.
// The run itself is the bill: Run covers rounds 0..cover, and Known holds
// exactly what was delivered by then. Messages still in flight under an
// adversary's delays were billed when sent. The executed prefix is
// bit-identical to the full schedule's — per-node RNG streams depend only on
// (seed, id), and the stop check runs after the round's barrier — so the
// cover round and its bill are the fixed schedule's too.
//
// With bi nil, the whole fixed schedule runs and the cover round is -1; it
// is the reference the early-stop tests compare against.
func Gossip(ctx context.Context, host *graph.Graph, payloads [][]graph.EdgeID, bi *BallIndex, rounds int, cfg local.Config) (*Result, int, error) {
	if err := validate(host, payloads, rounds); err != nil {
		return nil, 0, err
	}
	n := host.NumNodes()
	if bi != nil && bi.Nodes() != n {
		return nil, 0, fmt.Errorf("broadcast: ball index spans %d nodes, host has %d", bi.Nodes(), n)
	}
	sets := newOriginSets(n)
	rounds = clampSchedule(&cfg, rounds)
	parities := 2 + maxDelay(cfg)
	track := newArrivalTracker(n, bi)
	cover := -1
	if bi != nil {
		cfg.StopWhen = func(round int, _ int64) bool {
			if track.covered.Load() < int64(n) {
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
			heard: sets[v],
			push:  make([]gossipPush, parities),
			pull:  make([]gossipPull, parities),
		}
		for i := range nd.push {
			nd.push[i].payloads, nd.pull[i].payloads = payloads, payloads
		}
		return nd
	}, cfg)
	if err != nil {
		return nil, 0, err
	}
	return &Result{Known: heardLists(sets), Run: run}, cover, nil
}

// BallIndex is the per-node distance-t ball membership of one graph,
// computed once (graph.Balls: one search kernel, one flat array) and reused
// across every query that needs it, such as the gossip early-stop tracker's
// per-arrival checks. Each ball is kept as the ascending node list
// graph.Ball returns, so membership is a binary search.
// A BallIndex is immutable once built and safe for concurrent readers.
type BallIndex struct {
	balls [][]graph.NodeID
}

// NewBallIndex computes the distance-t ball of every node of g.
func NewBallIndex(g *graph.Graph, t int) *BallIndex {
	return &BallIndex{balls: g.Balls(t)}
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
