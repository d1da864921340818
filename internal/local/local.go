// Package local implements a fully synchronous message-passing simulator for
// the LOCAL model of distributed computing (Linial; Peleg), specialized to
// the model variant used by the paper:
//
//   - rounds are fully synchronous: in round r every node receives the
//     messages sent to it in round r-1, computes, and sends messages;
//   - message size is unbounded (the simulator counts messages, not bits,
//     exactly as the paper's message complexity does);
//   - every edge has a unique identifier known to both endpoints (the
//     assumption "strictly between KT0 and KT1"); the KT1 variant, in which
//     a node additionally knows the ID of each neighbor, can be enabled;
//   - every node knows an O(1)-approximate upper bound on log n, surfaced as
//     Env.LogN (the approximation factor is configurable so experiments can
//     check robustness to the bound's slack).
//
// Two engines execute the same Protocol code: a sequential engine and a
// concurrent engine that fans node steps — and message delivery, sharded by
// receiver — out over a persistent worker pool (internal/sched) with a
// barrier per phase; Config.Workers picks one (0 sequential, nonzero the
// pool). Per-node randomness comes from streams derived from
// (seed, node ID), and inboxes are sorted canonically, so both engines
// produce bit-identical executions — a property the test suite checks.
//
// Sends are staged at Env.Send time into per-(step worker, receiver shard)
// buckets: during the step phase each worker appends only to its own bucket
// row, and during delivery each worker drains only its own bucket column, so
// delivery reads each message exactly once — O(messages) total, not
// O(workers x messages) — and nothing is locked on either path. Reading the
// column in step-worker order reproduces the sequential engine's
// (sender, send order) staging order exactly, which is what keeps the two
// engines bit-identical at every worker count.
//
// The message plane is allocation-free in the steady state: staging buckets
// and inboxes are truncated and reused across rounds, per-node state (Envs,
// ports, peer indices, RNG streams) lives in flat arrays with no per-node
// maps or pointers, ordering keys ride in the Message struct itself (no
// per-message boxing), and the canonical sort runs over the concrete slice
// with no reflection. A busy round at steady state performs zero heap
// allocations — a property the test suite pins with testing.AllocsPerRun —
// and a run's setup memory is O(nodes + edges), which is what lets
// million-node graphs fit.
//
// A Runner carries those buffers from one run to the next: Envs, protocol
// slots, inboxes, staging buckets, shard totals, and the flat port and
// peer arrays are truncated and refilled instead of re-made, so a caller
// executing many small runs in sequence (the ball replays of
// internal/simulate, one Runner per replay worker) pays for setup memory
// once. A run's Result holds only totals, so its memory is O(1) in
// executed rounds; OnRound streams each round's count to a caller that
// wants them. A protocol that wants a finer breakdown of its traffic (the
// distributed Sampler's per-kind tally) keeps it in its own node state.
// RunCtx is a run on a fresh Runner; both share one engine. Adversary
// state (the delay ring, the edge-event graph clone) and the worker pool
// are still built per run.
//
// Config.Horizon bounds each node's steps: a node steps only in rounds
// below its horizon, then retires as if it had halted, and nothing is
// staged for a receiver that will not step again. A ball replay uses it to
// run only the light cone of the replayed node; without a horizon the hot
// path pays one nil check per send and per delivery shard.
//
// Every run, flawless or adversarial, delivers through one loop
// (deliverShard), and the flawless network is its adversary-free case. The
// loop bills every staged message; behind a single nil test it hands the
// message to the adversary's per-message step, which counts the drops only
// an adversary can cause (void sends over vanished edges, messages to
// crashed receivers) and applies Config.Adversary's drop, duplication and
// delay decisions. Without an adversary those counts stay zero.
package local

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Message is a payload in transit over an edge. Code receiving a Message
// knows the unique ID of the edge it arrived on — this is the model's
// central assumption — but not, under KT0, who sent it.
type Message struct {
	// Edge is the unique ID of the edge the message traveled over.
	Edge graph.EdgeID
	// Payload is the message body. The LOCAL model does not bound its size.
	Payload any

	// seq is the sender's send order within the round; together with Edge it
	// is the canonical inbox sort key. Keeping it in the Message itself lets
	// delivery sort the staged inbox in place, with no per-message wrapper
	// allocation.
	seq int32
}

// Protocol is the per-node state machine of a distributed algorithm.
//
// Step is invoked once per round. In round 0 the inbox is empty; in round
// r > 0 it holds the messages sent to this node in round r-1, sorted by
// (edge ID, send order). The inbox slice is owned by the simulator and
// reused across rounds: protocols must not retain it (or subslices of it)
// past the Step call. A node stops participating by calling Env.Halt;
// afterwards Step is never invoked again and arriving messages are dropped.
type Protocol interface {
	Step(env *Env, round int, inbox []Message)
}

// ProtocolFunc adapts a function to the Protocol interface for stateless or
// closure-based algorithms.
type ProtocolFunc func(env *Env, round int, inbox []Message)

// Step implements Protocol.
func (f ProtocolFunc) Step(env *Env, round int, inbox []Message) { f(env, round, inbox) }

// Factory builds the protocol instance for one node. It is called once per
// node before round 0.
type Factory func(v graph.NodeID) Protocol

// Port is a node's local view of one incident edge.
type Port struct {
	// Edge is the globally unique edge ID (always available).
	Edge graph.EdgeID
	// Peer is the node at the other end. It is valid only under KT1; under
	// the default model it is set to -1 and protocol code must not use it.
	Peer graph.NodeID
}

// NoPeer is the Peer value of a Port under the KT0-with-edge-IDs model.
const NoPeer graph.NodeID = -1

// Config configures a run.
type Config struct {
	// Seed is the root seed for all node RNG streams.
	Seed uint64
	// KT1 exposes neighbor IDs on ports. Default (false) is the paper's
	// unique-edge-ID model.
	KT1 bool
	// MaxRounds aborts runs that fail to halt. Zero means DefaultMaxRounds.
	MaxRounds int
	// LogNSlack multiplies the true log2(n) before it is handed to nodes,
	// modeling the "O(1)-approximate upper bound on log n" assumption.
	// Zero means 1.0 (exact).
	LogNSlack float64
	// Workers selects the engine, in the facade's concurrency convention:
	// 0 runs the sequential engine, n > 0 a pool of n workers, n < 0 a pool
	// of GOMAXPROCS workers. Every setting produces the identical execution.
	Workers int
	// IDMap overrides node identities: node v reports ID IDMap[v] and draws
	// its randomness from the stream of that identity. It exists for the
	// ball-replay simulation of the paper's Section 6, which re-executes an
	// algorithm on a reconstructed subgraph whose nodes must behave exactly
	// as their originals. nil means the identity mapping.
	IDMap []graph.NodeID
	// NOverride, if positive, is the node count reported by Env.N and used
	// for Env.LogN (again for ball replays, where the subgraph is smaller
	// than the original network).
	NOverride int
	// OnRound, if non-nil, is invoked after every completed round with the
	// round index and the number of messages sent in it. It runs on the
	// engine's coordinating goroutine (never concurrently with itself) and
	// must not call back into the run.
	OnRound func(round int, messages int64)
	// Deprecated: ignored; cmd/e2ebench still sets it and the next
	// benchmark change deletes it.
	NoLedger bool
	// StopWhen, if non-nil, is consulted after every completed round (after
	// OnRound) with the round index and its message count; returning true
	// ends the run before the next round starts. The round it fires on has
	// executed in full — its sends delivered or, under an Adversary with
	// delays, queued; OnRound already fed — so a stopped run's
	// executed prefix is bit-identical to the same schedule without the
	// hook. Messages still in flight when it fires were billed when sent and
	// are never delivered. It runs on the engine's coordinating goroutine,
	// after the round's barrier, and must not call back into the run.
	// Protocols that centrally detect a completion condition (e.g. broadcast
	// coverage) use it to skip a fixed schedule's dead tail.
	StopWhen func(round int, messages int64) bool
	// Adversary, if non-nil, perturbs the run: per-message drops and
	// duplications, crash-stop failures, per-edge FIFO delivery delays, and
	// mid-run edge events, all consulted at the delivery boundary (and, for
	// crashes and topology, at the round boundary). Decisions are pure
	// functions of (profile seed, run seed, round, edge, receiver, send
	// order), so both engines at every worker count execute bit-identical
	// adversarial runs. The engine's one delivery loop consults it behind a
	// single nil test, so nil (the default) is the flawless synchronous
	// network: nothing dropped, duplicated or delayed. When the profile has
	// edge events the engine runs on a private clone of the input graph.
	Adversary *adversary.Adversary
	// Horizon, if non-nil, gives every node a step horizon: node v steps
	// only in rounds < Horizon[v] and then retires, which ends its
	// participation exactly as a halt does (it counts as halted in
	// Result.Halted). A horizon of at least MaxRounds does not cut the run
	// short, so that node never retires: it counts as halted only if it
	// halts. A node with horizon <= 0 is never built — the factory is not
	// called for it — and never steps, but keeps its edges, so its
	// neighbours still see their true degree. A send to a node that retires
	// before the next round is never staged: it is neither delivered nor
	// counted in Messages, so a horizon run bills only the traffic that
	// reaches a stepping node. It exists for the light-cone ball replays of
	// internal/simulate. Horizon must cover every node and cannot be
	// combined with an Adversary. nil leaves every node stepping until it
	// halts.
	Horizon []int32
}

// DefaultMaxRounds bounds runaway protocols.
const DefaultMaxRounds = 1 << 20

// Result reports the cost of a run, in the units the paper uses.
type Result struct {
	// Rounds is the number of rounds executed (a round with no active nodes
	// and no messages in flight is not counted).
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
	// PayloadUnits is the total abstract size of all payloads sent (see
	// Sizer). The LOCAL model does not charge for it — message complexity
	// counts messages — but it quantifies how much the model's unbounded
	// messages are leaned on (the CONGEST-side view).
	PayloadUnits int64
	// Halted reports whether every node halted before MaxRounds. Crashed
	// nodes count as halted: a crash-stop failure ends the node's
	// participation exactly as a voluntary halt does.
	Halted bool

	// Dropped counts messages the adversary destroyed in transit: random
	// losses, messages addressed to crashed receivers, and messages on
	// deleted edges (including sends over edges that vanished mid-run).
	// Every dropped message is still billed in Messages — the sender paid
	// for the transmission — which is the honest-billing contract the
	// degradation experiments rely on. Messages to voluntarily halted
	// receivers are not counted here (they are the model's ordinary
	// terminated-receiver drops, billed the same with or without an
	// adversary). Always zero without an adversary.
	Dropped int64
	// Duplicated counts adversary-duplicated messages. Each duplicate is
	// billed as one extra message in Messages (and its payload again in
	// PayloadUnits) and delivered adjacent to the original. Always zero
	// without an adversary.
	Duplicated int64
	// Crashed counts nodes the adversary crash-stopped during the run.
	Crashed int
}

// Sizer lets a payload report its abstract size in "units" (think O(log n)-
// bit words: an edge ID, a node ID, a flag). Payloads that do not implement
// Sizer count as 1 unit. The runtime sums sizes into Result.PayloadUnits.
// In concurrent mode PayloadUnits may be invoked from a worker goroutine
// (after the round's step barrier); implementations must not mutate shared
// state.
type Sizer interface {
	PayloadUnits() int64
}

// payloadUnits measures one payload.
func payloadUnits(p any) int64 {
	if s, ok := p.(Sizer); ok {
		return s.PayloadUnits()
	}
	return 1
}

// Env is a node's handle to the simulator. It is valid only inside Step (and
// the node's own goroutine in concurrent mode); protocols must not retain it
// across rounds or share it. Envs live in one flat per-run array — no
// per-node heap objects — and a node's ports and peer indices are views into
// run-wide flat arrays.
type Env struct {
	run   *run
	idx   graph.NodeID // index in the run's graph
	id    graph.NodeID // reported identity (equals idx unless IDMap is set)
	shard int32        // the step worker that owns this node (its bucket row)
	rng   xrand.RNG    // the node's private stream, stored inline

	ports []Port         // incident ports sorted by edge ID (view into run.portsAll)
	peers []graph.NodeID // receiver index per port, parallel to ports

	seq     int32 // send order within the current round (the inbox tiebreak key)
	hint    int32 // rotating port-position hint: protocols that send along
	halted  bool  // their port list in order resolve each edge in O(1)
	crashed bool  // halted by an adversarial crash-stop failure
}

// stagedMsg is one send awaiting delivery, staged in a per-(step worker,
// receiver shard) bucket.
type stagedMsg struct {
	edge graph.EdgeID
	to   graph.NodeID
	seq  int32
	body any
}

// ID returns this node's unique identifier.
func (e *Env) ID() graph.NodeID { return e.id }

// N returns the number of nodes. The paper only assumes a poly(n) upper
// bound on n; protocols that want to honor that weaker assumption should use
// LogN instead and avoid N.
func (e *Env) N() int {
	if e.run.cfg.NOverride > 0 {
		return e.run.cfg.NOverride
	}
	return e.run.g.NumNodes()
}

// LogN returns the node's (possibly slack) upper bound on log2 n.
func (e *Env) LogN() float64 { return e.run.logN }

// Degree returns the number of incident edges (with multiplicity).
func (e *Env) Degree() int { return len(e.ports) }

// Ports returns the node's incident ports. The slice is owned by the
// simulator and must not be modified.
func (e *Env) Ports() []Port { return e.ports }

// Rand returns this node's private random stream. It is stable across
// engines and runs with the same Config.Seed.
func (e *Env) Rand() *xrand.RNG { return &e.rng }

// Send transmits payload over the identified incident edge; it panics if the
// edge is not incident to this node, which always indicates a protocol bug.
// Multiple sends on the same edge in one round are delivered in order.
//
// The port resolves through a rotating hint (protocols overwhelmingly send
// along their port list in order, making the lookup O(1)) with a binary
// search over the node's sorted port view as the fallback. The message is
// staged directly into the bucket for its receiver's shard: the bucket row
// is owned by the step worker running this node, so sends touch no shared
// state and delivery will read the message exactly once.
//
//freelunch:noalloc
func (e *Env) Send(edge graph.EdgeID, payload any) {
	i := int(e.hint)
	if i >= len(e.ports) || e.ports[i].Edge != edge {
		var ok bool
		i, ok = slices.BinarySearchFunc(e.ports, edge, func(p Port, id graph.EdgeID) int {
			return cmp.Compare(p.Edge, id)
		})
		if !ok {
			if e.run.advEdges {
				// Under adversarial topology events a protocol can hold a
				// stale ID for an edge deleted mid-run. The send is billed
				// but delivers nowhere: stage a void message (receiver -1,
				// always bucket column 0) that delivery counts as dropped.
				bucket := &e.run.stages[e.shard][0]
				//freelunch:allocok amortized: staging buckets are truncated and reused across rounds, steady state grows nothing
				*bucket = append(*bucket, stagedMsg{edge: edge, to: -1, seq: e.seq, body: payload})
				e.seq++
				return
			}
			panic(fmt.Sprintf("local: node %d sent on non-incident edge %d", e.id, edge))
		}
	}
	e.hint = int32(i + 1)
	to := e.peers[i]
	r := e.run
	if h := r.cfg.Horizon; h != nil && r.retires(h[to]) {
		return // the receiver retires before it could read the message
	}
	bucket := &r.stages[e.shard][int(to)/r.chunk]
	//freelunch:allocok amortized: staging buckets are truncated and reused across rounds, steady state grows nothing
	*bucket = append(*bucket, stagedMsg{edge: edge, to: to, seq: e.seq, body: payload})
	e.seq++
}

// Halt marks the node as terminated. Pending sends from the current Step are
// still delivered.
func (e *Env) Halt() {
	if !e.halted {
		e.halted = true
		// Each Env is stepped by exactly one goroutine per round, so the
		// halted guard is race-free; the shared active count is atomic.
		e.run.active.Add(-1)
	}
}

// run is the shared state of one execution.
type run struct {
	g    *graph.Graph
	cfg  Config
	logN float64
	done <-chan struct{} // cancellation signal; nil when uncancellable

	envs     []Env          // flat per-node state, one array
	protos   []Protocol     // per-node protocol instances
	inbox    [][]Message    // per-receiver staging, truncated and reused per round
	portsAll []Port         // every node's sorted ports, one flat backing array
	peersAll []graph.NodeID // receiver indices parallel to portsAll
	scratch  []graph.Half   // buildPortViews' per-node sort buffer

	// stages[ws][w] holds the messages sent by step worker ws's nodes to
	// receivers in shard w. Rows are written lock-free by their owning step
	// worker; columns are drained lock-free by their owning delivery worker.
	// Each row is its own allocation so workers do not false-share headers.
	stages [][][]stagedMsg
	totals []shardTotals // per delivery worker, cache-line padded

	active atomic.Int64

	pool    *sched.Pool // non-nil iff cfg.Workers != 0
	nshards int         // worker count (1 for the sequential engine)
	chunk   int         // nodes per shard; shard of node v is v/chunk

	round     int // current round, read by stepFn
	stepFn    func(w, lo, hi int)
	deliverFn func(w, lo, hi int)

	// Adversary state; all nil/zero for unperturbed runs.
	adv      *adversary.Adversary
	advEdges bool // profile has edge events: tolerate sends on vanished edges
	// future[d][v] holds messages maturing for node v after d more delivery
	// phases (slot 0 drains into inboxes at the top of each delivery); the
	// coordinator rotates the ring once per round.
	future [][][]Message
}

// shardTotals is one delivery worker's per-round message accounting, padded
// to a cache line so workers do not false-share. Without an adversary,
// dropped and duplicated stay zero.
type shardTotals struct {
	sent       int64
	units      int64
	dropped    int64
	duplicated int64
	_          [32]byte
}

// Run executes the protocol built by f on g under cfg and returns the cost
// metrics. It is RunCtx with an uncancellable context.
func Run(g *graph.Graph, f Factory, cfg Config) (Result, error) {
	return RunCtx(context.Background(), g, f, cfg)
}

// RunCtx executes the protocol built by f on g under cfg and returns the
// cost metrics. It returns an error only for configuration mistakes or
// context cancellation; protocol panics propagate (a deliberate choice: a
// protocol bug in a simulation is a programming error, not an operational
// condition).
//
// Cancellation is checked between node steps in both engines, so a run
// aborts within one node step's work — well under one round — and returns
// ctx.Err() together with the metrics accumulated so far.
//
// RunCtx is new(Runner).Run: one run on buffers nobody reuses.
func RunCtx(ctx context.Context, g *graph.Graph, f Factory, cfg Config) (Result, error) {
	return new(Runner).Run(ctx, g, f, cfg)
}

// Runner executes runs one after another on reused buffers. Every run
// resets the per-node and per-shard state it inherits (Envs, protocol
// slots, inboxes, staging buckets, totals, port views) to the new graph,
// so a sequence of runs on one Runner executes exactly what the same runs
// on fresh Runners would; only allocation differs. When a run returns, on
// every path, the Runner drops its references to the graph, the protocols,
// the configuration and every in-flight payload, so between runs it pins
// nothing but empty capacity.
//
// The zero value is ready to use. A Runner is not safe for concurrent use:
// callers that run in parallel keep one Runner per goroutine.
type Runner struct {
	r run
}

// Run executes the protocol built by f on g under cfg, exactly as RunCtx
// does, reusing the buffers of the Runner's previous runs.
func (rn *Runner) Run(ctx context.Context, g *graph.Graph, f Factory, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return Result{}, fmt.Errorf("local: nil graph")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.LogNSlack == 0 {
		cfg.LogNSlack = 1
	}
	if cfg.LogNSlack < 1 {
		return Result{}, fmt.Errorf("local: LogNSlack %v < 1 is not an upper bound", cfg.LogNSlack)
	}
	n := g.NumNodes()
	if cfg.IDMap != nil && len(cfg.IDMap) != n {
		return Result{}, fmt.Errorf("local: IDMap covers %d of %d nodes", len(cfg.IDMap), n)
	}
	if cfg.Horizon != nil {
		if len(cfg.Horizon) != n {
			return Result{}, fmt.Errorf("local: Horizon covers %d of %d nodes", len(cfg.Horizon), n)
		}
		if cfg.Adversary != nil {
			return Result{}, fmt.Errorf("local: Horizon cannot be combined with an Adversary")
		}
	}
	if cfg.Adversary != nil {
		profile := cfg.Adversary.Profile()
		if err := profile.Validate(); err != nil {
			return Result{}, fmt.Errorf("local: %w", err)
		}
		if cfg.Adversary.HasEdgeEvents() {
			// Topology events mutate the graph; run on a private clone so
			// the caller's graph (possibly shared or cached) stays intact.
			g = g.Clone()
		}
	}
	r := &rn.r
	defer r.release()
	r.g, r.cfg, r.done = g, cfg, ctx.Done()
	r.adv, r.advEdges = cfg.Adversary, cfg.Adversary != nil && cfg.Adversary.HasEdgeEvents()
	effN := n
	if cfg.NOverride > 0 {
		effN = cfg.NOverride
	}
	r.logN = cfg.LogNSlack * math.Log2(math.Max(2, float64(effN)))

	// Shard geometry first: Env.Send routes by it. The sequential engine is
	// the one-shard case of the same machinery.
	if cfg.Workers != 0 {
		r.pool = sched.NewPool(n, cfg.Workers)
		defer r.pool.Stop()
		r.nshards = r.pool.Workers()
		r.chunk = r.pool.Chunk()
	} else {
		r.nshards = 1
		r.chunk = n
	}
	r.nshards = max(r.nshards, 1)
	r.chunk = max(r.chunk, 1)
	r.reset(f)
	if r.adv != nil && r.adv.MaxDelay() > 0 {
		// Ring slot d holds messages that mature d delivery phases from now;
		// slot 0 is drained into inboxes at the top of each delivery. A send
		// with delay δ lands in slot δ (slot 0 is never appended to — it was
		// just drained), so the ring needs MaxDelay+1 slots.
		r.future = make([][][]Message, r.adv.MaxDelay()+1)
		for d := range r.future {
			r.future[d] = make([][]Message, n)
		}
	}
	if r.stepFn == nil {
		// Built once per Runner: r is the Runner's own run, so the closures
		// stay valid for every later run.
		r.stepFn = func(w, lo, hi int) {
			for v := lo; v < hi; v++ {
				if r.cancelled() {
					return
				}
				r.stepOne(v, r.round)
			}
		}
		r.deliverFn = r.deliverShard
	}

	var res Result
	for round := 0; round < cfg.MaxRounds; round++ {
		if r.adv != nil {
			r.applyAdversaryRound(round, &res)
		}
		// LOCAL protocols may act every round until they halt, so the run
		// continues while any node is active. The count is maintained
		// incrementally by Env.Halt — no per-round O(n) scan.
		if r.active.Load() == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		r.round = round
		if r.pool != nil {
			r.pool.Dispatch(r.stepFn)
		} else {
			r.stepFn(0, 0, n)
		}
		// The engines return early on cancellation, possibly mid-round;
		// abandon the round's output rather than deliver a partial step.
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if r.pool != nil {
			r.pool.Dispatch(r.deliverFn)
		} else {
			r.deliverFn(0, 0, n)
		}
		var sent, units int64
		for w := range r.totals {
			sent += r.totals[w].sent
			units += r.totals[w].units
			res.Dropped += r.totals[w].dropped
			res.Duplicated += r.totals[w].duplicated
		}
		if len(r.future) > 0 {
			// Rotate the delay ring: the slot delivery just drained cycles
			// to the back, and the next round's matured messages move to the
			// front. The slot headers (and their truncated per-node slices)
			// are reused, so a steady-state round allocates nothing here.
			f0 := r.future[0]
			copy(r.future, r.future[1:])
			r.future[len(r.future)-1] = f0
		}
		res.Messages += sent
		res.PayloadUnits += units
		res.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(round, sent)
		}
		if cfg.StopWhen != nil && cfg.StopWhen(round, sent) {
			break
		}
	}
	res.Halted = true
	for v := 0; v < n; v++ {
		if !r.envs[v].halted {
			res.Halted = false
			break
		}
	}
	return res, nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Elements up to the old capacity keep their values, so a
// slice of buffers keeps its inner buffers across a regrowth.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// reset readies the run's buffers for a run of r.g under r.cfg with the
// shard geometry already set: per-node state is resized to the graph and
// refilled, and per-shard state to the shard count. Buffers are reused,
// never re-made, once they are large enough; release has already emptied
// every inbox and staging bucket.
//
//freelunch:noalloc
func (r *run) reset(f Factory) {
	n := r.g.NumNodes()
	if len(r.stages) != r.nshards {
		//freelunch:allocok regrowth: only when the shard count changes between runs
		r.stages = make([][][]stagedMsg, r.nshards)
		for ws := range r.stages {
			//freelunch:allocok regrowth: only when the shard count changes between runs
			r.stages[ws] = make([][]stagedMsg, r.nshards)
		}
	}
	r.totals = resize(r.totals, r.nshards) // each delivery zeroes its own worker's totals

	// Flat per-node state: one Env array, one ports array, one peer-index
	// array — O(nodes + edges) setup memory, no per-node maps.
	root := xrand.New(r.cfg.Seed)
	r.envs = resize(r.envs, n)
	r.protos = resize(r.protos, n)
	r.inbox = resize(r.inbox, n)
	active := n
	for v := 0; v < n; v++ {
		idx := graph.NodeID(v)
		id := idx
		if r.cfg.IDMap != nil {
			id = r.cfg.IDMap[v]
		}
		r.envs[v] = Env{
			run:   r,
			idx:   idx,
			id:    id,
			shard: int32(v / r.chunk),
			rng:   root.Derived(uint64(id)),
		}
		if h := r.cfg.Horizon; h != nil && h[v] <= 0 {
			// Retired before round 0: no protocol, no step, no inbox.
			r.envs[v].halted = true
			active--
			continue
		}
		r.protos[v] = f(id)
	}
	r.buildPortViews()
	r.active.Store(int64(active))
}

// release ends a run on every return path: it empties every inbox and
// staging bucket (clearing their payload references) and drops the run's
// references to the graph, the protocols, the configuration and the
// adversary, so the Runner keeps only capacity between runs.
//
//freelunch:noalloc
func (r *run) release() {
	for v := range r.inbox {
		clear(r.inbox[v])
		r.inbox[v] = r.inbox[v][:0]
	}
	for _, row := range r.stages {
		for w := range row {
			clear(row[w])
			row[w] = row[w][:0]
		}
	}
	clear(r.protos)
	r.g, r.cfg, r.done, r.pool = nil, Config{}, nil, nil
	r.adv, r.advEdges, r.future = nil, false, nil
}

// stepOne runs node v's step for the round unless it has halted or
// retired; retirement at a horizon is marked by delivery (retire), so a
// horizon costs this path nothing.
//
//freelunch:noalloc
func (r *run) stepOne(v int, round int) {
	env := &r.envs[v]
	if env.halted {
		return
	}
	env.seq = 0
	env.hint = 0
	r.protos[v].Step(env, round, r.inbox[v])
}

// cancelled reports whether the run's context has been cancelled. It is a
// non-blocking poll, cheap enough to call per node step; with no
// cancellable context (done == nil) it compiles down to a nil check.
func (r *run) cancelled() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// msgOrder is the canonical inbox ordering: edge ID, then the sender's send
// order within the round.
func msgOrder(a, b Message) int {
	if c := cmp.Compare(a.Edge, b.Edge); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortInbox establishes the canonical (edge, send order) inbox ordering.
// The keys ride in the Message struct, so the stable sort runs over the
// concrete slice: no interface boxing, no reflection swapper, no
// allocation. Empty and singleton inboxes skip it — ordering them is the
// identity, and quiet rounds must stay free. Buckets that staged already
// in canonical order — common when a receiver hears from one sender, whose
// sends arrive in (edge, seq) order by construction — skip the sort behind
// a linear is-sorted scan: a stable sort of a sorted slice is the identity,
// so the fast path cannot change any execution.
//
//freelunch:noalloc
func sortInbox(in []Message) {
	if len(in) < 2 {
		return
	}
	if slices.IsSortedFunc(in, msgOrder) {
		return
	}
	slices.SortStableFunc(in, msgOrder)
}

// deliverShard is the engine's one delivery loop. It moves this round's
// sends for the receivers in [lo, hi) — exactly the messages staged in
// bucket column w — into next round's inboxes, and accumulates this worker's
// totals. Draining the column in step-worker order yields the (sender, send
// order) staging order of the sequential engine, and the canonical
// (edge, seq) sort on top makes both engines expose identical inboxes at
// every worker count. Each message is read once, by the one worker owning
// its receiver's shard, and billed (with its payload units) whatever befalls
// it: messages to halted receivers are dropped, as the model prescribes.
//
// Under an Adversary, matured delayed messages (the delay ring's front
// slot) enter the inbox first; because an edge's delay is constant, matured
// and fresh traffic never share an edge in one inbox, so the canonical sort
// remains a total order, and every staged message goes through perturb.
// Without an adversary the ring is empty and the one adversary test per
// message is the only cost the adversarial machinery adds.
//
// All staging buffers are truncated and reused: a steady-state round
// allocates nothing, and payload references are cleared so finished bursts
// do not pin their payloads.
//
//freelunch:noalloc
func (r *run) deliverShard(w, lo, hi int) {
	t := &r.totals[w]
	t.sent, t.units, t.dropped, t.duplicated = 0, 0, 0, 0
	for v := lo; v < hi; v++ {
		// clear before truncating: a node that goes quiet or halts after a
		// burst must not pin the burst's payloads in the reused backing
		// array, whose capacity a Runner keeps for later runs. The memclr is
		// linear in last round's inbox, a cost the round already paid
		// several times over to deliver it.
		clear(r.inbox[v])
		r.inbox[v] = r.inbox[v][:0]
	}
	if len(r.future) > 0 {
		r.drainMatured(t, lo, hi)
	}
	if h := r.cfg.Horizon; h != nil {
		r.retire(h, lo, hi)
	}
	a := r.adv
	for ws := 0; ws < r.nshards; ws++ {
		bucket := r.stages[ws][w]
		t.sent += int64(len(bucket))
		for i := range bucket {
			m := &bucket[i]
			t.units += payloadUnits(m.body)
			if a != nil {
				r.perturb(t, a, m)
				continue
			}
			if r.envs[m.to].halted {
				continue // dropped: receiver terminated
			}
			//freelunch:allocok amortized: inbox backing arrays are truncated and reused across rounds
			r.inbox[m.to] = append(r.inbox[m.to], Message{Edge: m.edge, Payload: m.body, seq: m.seq})
		}
		clear(bucket) // no stale payload references in the reused bucket
		r.stages[ws][w] = bucket[:0]
	}
	for v := lo; v < hi; v++ {
		sortInbox(r.inbox[v])
	}
}

// perturb delivers one staged message under the adversary. A void send
// (over an edge that vanished mid-run), a message to a crashed receiver and
// a message the adversary drops count as dropped; a message to a
// voluntarily halted receiver is the model's ordinary drop, as without an
// adversary. A delayed message is parked in the delay ring instead of the
// inbox, and a duplicate is billed as one extra message and delivered
// adjacent to the original.
//
//freelunch:noalloc
func (r *run) perturb(t *shardTotals, a *adversary.Adversary, m *stagedMsg) {
	if m.to < 0 {
		t.dropped++
		return
	}
	if env := &r.envs[m.to]; env.halted {
		if env.crashed {
			t.dropped++
		}
		return
	}
	if a.Drop(r.round, m.edge, m.to, m.seq) {
		t.dropped++
		return
	}
	in := &r.inbox[m.to]
	if d := a.Delay(m.edge); d > 0 {
		in = &r.future[d][m.to]
	}
	msg := Message{Edge: m.edge, Payload: m.body, seq: m.seq}
	//freelunch:allocok amortized: inbox and delay-ring backing arrays are truncated and reused across rounds
	*in = append(*in, msg)
	if a.Duplicate(r.round, m.edge, m.to, m.seq) {
		t.sent++
		t.units += payloadUnits(m.body)
		t.duplicated++
		//freelunch:allocok amortized: inbox and delay-ring backing arrays are truncated and reused across rounds
		*in = append(*in, msg)
	}
}

// drainMatured moves the delay ring's front slot for the receivers in
// [lo, hi) into their (just emptied) inboxes. Matured messages to a crashed
// receiver are destroyed by the adversary and counted as dropped; a
// voluntary halt's drops stay ordinary model behaviour.
//
//freelunch:noalloc
func (r *run) drainMatured(t *shardTotals, lo, hi int) {
	for v := lo; v < hi; v++ {
		mat := r.future[0][v]
		switch env := &r.envs[v]; {
		case !env.halted:
			//freelunch:allocok amortized: inbox backing arrays are truncated and reused across rounds
			r.inbox[v] = append(r.inbox[v], mat...)
		case env.crashed:
			t.dropped += int64(len(mat))
		}
		clear(mat)
		r.future[0][v] = mat[:0]
	}
}

// retires reports whether a node with horizon h retires before the next
// round. A horizon of at least MaxRounds never ends a node's run early, so
// such a node never retires and halts only by its own Halt.
func (r *run) retires(h int32) bool {
	next := r.round + 1
	return int(h) <= next && next < r.cfg.MaxRounds
}

// retire marks halted every node in [lo, hi) that retires before the next
// round, so it steps no more and the run can end once only retired and
// halted nodes remain. Sends to such a node were never staged (Env.Send),
// so nothing is in flight to it. Each delivery worker retires only its own
// shard, between the round's step and the next.
//
//freelunch:noalloc
func (r *run) retire(h []int32, lo, hi int) {
	var n int64
	for v := lo; v < hi; v++ {
		if env := &r.envs[v]; !env.halted && r.retires(h[v]) {
			env.halted = true
			n++
		}
	}
	if n > 0 {
		r.active.Add(-n)
	}
}

// buildPortViews (re)assembles every node's sorted port and peer-index views
// from the run's current graph into two flat backing arrays, rewritten in
// place. It runs once at setup and again after each adversarial topology
// event; the nil-adversary path never re-enters it.
func (r *run) buildPortViews() {
	n := r.g.NumNodes()
	m := r.g.NumEdges()
	r.portsAll = slices.Grow(r.portsAll[:0], 2*m)
	r.peersAll = slices.Grow(r.peersAll[:0], 2*m)
	hor := r.cfg.Horizon
	for v := 0; v < n; v++ {
		if hor != nil && hor[v] <= 0 {
			// Never built and never stepped: nothing reads its own ports.
			r.envs[v].ports, r.envs[v].peers = nil, nil
			continue
		}
		idx := graph.NodeID(v)
		// Sort a scratch copy of the incident list by edge ID, then emit
		// ports and peer indices side by side: the two views stay parallel
		// and the backing arrays never reallocate (capacity covers 2m).
		r.scratch = append(r.scratch[:0], r.g.Incident(idx)...)
		slices.SortFunc(r.scratch, func(a, b graph.Half) int { return cmp.Compare(a.Edge, b.Edge) })
		base := len(r.portsAll)
		for _, h := range r.scratch {
			p := NoPeer
			if r.cfg.KT1 {
				p = h.Peer
				if r.cfg.IDMap != nil {
					p = r.cfg.IDMap[h.Peer]
				}
			}
			r.portsAll = append(r.portsAll, Port{Edge: h.Edge, Peer: p})
			r.peersAll = append(r.peersAll, h.Peer)
		}
		r.envs[v].ports = r.portsAll[base:len(r.portsAll):len(r.portsAll)]
		r.envs[v].peers = r.peersAll[base:len(r.peersAll):len(r.peersAll)]
	}
}

// applyAdversaryRound applies the adversary's round-boundary perturbations
// before any node steps: crash-stop failures (the node does not step this
// round) and topology events (an inserted edge is usable by this round's
// sends; messages still in flight over a deleted edge are destroyed). It
// runs on the coordinating goroutine, outside any worker phase.
func (r *run) applyAdversaryRound(round int, res *Result) {
	for _, c := range r.adv.CrashesAt(round) {
		v := int(c.Node)
		if v < 0 || v >= len(r.envs) {
			continue // profile names a node beyond this graph
		}
		env := &r.envs[v]
		if !env.halted {
			env.halted = true
			env.crashed = true
			r.active.Add(-1)
			res.Crashed++
		}
	}
	events := r.adv.EventsAt(round)
	if len(events) == 0 {
		return
	}
	changed := false
	for _, ev := range events {
		if int(ev.U) >= r.g.NumNodes() || int(ev.V) >= r.g.NumNodes() {
			continue // graph-independent profiles may outrange small graphs
		}
		switch ev.Op {
		case adversary.InsertEdge:
			r.g.AddEdge(ev.U, ev.V)
			changed = true
		case adversary.DeleteEdge:
			between := r.g.EdgesBetween(ev.U, ev.V)
			if len(between) == 0 {
				continue // deleting an absent pair is a no-op by contract
			}
			id := slices.Min(between)
			if err := r.g.RemoveEdgeID(id); err != nil {
				panic(fmt.Sprintf("local: removing adversary-selected edge %d: %v", id, err))
			}
			r.purgeFuture(id, ev.U, ev.V, res)
			changed = true
		}
	}
	if changed {
		r.buildPortViews()
	}
}

// purgeFuture destroys delayed messages still in flight over a deleted edge:
// they were billed at send time and now count as adversary-induced drops.
func (r *run) purgeFuture(id graph.EdgeID, u, v graph.NodeID, res *Result) {
	for d := range r.future {
		for _, w := range [2]graph.NodeID{u, v} {
			slot := r.future[d][w]
			kept := slot[:0]
			for _, m := range slot {
				if m.Edge == id {
					res.Dropped++
					continue
				}
				kept = append(kept, m)
			}
			// Clear the tail so destroyed payloads are not pinned by the
			// reused backing array.
			for i := len(kept); i < len(slot); i++ {
				slot[i] = Message{}
			}
			r.future[d][w] = kept
		}
	}
}
