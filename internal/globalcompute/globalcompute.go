// Package globalcompute implements the extension sketched in the paper's
// concluding remarks (Section 7): with an o(m)-message spanner construction
// that does not increase the round complexity, *global* functions — values
// that depend on every node's input, such as a minimum, sum, or count — can
// be computed in O(diameter) rounds with o(m) messages:
//
//  1. build a spanner H of stretch α with algorithm Sampler (o(m) messages,
//     O(1) rounds);
//  2. elect the node with minimum ID as root and build a BFS tree of H by
//     flooding on H only — O(α·D) rounds, O(α·D·|S|) = o(m) messages;
//  3. convergecast the aggregate up the tree and broadcast the result down
//     — O(α·D) rounds, O(n) messages.
//
// The direct baseline floods the whole graph, paying Θ(D·m) messages.
//
// This package is steps 2 and 3 and nothing else: Converge runs them on
// whatever host it is given, with a typed commutative-associative merge.
// Callers supply the host — G itself for the direct baseline, or the
// Sampler spanner's subgraph, which the engine builds and caches like every
// other stage-1 spanner. The registry's "globalcompute" scheme convergecasts
// origin lists with it; DetectTermination convergecasts completion
// predicates under AND. Both take a context (cancellation aborts within one
// node step) and honor local.Config.OnRound, so engine observers see every
// round of the wave, convergecast, and broadcast phases.
package globalcompute

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/local"
)

// phases of the aggregation protocol; all nodes share the schedule bounds
// but progress is event-driven (BFS wave, then convergecast, then final
// broadcast), so the protocol is correct for any diameter and halts itself.
type gcMsg[T any] struct {
	Kind  gcKind
	Root  graph.NodeID
	Dist  int
	Value T
}

type gcKind int

const (
	gcWave   gcKind = iota + 1 // BFS wave carrying the root identity
	gcParent                   // child -> parent tree registration
	gcAgg                      // aggregate moving up
	gcDone                     // result flooding down
)

// PayloadUnits implements local.Sizer: a kind word plus the kind-specific
// content — (root, dist) for waves, the carried value for aggregates and the
// final broadcast.
func (m gcMsg[T]) PayloadUnits() int64 {
	switch m.Kind {
	case gcWave:
		return 3
	case gcAgg, gcDone:
		return 1 + valueUnits(m.Value)
	default:
		return 1
	}
}

// valueUnits sizes a carried aggregate in O(log n)-bit words: by its
// local.Sizer, or as one word when it has none.
func valueUnits(v any) int64 {
	if s, ok := v.(local.Sizer); ok {
		return s.PayloadUnits()
	}
	return 1
}

// gcNode runs leader election by min-ID wave + BFS-tree aggregation.
//
// Wave phase: every node starts a wave for itself; waves carry (root, dist)
// and a node adopts the smallest root it has heard, re-flooding on
// improvement. After waveRounds rounds the true minimum has won everywhere
// (waveRounds must be at least the host diameter; we use an upper bound).
// Tree phase: each node's parent is the edge its winning wave arrived on;
// children register, then leaves start the convergecast. Done phase: the
// root floods the final value down the tree.
type gcNode[T any] struct {
	input      T
	merge      func(a, b T) T
	waveRounds int

	root     graph.NodeID
	dist     int
	parent   graph.EdgeID
	hasPar   bool
	children []graph.EdgeID // ascending
	pending  []graph.EdgeID // children that have not reported yet, ascending
	acc      T
	sentUp   bool
	value    T
	haveVal  bool
}

func (p *gcNode[T]) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.root = env.ID()
		p.dist = 0
		p.acc = p.input
		p.flood(env, gcMsg[T]{Kind: gcWave, Root: p.root, Dist: 0}, noEdge)
		return
	}
	improved := false
	var from graph.EdgeID
	var fromDist int
	for _, m := range inbox {
		msg := m.Payload.(gcMsg[T])
		switch msg.Kind {
		case gcWave:
			if msg.Root < p.root {
				p.root, p.dist = msg.Root, msg.Dist+1
				improved, from, fromDist = true, m.Edge, msg.Dist
			}
		case gcParent:
			p.children = graph.InsertEdgeID(p.children, m.Edge)
			if round > p.waveRounds {
				p.pending = graph.InsertEdgeID(p.pending, m.Edge)
			}
		case gcAgg:
			// Once the accumulator has been sent up it is aliased by the
			// parent, which may be merging it this very round on another
			// worker — and a late aggregate (a child whose gcParent
			// registration was delayed past our report) is lost to the
			// global result regardless, so it must not be merged in place.
			if !p.sentUp {
				p.acc = p.merge(p.acc, msg.Value)
			}
			if i, ok := slices.BinarySearch(p.pending, m.Edge); ok {
				p.pending = slices.Delete(p.pending, i, i+1)
			}
		case gcDone:
			if !p.haveVal {
				p.finish(env, msg.Value)
				return
			}
		}
	}
	if improved {
		p.hasPar = true
		p.parent = from
		p.children = p.children[:0] // stale subtree forgotten
		p.flood(env, gcMsg[T]{Kind: gcWave, Root: p.root, Dist: fromDist + 1}, from)
	}
	// Wave settling deadline: register with the final parent, then start
	// the convergecast once every registered child has reported.
	if round == p.waveRounds {
		p.pending = slices.Clone(p.children)
		if p.hasPar {
			env.Send(p.parent, gcMsg[T]{Kind: gcParent})
		}
	}
	if round > p.waveRounds && len(p.pending) == 0 && !p.sentUp {
		p.sentUp = true
		if p.hasPar {
			env.Send(p.parent, gcMsg[T]{Kind: gcAgg, Value: p.acc})
		} else {
			p.finish(env, p.acc) // root: the aggregate is complete
		}
	}
}

// finish adopts the merged value, floods it down the tree in edge order and
// halts.
func (p *gcNode[T]) finish(env *local.Env, value T) {
	p.haveVal = true
	p.value = value
	var done any = gcMsg[T]{Kind: gcDone, Value: value} // boxed once per sweep
	for _, e := range p.children {
		env.Send(e, done)
	}
	env.Halt()
}

// noEdge marks "no arrival edge" for the initial wave.
const noEdge = graph.EdgeID(-1)

func (p *gcNode[T]) flood(env *local.Env, msg gcMsg[T], except graph.EdgeID) {
	var wave any = msg // boxed once per sweep
	for _, pt := range env.Ports() {
		if pt.Edge != except {
			env.Send(pt.Edge, wave)
		}
	}
}

// ErrNotConverged reports a run that ended without every node holding the
// merged value — only an adversarial network (lost, delayed or crashed
// control traffic) can starve the protocol so, or a wave deadline below the
// host's diameter. Test for it with errors.Is.
var ErrNotConverged = errors.New("globalcompute: aggregation did not converge")

// Converge executes the wave/tree/convergecast/broadcast protocol on host:
// node v starts with inputs[v], the root merges every input with merge, and
// the merged value is flooded back down so every node returns it. merge must
// be commutative and associative (the tree imposes an arbitrary combination
// order); it may mutate and return a, but must not retain b's substructure
// for later mutation. waveRounds must be an upper bound on host's diameter —
// over a spanner of stretch α, α times a bound on G's diameter. Round events
// stream through cfg.OnRound; cancelling ctx aborts within one node step. A
// run that does not converge fails with ErrNotConverged.
func Converge[T any](ctx context.Context, host *graph.Graph, inputs []T, merge func(a, b T) T, waveRounds int, cfg local.Config) ([]T, local.Result, error) {
	if len(inputs) != host.NumNodes() {
		return nil, local.Result{}, fmt.Errorf("globalcompute: %d inputs for %d nodes", len(inputs), host.NumNodes())
	}
	if waveRounds < 1 {
		waveRounds = 1
	}
	nodes := make([]*gcNode[T], host.NumNodes())
	cfg.MaxRounds = waveRounds*3 + host.NumNodes() + 16
	res, err := local.RunCtx(ctx, host, func(v graph.NodeID) local.Protocol {
		nodes[v] = &gcNode[T]{input: inputs[v], merge: merge, waveRounds: waveRounds}
		return nodes[v]
	}, cfg)
	if err != nil {
		return nil, res, err
	}
	if !res.Halted {
		return nil, res, ErrNotConverged
	}
	out := make([]T, len(nodes))
	for v, nd := range nodes {
		if !nd.haveVal {
			return nil, res, fmt.Errorf("globalcompute: node %d finished without a value: %w", v, ErrNotConverged)
		}
		out[v] = nd.value
	}
	return out, res, nil
}

// DetectTermination is distributed termination detection over host's BFS
// tree, the reusable primitive behind the "gossip-converge" scheme: every
// node starts with a local completion predicate done[v], the min-ID wave
// elects a root and builds the tree, the predicates are convergecast up
// under logical AND, and the root broadcasts the verdict back down — the
// "halt" wave when it is true. The returned verdict is the unanimous AND
// (all nodes learn the same value by construction); Result carries the
// detection pass's full round and message bill, which callers should account
// as its own phase — knowing you are done is not free, and this is its
// price. waveRounds must upper-bound host's diameter; each control message
// carries O(1) words.
func DetectTermination(ctx context.Context, host *graph.Graph, done []bool, waveRounds int, cfg local.Config) (bool, local.Result, error) {
	vals, res, err := Converge(ctx, host, done, func(a, b bool) bool { return a && b }, waveRounds, cfg)
	return err == nil && !slices.Contains(vals, false), res, err
}
