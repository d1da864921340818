package spanner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/local"
)

// Distributed Baswana–Sen. The protocol is the textbook LOCAL realization:
// in each of the k−1 sampling iterations every clustered node announces its
// (cluster, sampled) pair over every incident edge, so the message
// complexity is Θ(k·m) — this is the baseline whose Ω(m) bottleneck the
// paper's algorithm Sampler removes. Round complexity is O(k²) (iteration i
// pays i rounds for the center-coin broadcast down radius-(i−1) cluster
// trees).

// BaswanaSenConstruction is Baswana–Sen with parameter k >= 1 and sampling
// probability n^{-1/k}: a (2k−1)-spanner of expected size O(k·n^{1+1/k})
// in bsRounds(k) = O(k²) rounds.
//
// The paper's two-stage scheme simulates the spanner construction of Derbel
// et al.; this reproduction substitutes Baswana–Sen. Nothing in the
// simulation depends on that choice: stage 2 collects every node's t₂-ball
// over the stage-1 spanner and replays the construction locally, which is
// exact for any fixed-round LOCAL protocol whose per-node output is its
// incident spanner edges — the Construction contract. Any construction
// meeting it is a valid stage-2 target. What the substitution costs is the
// target's round count: O(k²) rounds, multiplied by the stage-1 stretch in
// the stage-2 collection. ElkinNeimanConstruction is the k+O(1)-round
// alternative.
func BaswanaSenConstruction(k int) (Construction, error) {
	if k < 1 {
		return Construction{}, fmt.Errorf("spanner: k = %d, need k >= 1", k)
	}
	return Construction{
		Spec: algorithms.Spec{
			Name:   "bs",
			T:      bsRounds(k),
			New:    func(graph.NodeID) local.Protocol { return NewBSNode(k) },
			Output: func(p local.Protocol) any { return p.(*BSNode).InS },
		},
		Stretch: 2*k - 1,
	}, nil
}

// bsRounds returns the fixed round budget of the protocol for stretch
// parameter k: Σ_{i=1..k-1}(i+3) for the sampling iterations plus 3 for the
// final clustering phase.
func bsRounds(k int) int {
	total := 3
	for i := 1; i < k; i++ {
		total += i + 3
	}
	return total
}

// bsPhase identifies what a round within one iteration does.
type bsPhase int

const (
	bsCoin     bsPhase = iota + 1 // center coin floods down the cluster tree
	bsAnnounce                    // clustered nodes announce over all edges
	bsDecide                      // join/leave decisions; PARENT and ACCEPT sends
	bsSettle                      // PARENT/ACCEPT receipts processed
	bsDone
)

// bsLocate maps a global round to (iteration, phase, round-within-coin).
// Iterations are 1..k-1; iteration k means the final clustering phase (which
// has no coin rounds).
func bsLocate(round, k int) (iter int, ph bsPhase) {
	for i := 1; i < k; i++ {
		coin := i // rounds for the coin broadcast (tree depth i-1, +1)
		if round < coin {
			return i, bsCoin
		}
		round -= coin
		if round < 3 {
			return i, []bsPhase{bsAnnounce, bsDecide, bsSettle}[round]
		}
		round -= 3
	}
	if round < 3 {
		return k, []bsPhase{bsAnnounce, bsDecide, bsSettle}[round]
	}
	return k, bsDone
}

// Message payloads.
type bsCoinMsg struct {
	Cluster graph.NodeID
	Sampled bool
}
type bsAnnounceMsg struct {
	Cluster graph.NodeID
	Sampled bool // meaningless in the final phase
}
type bsParentMsg struct{}
type bsAcceptMsg struct{}

// BSNode is the per-node protocol state.
type BSNode struct {
	K int

	cluster     graph.NodeID // my cluster's center, or -1 once unclustered
	clustered   bool
	isCenter    bool
	parent      graph.EdgeID
	hasParent   bool
	children    map[graph.EdgeID]bool
	sampledNow  bool // my cluster's coin this iteration
	coinKnown   bool
	anns        []bsAnn // announcements heard this iteration
	pendingJoin graph.EdgeID
	hasJoin     bool
	accepts     []graph.EdgeID

	// InS is the node's final knowledge: its incident spanner edges.
	InS map[graph.EdgeID]bool
}

type bsAnn struct {
	Edge    graph.EdgeID
	Cluster graph.NodeID
	Sampled bool
}

var _ local.Protocol = (*BSNode)(nil)

// unclustered marks a node that left the clustering.
const unclustered = graph.NodeID(-1)

// NewBSNode returns a protocol instance for one node.
func NewBSNode(k int) *BSNode {
	return &BSNode{K: k, children: make(map[graph.EdgeID]bool), InS: make(map[graph.EdgeID]bool)}
}

// Step implements local.Protocol.
func (nd *BSNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		nd.cluster = env.ID()
		nd.clustered = true
		nd.isCenter = true
	}
	iter, ph := bsLocate(round, nd.K)

	// Receipts first: they belong to the previous phase's sends.
	for _, m := range inbox {
		switch msg := m.Payload.(type) {
		case bsCoinMsg:
			nd.learnCoin(env, msg, m.Edge)
		case bsAnnounceMsg:
			nd.anns = append(nd.anns, bsAnn{Edge: m.Edge, Cluster: msg.Cluster, Sampled: msg.Sampled})
		case bsParentMsg:
			nd.children[m.Edge] = true
		case bsAcceptMsg:
			nd.InS[m.Edge] = true
		default:
			panic(fmt.Sprintf("spanner: unexpected message %T", m.Payload))
		}
	}

	switch ph {
	case bsCoin:
		// First coin round of the iteration: centers flip and start the
		// flood; everyone resets iteration-local state.
		if nd.iterStart(round) {
			nd.coinKnown = false
			nd.anns = nil
			if nd.clustered && nd.isCenter {
				p := math.Pow(float64(env.N()), -1.0/float64(nd.K))
				nd.sampledNow = env.Rand().Bernoulli(p)
				nd.coinKnown = true
				nd.forwardCoin(env, noFrom)
			}
		}
	case bsAnnounce:
		if iter == nd.K {
			nd.anns = nil // final phase has no coin rounds; reset here
		}
		if nd.clustered {
			for _, pt := range env.Ports() {
				env.Send(pt.Edge, bsAnnounceMsg{Cluster: nd.cluster, Sampled: nd.sampledNow})
			}
		}
	case bsDecide:
		nd.flushAccepts(env)
		if iter < nd.K {
			nd.decideIteration(env)
		} else {
			nd.decideFinal()
		}
	case bsSettle:
		nd.flushAccepts(env)
		if nd.hasJoin {
			env.Send(nd.pendingJoin, bsParentMsg{})
			nd.hasJoin = false
		}
	case bsDone:
		nd.flushAccepts(env)
		env.Halt()
	}
}

// noFrom marks "flood origin" for forwardCoin.
const noFrom = graph.EdgeID(-1)

// iterStart reports whether this round begins an iteration's coin phase.
func (nd *BSNode) iterStart(round int) bool {
	r := 0
	for i := 1; i < nd.K; i++ {
		if round == r {
			return true
		}
		r += i + 3
	}
	return false
}

func (nd *BSNode) learnCoin(env *local.Env, msg bsCoinMsg, from graph.EdgeID) {
	if nd.coinKnown || !nd.clustered {
		return
	}
	nd.sampledNow = msg.Sampled
	nd.coinKnown = true
	nd.forwardCoin(env, from)
}

func (nd *BSNode) forwardCoin(env *local.Env, from graph.EdgeID) {
	for _, e := range sortedEdges(nd.children) {
		if e != from {
			env.Send(e, bsCoinMsg{Cluster: nd.cluster, Sampled: nd.sampledNow})
		}
	}
}

// sortedEdges returns a map's edge keys in increasing ID order, so send
// sweeps over edge sets fire in the same order every run.
func sortedEdges[V any](m map[graph.EdgeID]V) []graph.EdgeID {
	ids := make([]graph.EdgeID, 0, len(m))
	for e := range m {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	return ids
}

func (nd *BSNode) flushAccepts(env *local.Env) {
	for _, e := range nd.accepts {
		env.Send(e, bsAcceptMsg{})
	}
	nd.accepts = nil
}

// decideIteration applies the Baswana–Sen case analysis for one vertex of an
// unsampled cluster: join a sampled neighboring cluster, or add one edge per
// neighboring cluster and leave.
func (nd *BSNode) decideIteration(env *local.Env) {
	if !nd.clustered || nd.sampledNow {
		return // unsampled? sampled clusters persist wholesale
	}
	// My cluster was not sampled: I re-decide individually, dropping my old
	// tree links.
	nd.children = make(map[graph.EdgeID]bool)
	nd.hasParent = false
	nd.isCenter = false

	best, bestEdge := bsBestSampled(nd.anns)
	if best != unclustered {
		nd.cluster = best
		nd.hasParent = true
		nd.parent = bestEdge
		nd.InS[bestEdge] = true
		nd.accepts = append(nd.accepts, bestEdge)
		nd.pendingJoin = bestEdge
		nd.hasJoin = true
		return
	}
	// No sampled neighbor: connect to every neighboring cluster and leave.
	for _, e := range bsClusterEdges(nd.anns, unclustered) {
		nd.InS[e] = true
		nd.accepts = append(nd.accepts, e)
	}
	nd.clustered = false
	nd.cluster = unclustered
}

// decideFinal applies phase 2: still-clustered vertices connect to every
// neighboring cluster other than their own.
func (nd *BSNode) decideFinal() {
	if !nd.clustered {
		return
	}
	for _, e := range bsClusterEdges(nd.anns, nd.cluster) {
		nd.InS[e] = true
		nd.accepts = append(nd.accepts, e)
	}
}

// bsBestSampled returns the smallest sampled cluster among announcements and
// the smallest edge reaching it.
func bsBestSampled(anns []bsAnn) (graph.NodeID, graph.EdgeID) {
	best := unclustered
	var bestEdge graph.EdgeID
	for _, a := range anns {
		if !a.Sampled {
			continue
		}
		if best == unclustered || a.Cluster < best || (a.Cluster == best && a.Edge < bestEdge) {
			best, bestEdge = a.Cluster, a.Edge
		}
	}
	return best, bestEdge
}

// bsClusterEdges returns one (smallest-ID) edge per announced cluster,
// excluding the given cluster, in deterministic order.
func bsClusterEdges(anns []bsAnn, exclude graph.NodeID) []graph.EdgeID {
	perCluster := make(map[graph.NodeID]graph.EdgeID)
	for _, a := range anns {
		if a.Cluster == exclude {
			continue
		}
		if e, ok := perCluster[a.Cluster]; !ok || a.Edge < e {
			perCluster[a.Cluster] = a.Edge
		}
	}
	out := make([]graph.EdgeID, 0, len(perCluster))
	for _, e := range perCluster {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Payload sizes (local.Sizer): words per message.

// PayloadUnits implements local.Sizer.
func (m bsCoinMsg) PayloadUnits() int64 { return 2 }

// PayloadUnits implements local.Sizer.
func (m bsAnnounceMsg) PayloadUnits() int64 { return 2 }
