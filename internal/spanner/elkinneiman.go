package spanner

import (
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/local"
)

// Elkin–Neiman spanner ("Efficient Algorithms for Constructing Very Sparse
// Spanners and Emulators", TALG 2018) — the construction the paper's
// concluding remarks point to as the drop-in improvement for the two-stage
// message-reduction scheme: a (2k−1)-spanner built in only k+O(1) rounds
// (Baswana–Sen needs O(k²)), so simulating it over the stage-1 spanner
// costs proportionally fewer rounds.
//
// The construction is a broadcast race with exponential start times. Every
// node u draws r_u ~ Exp(β), β = ln(n)/k, truncated below k (the truncation
// is the whp failure handling: it preserves the stretch argument and only
// perturbs the size bound), and starts a broadcast at continuous time
// k − r_u. Messages travel one hop per unit time; a node forwards a message
// exactly when it improves its earliest arrival ("first"). After the race,
// node v keeps every incident edge that delivered some message within one
// time unit of its first — these are the shortest-path forest edges toward
// the near-maximal sources {u : r_u − d(u,v) > m(v) − 1} of the centralized
// description, where m(v) = max_u (r_u − d(u,v)) = k − first(v).
//
// Why forwarding only improvements suffices (the chain lemma): if p
// delivered to v a message that lands in v's window, that message was an
// improvement at p, so its arrival at p lies in p's own window; inductively
// the delivery edges form a path back to the source, every edge of which is
// kept, of length at most r_u < k. For an edge (v,w) not in the spanner,
// v's first reaches w within w's window (or vice versa — ties are
// measure-zero under continuous draws unless the endpoints share a source,
// in which case both reach it in the forest), giving stretch
// ≤ 2(k−1) + 1 = 2k − 1.
//
// Expected size is O(n^{1+1/k}): window arrivals per node count the
// exponentials within 1 of the maximum, e^β = n^{1/k} in expectation.

// ElkinNeimanConstruction is Elkin–Neiman with parameter k >= 1: a
// (2k−1)-spanner in k+3 rounds — one start round, k propagation rounds, one
// decision/accept round and one receipt round. It is the improvement the
// paper's concluding remarks anticipate for the two-stage scheme
// (experiment E15 quantifies it).
func ElkinNeimanConstruction(k int) (Construction, error) {
	if k < 1 {
		return Construction{}, fmt.Errorf("spanner: k = %d, need k >= 1", k)
	}
	return Construction{
		Spec: algorithms.Spec{
			Name:   "en",
			T:      k + 3,
			New:    func(graph.NodeID) local.Protocol { return NewENNode(k) },
			Output: func(p local.Protocol) any { return p.(*ENNode).InS },
		},
		Stretch: 2*k - 1,
	}, nil
}

// enMsg carries the continuous arrival time at the receiver.
type enMsg struct{ T float64 }

// enAccept tells the far endpoint its edge joined the spanner.
type enAccept struct{}

// PayloadUnits implements local.Sizer.
func (enMsg) PayloadUnits() int64 { return 1 }

// ENNode is the per-node protocol state.
type ENNode struct {
	K int

	first float64 // earliest arrival time seen
	// bestVia is the earliest arrival per port, indexed by the port
	// positions of round 0: the ports must stay the same for the whole run.
	// EN never runs under adversary edge events, which would rebuild them.
	bestVia []float64
	InS     []graph.EdgeID // final knowledge: incident spanner edges, strictly ascending
}

var _ local.Protocol = (*ENNode)(nil)

// NewENNode returns a protocol instance for one node.
func NewENNode(k int) *ENNode {
	return &ENNode{K: k}
}

// Step implements local.Protocol.
func (nd *ENNode) Step(env *local.Env, round int, inbox []local.Message) {
	switch {
	case round == 0:
		// r ~ Exp(β) conditioned on r < k, by rejection: the conditioning is
		// the whp failure handling and, unlike clamping to a constant, keeps
		// the distribution atom-free — ties between distinct sources must
		// stay measure-zero or the stretch argument's tie-breaking fails.
		beta := math.Log(math.Max(2, float64(env.N()))) / float64(nd.K)
		r := env.Rand().Exp(beta)
		for i := 0; r >= float64(nd.K) && i < 64; i++ {
			r = env.Rand().Exp(beta)
		}
		if r >= float64(nd.K) {
			r = float64(nd.K) * (1 - env.Rand().Float64()/16) // unreachable in practice
		}
		nd.first = float64(nd.K) - r // own start time
		nd.bestVia = make([]float64, env.Degree())
		for i := range nd.bestVia {
			nd.bestVia[i] = math.Inf(1)
		}
		nd.wave(env)
	case round <= nd.K:
		// Ingest this round's arrivals, forward the best strict improvement.
		// The inbox and the ports both ascend by edge, so one pass finds
		// every arrival's port.
		improved := false
		ports, i := env.Ports(), 0
		for _, m := range inbox {
			for ports[i].Edge < m.Edge {
				i++
			}
			t := m.Payload.(enMsg).T
			nd.bestVia[i] = min(nd.bestVia[i], t)
			if t < nd.first {
				nd.first = t
				improved = true
			}
		}
		if improved && round < nd.K {
			nd.wave(env)
		}
	case round == nd.K+1:
		// Keep every edge that delivered an arrival within one time unit of
		// the first. Strict inequality excludes exact ties (same source at
		// the same distance via the far endpoint), which is what sparsifies
		// the level sets of m.
		for i, pt := range env.Ports() {
			if nd.bestVia[i] < nd.first+1 {
				nd.InS = append(nd.InS, pt.Edge)
				env.Send(pt.Edge, enAccept{})
			}
		}
	default:
		for _, m := range inbox {
			if _, ok := m.Payload.(enAccept); ok {
				nd.InS = graph.InsertEdgeID(nd.InS, m.Edge)
			}
		}
		env.Halt()
	}
}

// wave sends the node's current first arrival, one hop on, over every port.
func (nd *ENNode) wave(env *local.Env) {
	var msg any = enMsg{T: nd.first + 1} // boxed once per sweep
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, msg)
	}
}
