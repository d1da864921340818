package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements the paper's Section 5: the LOCAL-model realization of
// algorithm Sampler. Each virtual node of the level graph G_j is a cluster
// of original nodes; its local actions are simulated by broadcast and
// convergecast sessions over the cluster's spanning tree (depth ≤ 3^j − 1 by
// Lemma 8), on a global lockstep schedule (see schedule.go).
//
// A tree broadcast is the main session. Its six messages — trial, center,
// fail-safe, decide, flush and new-cluster — are treeMsg values: a live root
// builds one in rootMsg at the start of each broadcast phase, and broadcast
// applies it at every cluster node (treeMsg.apply, given the arrival edge)
// and relays the interface value it received, without re-boxing it, to the
// node's tree children. One receipt case in handleMessage serves all six.
// The new-cluster flood runs over the merged tree: each member re-roots as
// it applies the flood, taking the arrival edge as its parent.
//
// A convergecast is the way back up, and its four — trial replies, probe
// replies, fail-safe replies and accepted joins — share one path too. A
// node collects convItem values in one slice: the replies and joins it
// receives itself and its children's aggregates. Once every child has
// reported, it sends the slice to its parent as one mConv message (one
// receipt case serves all four), and the root reduces it in the phase's
// finalize step. Each item's kind fixes its word bill.
//
// The fail-safe is part of the protocol, not an option: a root that would
// end a level neither light nor merged queries every remaining unexplored
// edge, turning the paper's whp stretch guarantee (Lemmas 5–6) into a
// worst-case one. DistResult.FailSafeNodes counts how often it carried edges.
//
// Four devices keep the message complexity at Õ(n^{1+δ+1/h}) and its
// simulation cheap. Each stays within the paper's LOCAL model, which bounds
// neither message size nor local computation:
//
//  1. query replies carry the replying cluster's entire boundary edge-ID
//     set (one message — LOCAL does not bound message size), letting the
//     querier peel every parallel edge to that cluster at once;
//  2. merged clusters compute their new boundary with the "count-one" rule —
//     an edge ID appearing in two constituent boundaries became internal —
//     so no per-edge communication is ever needed;
//  3. clusters that stop participating ("unclustered"/dead) never announce
//     their death on their boundary; staleness is discovered lazily by the
//     DEAD query reply, which also carries the dead cluster's final boundary
//     for bulk peeling;
//  4. a root broadcasts each trial's distinct draws (in first-draw order)
//     rather than the raw with-replacement sequence, and the broadcast is
//     still billed one word per draw: a repeat changes no decision, since
//     the root's reduction skips an edge it has already peeled and a member
//     queries each incident edge once.

// noEdge marks "no edge" in tree bookkeeping; the distributed Sampler
// requires non-negative edge IDs.
const noEdge = graph.EdgeID(-1)

// Traffic splits the distributed Sampler's messages by kind. Every message
// the protocol sends is of exactly one kind, so the fields sum to the run's
// message total.
type Traffic struct {
	Query  int64 // trial + fail-safe query messages
	Reply  int64 // their replies
	Tree   int64 // broadcast/convergecast/flood traffic
	Accept int64 // spanner-membership notifications
	Probe  int64 // center-status probes + replies
	Join   int64 // cluster-merge messages
}

// add accumulates o into t.
func (t *Traffic) add(o Traffic) {
	t.Query += o.Query
	t.Reply += o.Reply
	t.Tree += o.Tree
	t.Accept += o.Accept
	t.Probe += o.Probe
	t.Join += o.Join
}

// DistResult is the outcome of the distributed Sampler.
type DistResult struct {
	// S is the spanner edge set, strictly ascending: the union of the
	// nodes' incident spanner edges (each edge known to both endpoints).
	S []graph.EdgeID
	// Run carries the LOCAL-model cost metrics (rounds, messages).
	Run local.Result
	// Traffic splits Run.Messages by message kind.
	Traffic Traffic
	// ScheduleRounds is the fixed global schedule length (the run uses
	// exactly this many rounds).
	ScheduleRounds int
	// FailSafeNodes counts the root fail-safe broadcasts that carried
	// edges: each rescues one level-graph node by exhaustive querying, the
	// distributed twin of Result.FailSafeNodes. Under the paper's whp
	// analysis it is 0.
	FailSafeNodes int
	// Params echoes the parameters.
	Params Params

	nodes []*distNode // retained for white-box tests
}

// StretchBound returns the certified stretch 2·3^K − 1.
func (r *DistResult) StretchBound() int { return r.Params.StretchBound() }

// BuildDistributed runs the distributed Sampler on g under the LOCAL
// simulator and returns the spanner with full cost accounting. Cancelling
// ctx aborts the underlying LOCAL run mid-round. The protocol assumes the
// reliable synchronous network, so a cfg carrying an Adversary is an error.
func BuildDistributed(ctx context.Context, g *graph.Graph, p Params, seed uint64, cfg local.Config) (*DistResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Adversary != nil {
		return nil, fmt.Errorf("core: the distributed Sampler needs the reliable network; run it without an adversary")
	}
	if p.DisablePeeling {
		return nil, fmt.Errorf("core: the distributed Sampler always peels; DisablePeeling is supported by the centralized Sampler only")
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	for _, e := range g.Edges() {
		if e.ID < 0 {
			return nil, fmt.Errorf("core: distributed Sampler requires non-negative edge IDs (got %d)", e.ID)
		}
	}
	if !g.IsSimple() {
		// The paper's communication graph is simple (multiplicities arise
		// only in the virtual level graphs); the level-0 reply optimization
		// (nil boundary) depends on it.
		return nil, fmt.Errorf("core: distributed Sampler requires a simple input graph")
	}
	sched := buildSchedule(p)
	nodes := make([]*distNode, g.NumNodes())
	cfg.Seed = seed
	cfg.MaxRounds = sched.total + 1
	run, err := local.RunCtx(ctx, g, func(v graph.NodeID) local.Protocol {
		nd := &distNode{sched: sched, id: v}
		nodes[v] = nd
		return nd
	}, cfg)
	if err != nil {
		return nil, err
	}
	if !run.Halted {
		return nil, fmt.Errorf("core: distributed Sampler did not halt within its schedule (%d rounds)", sched.total)
	}
	res := &DistResult{
		Run:            run,
		ScheduleRounds: sched.total,
		Params:         p,
		nodes:          nodes,
	}
	for _, nd := range nodes {
		res.S = append(res.S, nd.inS...)
		res.Traffic.add(nd.sent)
		res.FailSafeNodes += nd.failSafes
	}
	slices.Sort(res.S)
	res.S = slices.Compact(res.S)
	return res, nil
}

// distNode is the per-node protocol state machine. Its sets are ascending
// slices, and a root's X_v is an edgePool: it keeps no map.
type distNode struct {
	sched    *schedule
	id       graph.NodeID
	phaseIdx int
	n        int        // nEstimate, fixed for the run
	knobs    levelKnobs // the current level's, kept by live roots only

	edges []graph.EdgeID // my incident edges, ascending (the level-0 boundary's list)

	// Cluster membership (current level).
	dead          bool
	isRoot        bool
	parent        graph.EdgeID   // meaningful when !isRoot
	tree          []graph.EdgeID // my incident cluster-tree edges, sorted
	clusterRoot   graph.NodeID
	cb            *boundary
	centerCluster bool // the root's coin, known cluster-wide after mCenter
	decis         decision

	// Root-only level state.
	x           edgePool
	queried     []queriedCluster // ascending by Root
	fPending    []graph.EdgeID
	sampleOrder []graph.EdgeID
	fsOrder     []graph.EdgeID
	failSafes   int // fail-safe broadcasts that carried edges

	// Member transients (prepared by broadcast receipt, consumed by the
	// following send slot). mySends holds the trial's sampled edges, the
	// probe edges or the fail-safe edges, whichever the last broadcast
	// handed this node.
	mySends       []graph.EdgeID
	accepts       []graph.EdgeID
	joinEdge      graph.EdgeID // noEdge unless this node ships its cluster's join
	acceptedJoins []graph.EdgeID
	bcastSeen     bool // this broadcast phase's message has been applied here

	// Convergecast state.
	convWaiting int
	convSent    bool
	items       []convItem

	// Outputs.
	inS      []graph.EdgeID // my incident spanner edges, ascending
	fDecided []graph.EdgeID // F-edges decided here as a root; tests union them
	sent     Traffic        // this node's sends, by kind
}

// levelKnobs holds a level's threshold, per-trial sample count and
// center-marking probability. A live root evaluates them once as it enters
// the level; every broadcast and reduction of the level reads them.
type levelKnobs struct {
	threshold, samples int
	centerProb         float64
}

// queriedCluster is one cluster a root has queried: the F-edge it added
// toward the cluster and whether the cluster reported itself a center.
type queriedCluster struct {
	Root   graph.NodeID
	Edge   graph.EdgeID
	Center bool
}

var _ local.Protocol = (*distNode)(nil)

// Step drives the node through the global schedule. Per round: advance the
// phase pointer, run entry actions, process the inbox (message-type
// dispatch), then convergecast post-processing and exit assertions. The
// schedule guarantees every message arrives within the phase that consumes
// it (see schedule.go for the round accounting).
func (nd *distNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		nd.init(env)
	}
	idx, ph := nd.sched.at(round, nd.phaseIdx)
	nd.phaseIdx = idx

	if round == ph.start {
		nd.enterPhase(env, ph)
	}
	for _, m := range inbox {
		nd.handleMessage(env, ph, m)
	}
	nd.convMaybeComplete(env, ph)
	if round == ph.start+ph.dur-1 {
		nd.exitPhase(env, ph)
	}
	if round == nd.sched.total-1 {
		env.Halt()
	}
}

// init sets up the level-0 singleton cluster: every node is its own root,
// its boundary is its incident edge set, and its tree is empty.
func (nd *distNode) init(env *local.Env) {
	nd.n = nEstimate(env)
	nd.edges = make([]graph.EdgeID, 0, env.Degree())
	for _, pt := range env.Ports() {
		nd.edges = append(nd.edges, pt.Edge)
	}
	nd.isRoot = true
	nd.clusterRoot = nd.id
	nd.joinEdge = noEdge // 0 is a valid edge ID
	// Boundaries are immutable, so the level-0 boundary shares the list.
	nd.cb = &boundary{list: nd.edges}
	nd.resetRootLevelState()
}

// mine reports whether e is incident to this node.
func (nd *distNode) mine(e graph.EdgeID) bool {
	_, ok := slices.BinarySearch(nd.edges, e)
	return ok
}

func (nd *distNode) resetRootLevelState() {
	nd.x = newEdgePool(slices.Clone(nd.cb.list)) // the boundary is shared
	nd.queried = nd.queried[:0]
	nd.sampleOrder = nil
	nd.fsOrder = nil
	nd.decis = decNone
}

// children returns the number of tree children (tree edges minus parent).
func (nd *distNode) children() int {
	n := len(nd.tree)
	if !nd.isRoot {
		n--
	}
	return n
}

// ---------------------------------------------------------------- entry ---

func (nd *distNode) enterPhase(env *local.Env, ph phase) {
	if ph.kind == phTrialBcast && ph.trial == 0 && nd.isRoot && !nd.dead {
		// A level opens with its first trial broadcast.
		p, j := nd.sched.p, ph.level
		nd.knobs = levelKnobs{p.threshold(j, nd.n), p.samplesPerTrial(j, nd.n), p.centerProb(j, nd.n)}
	}
	switch ph.kind {
	case phTrialBcast, phCenterBcast, phFSBcast, phDecideBcast, phNewCluster, phFlushBcast:
		nd.bcastSeen = false
		if nd.isRoot && !nd.dead {
			if msg := nd.rootMsg(env, ph); msg != nil {
				nd.broadcast(env, noEdge, msg)
			}
		}
	case phTrialConv, phProbeConv, phFSConv, phJoinConv:
		if !nd.dead {
			nd.convWaiting = nd.children()
			nd.convSent = false
			nd.items = nil
		}
	case phTrialQuery, phFSQuery, phProbeSend:
		nd.flushAccepts(env)
		if !nd.dead {
			var msg any = mQuery{FS: ph.kind == phFSQuery}
			tally := &nd.sent.Query
			if ph.kind == phProbeSend {
				msg, tally = mProbe{}, &nd.sent.Probe
			}
			for _, e := range nd.mySends {
				env.Send(e, msg)
				*tally++
			}
			nd.mySends = nil
		}
	case phJoinSend:
		nd.flushAccepts(env)
		if nd.joinEdge != noEdge {
			env.Send(nd.joinEdge, mJoin{B: nd.cb})
			nd.sent.Join++
			nd.joinEdge = noEdge
		}
	case phFlushAccept:
		nd.flushAccepts(env)
	}
}

// flushAccepts notifies far endpoints of newly decided spanner edges. Dead
// nodes still flush: their final F additions arrive with the DEAD verdict.
func (nd *distNode) flushAccepts(env *local.Env) {
	for _, e := range nd.accepts {
		env.Send(e, mAccept{})
		nd.sent.Accept++
	}
	nd.accepts = nil
}

// broadcast applies a tree broadcast at this node and relays it over every
// tree edge except the one it arrived on (noEdge at the root: to all
// children). The relay sends the received interface value itself, so it
// re-boxes nothing. A tree delivers each broadcast to a node once.
func (nd *distNode) broadcast(env *local.Env, from graph.EdgeID, msg treeMsg) {
	if nd.bcastSeen {
		panic(fmt.Sprintf("core: node %d: duplicate %T broadcast", nd.id, msg))
	}
	nd.bcastSeen = true
	msg.apply(nd, from)
	for _, e := range nd.tree {
		if e != from {
			env.Send(e, msg)
			nd.sent.Tree++
		}
	}
}

// ----------------------------------------------------------- root entry ---

// rootMsg builds the tree broadcast a live root sends at the start of a
// broadcast phase, or returns nil when it sends none: a root that joins a
// center is re-rooted by the center's new-cluster flood.
func (nd *distNode) rootMsg(env *local.Env, ph phase) treeMsg {
	switch ph.kind {
	case phTrialBcast:
		idle := len(nd.queried) >= nd.knobs.threshold || nd.x.empty()
		var draws int
		nd.sampleOrder = nil
		if !idle {
			nd.sampleOrder, draws = nd.x.drawDistinct(env.Rand(), nd.knobs.samples)
		}
		return mTrial{Samples: nd.sampleOrder, Draws: draws, FAdds: nd.takeFAdds()}
	case phCenterBcast:
		isCenter := env.Rand().Bernoulli(nd.knobs.centerProb)
		probes := make([]graph.EdgeID, 0, len(nd.queried))
		for _, q := range nd.queried {
			probes = append(probes, q.Edge)
		}
		slices.Sort(probes)
		return mCenter{IsCenter: isCenter, Probes: probes, FAdds: nd.takeFAdds()}
	case phFSBcast:
		// Below level K only a root that would otherwise end up
		// unclustered-and-not-light needs rescuing: non-center, unexplored
		// edges remaining, and no center among its queried neighbors.
		nd.fsOrder = nil
		if !nd.x.empty() && (ph.level == nd.sched.p.K || (!nd.centerCluster && nd.smallestQueriedCenter() == noEdge)) {
			nd.fsOrder = nd.x.snapshot()
			nd.failSafes++
		}
		return mFS{Edges: nd.fsOrder}
	case phDecideBcast:
		msg := mDecide{Decision: decDead}
		if nd.centerCluster {
			msg.Decision = decCenter
		} else if e := nd.smallestQueriedCenter(); e != noEdge {
			msg = mDecide{Decision: decJoin, JoinEdge: e}
		}
		msg.FAdds = nd.takeFAdds()
		return msg
	case phNewCluster:
		if nd.decis != decCenter {
			return nil
		}
		nd.growTree()
		nd.resetRootLevelState()
		return mNewCluster{Root: nd.id, B: nd.cb}
	case phFlushBcast:
		return mFlush{FAdds: nd.takeFAdds()}
	}
	panic(fmt.Sprintf("core: node %d: %v is not a broadcast phase", nd.id, ph))
}

// takeFAdds hands the F additions decided since the last broadcast to the
// next one.
func (nd *distNode) takeFAdds() []graph.EdgeID {
	f := nd.fPending
	nd.fPending = nil
	return f
}

// smallestQueriedCenter returns the F-edge to the smallest queried center,
// or noEdge if none: the center a non-center root joins (the paper allows an
// arbitrary choice; smallest keeps runs reproducible).
func (nd *distNode) smallestQueriedCenter() graph.EdgeID {
	for _, q := range nd.queried {
		if q.Center {
			return q.Edge
		}
	}
	return noEdge
}

// findQueried binary-searches queried for root's entry.
func (nd *distNode) findQueried(root graph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(nd.queried, root, func(q queriedCluster, r graph.NodeID) int { return cmp.Compare(q.Root, r) })
}

// growTree adds the accepted join edges, and extra, to the cluster tree. The
// tree stays sorted and duplicate-free, so every relay sends in edge order.
func (nd *distNode) growTree(extra ...graph.EdgeID) {
	tree := slices.Concat(nd.tree, nd.acceptedJoins, extra)
	slices.Sort(tree)
	nd.tree = slices.Compact(tree)
	nd.acceptedJoins = nil
}

// -------------------------------------------------------------- receipt ---

func (nd *distNode) handleMessage(env *local.Env, ph phase, m local.Message) {
	switch msg := m.Payload.(type) {
	case treeMsg:
		nd.broadcast(env, m.Edge, msg)
	case mQuery:
		env.Send(m.Edge, nd.composeReply(ph, msg.FS))
		nd.sent.Reply++
	case mReply:
		nd.items = append(nd.items, convItem{
			Kind: convReply, Edge: m.Edge, Root: msg.Root, Dead: msg.Dead, IsCenter: msg.IsCenter, B: msg.B,
		})
	case mConv:
		nd.items = append(nd.items, msg...)
		nd.convWaiting--
	case mAccept:
		nd.inS = graph.InsertEdgeID(nd.inS, m.Edge)
	case mProbe:
		// A probe travels over an F-edge of the probing cluster, so this
		// edge is in the spanner; record that before answering.
		nd.inS = graph.InsertEdgeID(nd.inS, m.Edge)
		env.Send(m.Edge, mProbeReply{Root: nd.clusterRoot, IsCenter: nd.centerCluster})
		nd.sent.Probe++
	case mProbeReply:
		nd.items = append(nd.items, convItem{Kind: convProbe, Edge: m.Edge, Root: msg.Root, IsCenter: msg.IsCenter})
	case mJoin:
		nd.acceptedJoins = append(nd.acceptedJoins, m.Edge)
		nd.items = append(nd.items, convItem{Kind: convJoin, Edge: m.Edge, B: msg.B})
	default:
		panic(fmt.Sprintf("core: node %d: unexpected message %T in phase %v", nd.id, m.Payload, ph))
	}
}

// composeReply answers a (fail-safe) query: my cluster's identity, vital
// status, and boundary. At level 0 the input graph is simple and no node is
// dead, so the boundary is omitted — the querier peels just the query edge.
func (nd *distNode) composeReply(ph phase, fs bool) mReply {
	b := nd.cb
	if ph.level == 0 && !nd.dead {
		b = nil
	}
	isCenter := fs && nd.centerCluster && !nd.dead
	return mReply{Root: nd.clusterRoot, Dead: nd.dead, IsCenter: isCenter, B: b}
}

// markFAdds records newly decided spanner edges incident to this node and
// queues far-endpoint notifications.
func (nd *distNode) markFAdds(fAdds []graph.EdgeID) {
	for _, e := range fAdds {
		if nd.mine(e) {
			nd.inS = graph.InsertEdgeID(nd.inS, e)
			nd.accepts = append(nd.accepts, e)
		}
	}
}

// ownIncident filters a broadcast edge list down to this node's own edges,
// preserving order. Every list it is given is duplicate-free — a trial's
// distinct draws, the probe edges (one per queried cluster) and the
// fail-safe snapshot — so the output is too.
func (nd *distNode) ownIncident(edges []graph.EdgeID) []graph.EdgeID {
	var out []graph.EdgeID
	for _, e := range edges {
		if nd.mine(e) {
			out = append(out, e)
		}
	}
	return out
}

func (m mTrial) apply(nd *distNode, _ graph.EdgeID) {
	nd.markFAdds(m.FAdds)
	nd.mySends = nd.ownIncident(m.Samples)
}

func (m mCenter) apply(nd *distNode, _ graph.EdgeID) {
	nd.markFAdds(m.FAdds)
	nd.centerCluster = m.IsCenter
	nd.mySends = nd.ownIncident(m.Probes)
}

func (m mFS) apply(nd *distNode, _ graph.EdgeID) {
	nd.mySends = nd.ownIncident(m.Edges)
}

func (m mDecide) apply(nd *distNode, _ graph.EdgeID) {
	nd.markFAdds(m.FAdds)
	nd.decis = m.Decision
	switch m.Decision {
	case decDead:
		nd.dead = true // cb is frozen as the final boundary
	case decJoin:
		if nd.mine(m.JoinEdge) {
			nd.joinEdge = m.JoinEdge
		}
	}
}

func (m mFlush) apply(nd *distNode, _ graph.EdgeID) {
	nd.markFAdds(m.FAdds)
}

// apply re-roots a member of the merged cluster: the arrival edge joins its
// tree as its parent edge. The root re-rooted itself in rootMsg.
func (m mNewCluster) apply(nd *distNode, from graph.EdgeID) {
	if from == noEdge {
		return
	}
	nd.growTree(from)
	nd.parent = from
	nd.clusterRoot = m.Root
	nd.cb = m.B
	nd.isRoot = false
	nd.decis = decNone
	nd.x = edgePool{}
	nd.queried = nil
}

// -------------------------------------------------------- convergecasts ---

// convMaybeComplete fires once all children reported during a convergecast
// phase: members forward their aggregate to the parent; the root finalizes.
func (nd *distNode) convMaybeComplete(env *local.Env, ph phase) {
	switch ph.kind {
	case phTrialConv, phProbeConv, phFSConv, phJoinConv:
	default:
		return
	}
	if nd.dead || nd.convSent || nd.convWaiting > 0 {
		return
	}
	nd.convSent = true
	if !nd.isRoot {
		env.Send(nd.parent, mConv(nd.items))
		nd.sent.Tree++
		return
	}
	switch ph.kind {
	case phTrialConv:
		nd.finalizeTrialConv()
	case phProbeConv:
		nd.finalizeProbeConv()
	case phFSConv:
		nd.finalizeFSConv()
	case phJoinConv:
		nd.finalizeJoinConv()
	}
}

// finalizeTrialConv is the root's reduction of a trial: process replies in
// first-draw order, peel replying clusters out of X_v, and grow F up to the
// threshold budget — the exact logic of the centralized Cluster_j step 1.
func (nd *distNode) finalizeTrialConv() {
	nd.walkReplies(nd.sampleOrder, func(e graph.EdgeID, it convItem) bool {
		if it.Dead {
			nd.peelReply(e, it)
			return true
		}
		if it.Root == nd.id {
			panic(fmt.Sprintf("core: root %d: boundary contains intra-cluster edge %d", nd.id, e))
		}
		if len(nd.queried) >= nd.knobs.threshold {
			return false // budget reached; mirrors the centralized cap
		}
		if _, dup := nd.findQueried(it.Root); dup {
			panic(fmt.Sprintf("core: root %d: cluster %d re-discovered; peeling failed", nd.id, it.Root))
		}
		nd.addF(it.Root, e)
		nd.peelReply(e, it)
		return true
	})
	nd.sampleOrder = nil
}

// walkReplies is the reply lookup both reply reductions share: it hands
// visit each edge of order that is still unexplored, with the reply that
// answered the query over it, until visit returns false. It sorts the
// root's items by edge (each queried edge has one reply) to look them up.
func (nd *distNode) walkReplies(order []graph.EdgeID, visit func(e graph.EdgeID, it convItem) bool) {
	byEdge := func(it convItem, e graph.EdgeID) int { return cmp.Compare(it.Edge, e) }
	slices.SortFunc(nd.items, func(a, b convItem) int { return byEdge(a, b.Edge) })
	for _, e := range order {
		if !nd.x.contains(e) {
			continue // peeled earlier in this walk (parallel duplicate)
		}
		i, ok := slices.BinarySearchFunc(nd.items, e, byEdge)
		if !ok {
			panic(fmt.Sprintf("core: root %d: no reply for queried edge %d", nd.id, e))
		}
		if !visit(e, nd.items[i]) {
			return
		}
	}
}

// addF adds e to F as the edge toward root's cluster, inserting root into
// queried or overwriting its edge, and returns root's entry.
func (nd *distNode) addF(root graph.NodeID, e graph.EdgeID) *queriedCluster {
	i, ok := nd.findQueried(root)
	if !ok {
		nd.queried = slices.Insert(nd.queried, i, queriedCluster{Root: root})
	}
	nd.queried[i].Edge = e
	nd.fPending = append(nd.fPending, e)
	nd.fDecided = append(nd.fDecided, e)
	return &nd.queried[i]
}

func (nd *distNode) peelReply(e graph.EdgeID, it convItem) {
	if it.B != nil {
		nd.x.removeAll(it.B.list)
	} else {
		nd.x.remove(e)
	}
}

func (nd *distNode) finalizeProbeConv() {
	for _, it := range nd.items {
		i, known := nd.findQueried(it.Root)
		if !known {
			panic(fmt.Sprintf("core: root %d: probe reply from unknown cluster %d", nd.id, it.Root))
		}
		nd.queried[i].Center = it.IsCenter
	}
}

// finalizeFSConv is the fail-safe reduction: every remaining edge was
// queried, so peel everything and record every newly discovered neighbor
// (no budget cap — the point is to become light).
func (nd *distNode) finalizeFSConv() {
	if len(nd.fsOrder) == 0 {
		return
	}
	nd.walkReplies(nd.fsOrder, func(e graph.EdgeID, it convItem) bool {
		if !it.Dead {
			nd.addF(it.Root, e).Center = it.IsCenter
		}
		nd.peelReply(e, it)
		return true
	})
	if !nd.x.empty() {
		panic(fmt.Sprintf("core: root %d: fail-safe left %d unexplored edges", nd.id, nd.x.size()))
	}
	nd.fsOrder = nil
}

// finalizeJoinConv merges the accepted joiners' boundaries with the center's
// own using the count-one rule: an edge ID contributed by two constituent
// boundaries has both endpoints inside the merged cluster and disappears.
// Sorting the concatenated lists puts equal IDs side by side, so the merged
// boundary is the IDs that occur exactly once, already in order. It replaces
// the center root's cb at once: nothing reads the root's cb before the
// new-cluster flood carries it.
func (nd *distNode) finalizeJoinConv() {
	if nd.decis != decCenter {
		nd.items = nil // stale aggregates at a joining/dying old root
		return
	}
	all := slices.Clone(nd.cb.list)
	for _, it := range nd.items {
		all = append(all, it.B.list...)
	}
	slices.Sort(all)
	var edges []graph.EdgeID
	for i, e := range all {
		if (i == 0 || all[i-1] != e) && (i+1 == len(all) || all[i+1] != e) {
			edges = append(edges, e)
		}
	}
	nd.cb = &boundary{list: edges}
	nd.items = nil
}

// ----------------------------------------------------------------- exit ---

// exitPhase asserts schedule invariants at phase boundaries: convergecasts
// must have completed, and a fail-safe run must have emptied the pool.
func (nd *distNode) exitPhase(env *local.Env, ph phase) {
	switch ph.kind {
	case phTrialConv, phProbeConv, phFSConv, phJoinConv:
		if !nd.dead && !nd.convSent {
			panic(fmt.Sprintf("core: node %d: convergecast %v incomplete (%d children missing)",
				nd.id, ph, nd.convWaiting))
		}
	}
}

// nEstimate derives the node-count estimate the protocol parameterizes
// itself with. The paper's model assumption (i) grants every node an
// O(1)-approximate upper bound on log n (equivalently a poly(n) upper bound
// on n), not n itself; deriving the estimate from Env.LogN honors that —
// under local.Config.LogNSlack > 1 every node consistently overestimates n
// and the construction degrades gracefully (larger thresholds, valid
// spanner), which TestDistributedLogNSlackRobust verifies.
func nEstimate(env *local.Env) int {
	return int(math.Pow(2, env.LogN()) + 0.5)
}
