package core

import (
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
	// S is the spanner edge set, assembled from the endpoints' local
	// knowledge (every edge of S is known to both its endpoints).
	S map[graph.EdgeID]bool
	// FDecided is the union of F-sets decided by cluster roots; it must
	// equal S (checked by tests).
	FDecided map[graph.EdgeID]bool
	// Run carries the LOCAL-model cost metrics (rounds, messages).
	Run local.Result
	// Traffic splits Run.Messages by message kind.
	Traffic Traffic
	// ScheduleRounds is the fixed global schedule length (the run uses
	// exactly this many rounds).
	ScheduleRounds int
	// Params echoes the parameters.
	Params Params

	nodes []*distNode // retained for white-box tests
}

// StretchBound returns the certified stretch 2·3^K − 1.
func (r *DistResult) StretchBound() int { return r.Params.StretchBound() }

// BuildDistributed runs the distributed Sampler on g under the LOCAL
// simulator and returns the spanner with full cost accounting. It is
// BuildDistributedCtx with an uncancellable context.
func BuildDistributed(g *graph.Graph, p Params, seed uint64, cfg local.Config) (*DistResult, error) {
	return BuildDistributedCtx(context.Background(), g, p, seed, cfg)
}

// BuildDistributedCtx is BuildDistributed with cancellation: cancelling ctx
// aborts the underlying LOCAL run mid-round.
func BuildDistributedCtx(ctx context.Context, g *graph.Graph, p Params, seed uint64, cfg local.Config) (*DistResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
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
		nd := &distNode{sched: sched, p: p, id: v}
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
		S:              make(map[graph.EdgeID]bool),
		FDecided:       make(map[graph.EdgeID]bool),
		Run:            run,
		ScheduleRounds: sched.total,
		Params:         p,
		nodes:          nodes,
	}
	for _, nd := range nodes {
		for e := range nd.inS {
			res.S[e] = true
		}
		for _, e := range nd.fDecided {
			res.FDecided[e] = true
		}
		res.Traffic.add(nd.sent)
	}
	return res, nil
}

// distNode is the per-node protocol state machine.
type distNode struct {
	sched    *schedule
	p        Params
	id       graph.NodeID
	phaseIdx int
	inited   bool

	myEdges map[graph.EdgeID]bool // my incident edges (immutable after init)

	// Cluster membership (current level).
	dead          bool
	isRoot        bool
	hasParent     bool
	parent        graph.EdgeID
	tree          map[graph.EdgeID]bool // my incident cluster-tree edges
	depth         int
	clusterRoot   graph.NodeID
	cb            *boundary
	centerCluster bool
	decis         decision

	// Root-only level state.
	x             *edgePool
	fCount        int
	queried       map[graph.NodeID]graph.EdgeID
	queriedCenter map[graph.NodeID]bool
	fPending      []graph.EdgeID
	sampleOrder   []graph.EdgeID
	fsOrder       []graph.EdgeID
	isCenterFlag  bool
	pendingNewB   *boundary

	// Member transients (prepared by broadcast receipt, consumed by the
	// following send slot).
	mySamples     []graph.EdgeID
	myProbes      []graph.EdgeID
	myFS          []graph.EdgeID
	accepts       []graph.EdgeID
	sendJoin      bool
	joinEdge      graph.EdgeID
	acceptedJoins []graph.EdgeID
	floodSeen     bool

	// Convergecast state.
	convWaiting int
	convSent    bool
	itemsReply  []replyItem
	itemsProbe  []probeItem
	itemsJoin   []joinItem

	// Outputs.
	inS      map[graph.EdgeID]bool
	fDecided []graph.EdgeID
	sent     Traffic // this node's sends, by kind
}

var _ local.Protocol = (*distNode)(nil)

// Step drives the node through the global schedule. Per round: advance the
// phase pointer, run entry actions, process the inbox (message-type
// dispatch), then convergecast post-processing and exit assertions. The
// schedule guarantees every message arrives within the phase that consumes
// it (see schedule.go for the round accounting).
func (nd *distNode) Step(env *local.Env, round int, inbox []local.Message) {
	if !nd.inited {
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
	nd.inited = true
	ports := env.Ports()
	nd.myEdges = make(map[graph.EdgeID]bool, len(ports))
	edges := make([]graph.EdgeID, 0, len(ports))
	for _, pt := range ports {
		nd.myEdges[pt.Edge] = true
		edges = append(edges, pt.Edge)
	}
	nd.isRoot = true
	nd.clusterRoot = nd.id
	nd.tree = make(map[graph.EdgeID]bool)
	nd.cb = newBoundary(edges)
	nd.resetRootLevelState()
	nd.inS = make(map[graph.EdgeID]bool)
}

func (nd *distNode) resetRootLevelState() {
	nd.x = newEdgePool(nd.cb.list)
	nd.fCount = 0
	nd.queried = make(map[graph.NodeID]graph.EdgeID)
	nd.queriedCenter = make(map[graph.NodeID]bool)
	nd.sampleOrder = nil
	nd.fsOrder = nil
	nd.isCenterFlag = false
	nd.pendingNewB = nil
	nd.decis = decNone
}

// children returns the number of tree children (tree edges minus parent).
func (nd *distNode) children() int {
	n := len(nd.tree)
	if nd.hasParent {
		n--
	}
	return n
}

// ---------------------------------------------------------------- entry ---

func (nd *distNode) enterPhase(env *local.Env, ph phase) {
	switch ph.kind {
	case phTrialBcast:
		if nd.isRoot && !nd.dead {
			nd.rootTrialBcast(env, ph)
		}
	case phTrialConv, phProbeConv, phFSConv, phJoinConv:
		if !nd.dead {
			nd.convWaiting = nd.children()
			nd.convSent = false
			nd.itemsReply = nil
			nd.itemsProbe = nil
			nd.itemsJoin = nil
		}
	case phTrialQuery, phFSQuery:
		nd.flushAccepts(env)
		if !nd.dead {
			edges := nd.mySamples
			kind := any(mQuery{})
			if ph.kind == phFSQuery {
				edges = nd.myFS
				kind = mFSQuery{}
			}
			for _, e := range edges {
				env.Send(e, kind)
				nd.sent.Query++
			}
			nd.mySamples = nil
			nd.myFS = nil
		}
	case phCenterBcast:
		if nd.isRoot && !nd.dead {
			nd.rootCenterBcast(env, ph)
		}
	case phProbeSend:
		nd.flushAccepts(env)
		if !nd.dead {
			for _, e := range nd.myProbes {
				env.Send(e, mProbe{})
				nd.sent.Probe++
			}
			nd.myProbes = nil
		}
	case phFSBcast:
		if nd.isRoot && !nd.dead {
			nd.rootFSBcast(env, ph)
		}
	case phDecideBcast:
		if nd.isRoot && !nd.dead {
			nd.rootDecideBcast(env, ph)
		}
	case phJoinSend:
		nd.flushAccepts(env)
		if nd.sendJoin {
			env.Send(nd.joinEdge, mJoin{JoinerRoot: nd.clusterRoot, B: nd.cb})
			nd.sent.Join++
			nd.sendJoin = false
		}
	case phNewCluster:
		nd.floodSeen = false
		if nd.isRoot && !nd.dead && nd.decis == decCenter {
			nd.rootNewClusterFlood(env)
		}
	case phFlushBcast:
		if nd.isRoot && !nd.dead {
			msg := mFlush{FAdds: nd.fPending}
			nd.fPending = nil
			nd.handleFlush(env, msg)
			nd.forwardDown(env, noEdge, msg)
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

// forwardDown relays a broadcast payload over every tree edge except the one
// it arrived on (noEdge for the root: send to all children).
func (nd *distNode) forwardDown(env *local.Env, from graph.EdgeID, payload any) {
	for e := range nd.tree {
		if e != from {
			env.Send(e, payload)
			nd.sent.Tree++
		}
	}
}

// ----------------------------------------------------------- root entry ---

func (nd *distNode) rootTrialBcast(env *local.Env, ph phase) {
	idle := nd.fCount >= nd.p.threshold(ph.level, nEstimate(env)) || nd.x.empty()
	var samples []graph.EdgeID
	var draws int
	if !idle {
		samples, draws = nd.x.drawDistinct(env.Rand(), nd.p.samplesPerTrial(ph.level, nEstimate(env)))
	}
	nd.sampleOrder = samples
	msg := mTrial{Samples: samples, Draws: draws, FAdds: nd.fPending, Idle: idle}
	nd.fPending = nil
	nd.handleTrial(env, msg)
	nd.forwardDown(env, noEdge, msg)
}

func (nd *distNode) rootCenterBcast(env *local.Env, ph phase) {
	nd.isCenterFlag = env.Rand().Bernoulli(nd.p.centerProb(ph.level, nEstimate(env)))
	probes := make([]graph.EdgeID, 0, len(nd.queried))
	for _, e := range nd.queried {
		probes = append(probes, e)
	}
	slices.Sort(probes)
	msg := mCenter{IsCenter: nd.isCenterFlag, Probes: probes, FAdds: nd.fPending}
	nd.fPending = nil
	nd.handleCenter(env, msg)
	nd.forwardDown(env, noEdge, msg)
}

func (nd *distNode) rootFSBcast(env *local.Env, ph phase) {
	need := nd.p.FailSafe && !nd.x.empty()
	if need && ph.level < nd.p.K {
		// Only a node that would otherwise end up unclustered-and-not-light
		// needs rescuing: non-center, unexplored edges remaining, and no
		// center among its queried neighbors.
		if nd.isCenterFlag || nd.anyQueriedCenter() {
			need = false
		}
	}
	if need {
		nd.fsOrder = nd.x.snapshot()
	} else {
		nd.fsOrder = nil
	}
	msg := mFS{Edges: nd.fsOrder}
	nd.handleFS(env, msg)
	nd.forwardDown(env, noEdge, msg)
}

func (nd *distNode) anyQueriedCenter() bool {
	for _, isC := range nd.queriedCenter {
		if isC {
			return true
		}
	}
	return false
}

func (nd *distNode) rootDecideBcast(env *local.Env, ph phase) {
	var msg mDecide
	switch {
	case nd.isCenterFlag:
		msg = mDecide{Decision: decCenter}
	default:
		// Join the smallest queried center, if any (the paper allows an
		// arbitrary choice; smallest keeps runs reproducible).
		target := noNode
		for u, isC := range nd.queriedCenter {
			if isC && (target == noNode || u < target) {
				target = u
			}
		}
		if target != noNode {
			msg = mDecide{Decision: decJoin, JoinEdge: nd.queried[target]}
		} else {
			msg = mDecide{Decision: decDead}
		}
	}
	msg.FAdds = nd.fPending
	nd.fPending = nil
	nd.handleDecide(env, msg)
	nd.forwardDown(env, noEdge, msg)
}

func (nd *distNode) rootNewClusterFlood(env *local.Env) {
	if nd.pendingNewB == nil {
		panic(fmt.Sprintf("core: node %d: center root has no merged boundary", nd.id))
	}
	nd.cb = nd.pendingNewB
	for _, e := range nd.acceptedJoins {
		nd.tree[e] = true
	}
	nd.acceptedJoins = nil
	nd.depth = 0
	nd.resetRootLevelState()
	for e := range nd.tree {
		env.Send(e, mNewCluster{Root: nd.id, B: nd.cb, Depth: 0})
		nd.sent.Tree++
	}
}

// -------------------------------------------------------------- receipt ---

func (nd *distNode) handleMessage(env *local.Env, ph phase, m local.Message) {
	switch msg := m.Payload.(type) {
	case mTrial:
		nd.handleTrial(env, msg)
		nd.forwardDown(env, m.Edge, msg)
	case mQuery:
		env.Send(m.Edge, nd.composeReply(ph, false))
		nd.sent.Reply++
	case mFSQuery:
		env.Send(m.Edge, nd.composeReply(ph, true))
		nd.sent.Reply++
	case mReply:
		nd.itemsReply = append(nd.itemsReply, replyItem{
			Edge: m.Edge, Root: msg.Root, Dead: msg.Dead, IsCenter: msg.IsCenter, B: msg.B,
		})
	case mAccept:
		nd.inS[m.Edge] = true
	case mConvReply:
		nd.itemsReply = append(nd.itemsReply, msg.Items...)
		nd.convWaiting--
	case mCenter:
		nd.handleCenter(env, msg)
		nd.forwardDown(env, m.Edge, msg)
	case mProbe:
		// A probe travels over an F-edge of the probing cluster, so this
		// edge is in the spanner; record that before answering.
		nd.inS[m.Edge] = true
		env.Send(m.Edge, mProbeReply{Root: nd.clusterRoot, IsCenter: nd.centerCluster})
		nd.sent.Probe++
	case mProbeReply:
		nd.itemsProbe = append(nd.itemsProbe, probeItem{Edge: m.Edge, Root: msg.Root, IsCenter: msg.IsCenter})
	case mConvProbe:
		nd.itemsProbe = append(nd.itemsProbe, msg.Items...)
		nd.convWaiting--
	case mFS:
		nd.handleFS(env, msg)
		nd.forwardDown(env, m.Edge, msg)
	case mDecide:
		nd.handleDecide(env, msg)
		nd.forwardDown(env, m.Edge, msg)
	case mJoin:
		nd.acceptedJoins = append(nd.acceptedJoins, m.Edge)
		nd.itemsJoin = append(nd.itemsJoin, joinItem{Edge: m.Edge, B: msg.B})
	case mConvJoin:
		nd.itemsJoin = append(nd.itemsJoin, msg.Items...)
		nd.convWaiting--
	case mNewCluster:
		nd.handleNewCluster(env, m.Edge, msg)
	case mFlush:
		nd.handleFlush(env, msg)
		nd.forwardDown(env, m.Edge, msg)
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
	isCenter := false
	if fs {
		isCenter = nd.centerCluster && !nd.dead
	}
	return mReply{Root: nd.clusterRoot, Dead: nd.dead, IsCenter: isCenter, B: b}
}

// markFAdds records newly decided spanner edges incident to this node and
// queues far-endpoint notifications.
func (nd *distNode) markFAdds(fAdds []graph.EdgeID) {
	for _, e := range fAdds {
		if nd.myEdges[e] {
			nd.inS[e] = true
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
		if nd.myEdges[e] {
			out = append(out, e)
		}
	}
	return out
}

func (nd *distNode) handleTrial(env *local.Env, m mTrial) {
	nd.markFAdds(m.FAdds)
	nd.mySamples = nd.ownIncident(m.Samples)
}

func (nd *distNode) handleCenter(env *local.Env, m mCenter) {
	nd.markFAdds(m.FAdds)
	nd.centerCluster = m.IsCenter
	nd.myProbes = nd.ownIncident(m.Probes)
}

func (nd *distNode) handleFS(env *local.Env, m mFS) {
	nd.myFS = nd.ownIncident(m.Edges)
}

func (nd *distNode) handleDecide(env *local.Env, m mDecide) {
	nd.markFAdds(m.FAdds)
	nd.decis = m.Decision
	switch m.Decision {
	case decDead:
		nd.dead = true // cb is frozen as the final boundary
	case decJoin:
		if nd.myEdges[m.JoinEdge] {
			nd.sendJoin = true
			nd.joinEdge = m.JoinEdge
		}
	}
}

func (nd *distNode) handleNewCluster(env *local.Env, from graph.EdgeID, m mNewCluster) {
	if nd.floodSeen {
		panic(fmt.Sprintf("core: node %d: duplicate new-cluster flood", nd.id))
	}
	nd.floodSeen = true
	newTree := make(map[graph.EdgeID]bool, len(nd.tree)+len(nd.acceptedJoins)+1)
	for e := range nd.tree {
		newTree[e] = true
	}
	for _, e := range nd.acceptedJoins {
		newTree[e] = true
	}
	newTree[from] = true
	for e := range newTree {
		if e != from {
			env.Send(e, mNewCluster{Root: m.Root, B: m.B, Depth: m.Depth + 1})
			nd.sent.Tree++
		}
	}
	nd.tree = newTree
	nd.hasParent = true
	nd.parent = from
	nd.depth = m.Depth + 1
	nd.clusterRoot = m.Root
	nd.cb = m.B
	nd.isRoot = false
	nd.acceptedJoins = nil
	nd.decis = decNone
	nd.x = nil
	nd.queried = nil
	nd.queriedCenter = nil
	nd.pendingNewB = nil
}

func (nd *distNode) handleFlush(env *local.Env, m mFlush) {
	nd.markFAdds(m.FAdds)
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
		var payload any
		switch ph.kind {
		case phTrialConv, phFSConv:
			payload = mConvReply{Items: nd.itemsReply}
		case phProbeConv:
			payload = mConvProbe{Items: nd.itemsProbe}
		case phJoinConv:
			payload = mConvJoin{Items: nd.itemsJoin}
		}
		env.Send(nd.parent, payload)
		nd.sent.Tree++
		return
	}
	switch ph.kind {
	case phTrialConv:
		nd.finalizeTrialConv(env, ph)
	case phProbeConv:
		nd.finalizeProbeConv()
	case phFSConv:
		nd.finalizeFSConv(env, ph)
	case phJoinConv:
		nd.finalizeJoinConv()
	}
}

// finalizeTrialConv is the root's reduction of a trial: process replies in
// first-draw order, peel replying clusters out of X_v, and grow F up to the
// threshold budget — the exact logic of the centralized Cluster_j step 1.
func (nd *distNode) finalizeTrialConv(env *local.Env, ph phase) {
	byEdge := make(map[graph.EdgeID]replyItem, len(nd.itemsReply))
	for _, it := range nd.itemsReply {
		byEdge[it.Edge] = it
	}
	threshold := nd.p.threshold(ph.level, nEstimate(env))
	for _, e := range nd.sampleOrder {
		if !nd.x.contains(e) {
			continue // peeled earlier in this trial (parallel duplicate)
		}
		it, ok := byEdge[e]
		if !ok {
			panic(fmt.Sprintf("core: root %d: no reply for sampled edge %d", nd.id, e))
		}
		if it.Dead {
			nd.peelReply(e, it)
			continue
		}
		if it.Root == nd.id {
			panic(fmt.Sprintf("core: root %d: boundary contains intra-cluster edge %d", nd.id, e))
		}
		if nd.fCount >= threshold {
			break // budget reached; mirrors the centralized cap
		}
		if _, dup := nd.queried[it.Root]; dup {
			panic(fmt.Sprintf("core: root %d: cluster %d re-discovered; peeling failed", nd.id, it.Root))
		}
		nd.addF(it.Root, e)
		nd.peelReply(e, it)
	}
	nd.sampleOrder = nil
}

func (nd *distNode) addF(root graph.NodeID, e graph.EdgeID) {
	nd.queried[root] = e
	nd.fCount++
	nd.fPending = append(nd.fPending, e)
	nd.fDecided = append(nd.fDecided, e)
}

func (nd *distNode) peelReply(e graph.EdgeID, it replyItem) {
	if it.B != nil {
		nd.x.removeAll(it.B.list)
	} else {
		nd.x.remove(e)
	}
}

func (nd *distNode) finalizeProbeConv() {
	for _, it := range nd.itemsProbe {
		if _, known := nd.queried[it.Root]; !known {
			panic(fmt.Sprintf("core: root %d: probe reply from unknown cluster %d", nd.id, it.Root))
		}
		nd.queriedCenter[it.Root] = it.IsCenter
	}
}

// finalizeFSConv is the fail-safe reduction: every remaining edge was
// queried, so peel everything and record every newly discovered neighbor
// (no budget cap — the point is to become light).
func (nd *distNode) finalizeFSConv(env *local.Env, ph phase) {
	if len(nd.fsOrder) == 0 {
		return
	}
	byEdge := make(map[graph.EdgeID]replyItem, len(nd.itemsReply))
	for _, it := range nd.itemsReply {
		byEdge[it.Edge] = it
	}
	for _, e := range nd.fsOrder {
		if !nd.x.contains(e) {
			continue
		}
		it, ok := byEdge[e]
		if !ok {
			panic(fmt.Sprintf("core: root %d: no fail-safe reply for edge %d", nd.id, e))
		}
		if !it.Dead {
			nd.addF(it.Root, e)
			nd.queriedCenter[it.Root] = it.IsCenter
		}
		nd.peelReply(e, it)
	}
	if !nd.x.empty() {
		panic(fmt.Sprintf("core: root %d: fail-safe left %d unexplored edges", nd.id, nd.x.size()))
	}
	nd.fsOrder = nil
}

// finalizeJoinConv merges the accepted joiners' boundaries with the center's
// own using the count-one rule: an edge ID contributed by two constituent
// boundaries has both endpoints inside the merged cluster and disappears.
// Sorting the concatenated lists puts equal IDs side by side, so the merged
// boundary is the IDs that occur exactly once, already in order.
func (nd *distNode) finalizeJoinConv() {
	if nd.decis != decCenter {
		nd.itemsJoin = nil // stale aggregates at a joining/dying old root
		return
	}
	all := slices.Clone(nd.cb.list)
	for _, it := range nd.itemsJoin {
		all = append(all, it.B.list...)
	}
	slices.Sort(all)
	var edges []graph.EdgeID
	for i, e := range all {
		if (i == 0 || all[i-1] != e) && (i+1 == len(all) || all[i+1] != e) {
			edges = append(edges, e)
		}
	}
	nd.pendingNewB = &boundary{list: edges}
	nd.itemsJoin = nil
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
