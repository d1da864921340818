package core

import (
	"slices"

	"repro/internal/graph"
)

// boundary is an immutable cluster-boundary set shared by reference between
// a cluster's members and, crucially, inside messages: the LOCAL model does
// not charge for message size, and sharing the canonical set avoids copying
// potentially large edge lists per query reply. All receivers treat it as
// read-only.
type boundary struct {
	list []graph.EdgeID // sorted
}

func newBoundary(edges []graph.EdgeID) *boundary {
	b := &boundary{list: append([]graph.EdgeID(nil), edges...)}
	slices.Sort(b.list)
	return b
}

// Message payloads of the distributed Sampler. Every type is dispatched on
// receipt by type, not by phase, which makes the state machine robust to
// scheduling slack. Slices inside messages are read-only for receivers.

// treeMsg is a tree broadcast: a cluster root builds it (rootMsg), and every
// node of the cluster applies it and relays it to its tree children
// (broadcast). mTrial, mCenter, mFS, mDecide, mFlush and mNewCluster
// implement it.
type treeMsg interface {
	// apply is what the message does at a cluster node, the root included;
	// from is the edge it arrived on (noEdge at the root).
	apply(nd *distNode, from graph.EdgeID)
}

// mTrial flows down the cluster tree at each trial: the root's sampled query
// edges plus spanner-edge additions decided since the previous broadcast.
// Samples holds the distinct edges of the trial's Draws draws (with
// replacement), in first-draw order; the message is billed per draw.
type mTrial struct {
	Samples []graph.EdgeID
	Draws   int
	FAdds   []graph.EdgeID
}

// mQuery asks the far endpoint of a sampled edge (FS: of a fail-safe edge)
// to identify its cluster. It is billed one word; boxing a one-bool struct
// does not allocate.
type mQuery struct{ FS bool }

// mReply answers a query. B carries the replying cluster's full boundary —
// the device that lets the querier peel off every parallel edge to that
// cluster at once. A nil B means "peel only the query edge" (level 0, where
// the input graph is simple and the boundary is redundant). IsCenter is
// meaningful only for fail-safe replies, which happen after center coins
// are public knowledge inside each cluster.
type mReply struct {
	Root     graph.NodeID
	Dead     bool
	IsCenter bool
	B        *boundary
}

// mAccept tells the far endpoint of an edge that the edge joined the
// spanner.
type mAccept struct{}

// mCenter flows down after the trials: the cluster's center coin, the edges
// over which to probe queried clusters for their center status, and F
// additions from the final trial.
type mCenter struct {
	IsCenter bool
	Probes   []graph.EdgeID
	FAdds    []graph.EdgeID
}

// mProbe asks a queried cluster whether it is a center.
type mProbe struct{}

// mProbeReply answers a probe.
type mProbeReply struct {
	Root     graph.NodeID
	IsCenter bool
}

// mFS flows down when the fail-safe fires: every remaining unexplored edge
// is to be queried exhaustively.
type mFS struct{ Edges []graph.EdgeID }

// decision is a cluster's fate at the end of a level.
type decision int

const (
	decNone   decision = iota
	decCenter          // survives as a level-(j+1) node
	decJoin            // merges into a neighboring center
	decDead            // unclustered: stops participating, answers queries forever
)

// mDecide flows down the tree with the root's verdict. For decJoin the owner
// of JoinEdge ships the cluster boundary across it next phase.
type mDecide struct {
	Decision decision
	JoinEdge graph.EdgeID
	FAdds    []graph.EdgeID
}

// mJoin crosses the join edge into the center cluster.
type mJoin struct{ B *boundary }

// convKind tells what a convergecast item reports. Each convergecast
// aggregates one kind.
type convKind uint8

const (
	convReply convKind = iota // a (fail-safe) query reply
	convProbe                 // a probe reply
	convJoin                  // an accepted join
)

// convWords is an item's word bill by kind, not counting the boundary set
// it may carry.
var convWords = [...]int64{convReply: 4, convProbe: 3, convJoin: 2}

// convItem is one report that a convergecast aggregates toward the cluster
// root: a reply or probe reply received over Edge, or a join accepted over
// it. Fields a kind does not use stay zero.
type convItem struct {
	Edge     graph.EdgeID
	Root     graph.NodeID
	Dead     bool
	IsCenter bool
	Kind     convKind // in the padding after the flags: the item stays 24 bytes
	B        *boundary
}

// mConv carries a convergecast's aggregated items one hop toward the root.
// It is a slice, so an empty aggregate boxes without allocating.
type mConv []convItem

// mNewCluster floods the merged cluster: new root and new boundary. Receipt
// re-roots joiner trees (the arrival edge becomes the parent).
type mNewCluster struct {
	Root graph.NodeID
	B    *boundary
}

// mFlush is the final-level broadcast of the last F additions.
type mFlush struct{ FAdds []graph.EdgeID }

// Payload sizes (local.Sizer): one unit per O(log n)-bit word — an edge ID,
// a node ID, a flag. Shared *boundary references count their full list
// length: sharing is a simulator optimization, but the model "transmits"
// the set. mTrial, mJoin and mNewCluster each bill one word more than they
// carry (an idle flag, the joiner's root, a hop depth), so that their word
// bill stays comparable with runs pinned before those fields were dropped.

func blen(b *boundary) int64 {
	if b == nil {
		return 0
	}
	return int64(len(b.list))
}

// PayloadUnits implements local.Sizer.
func (m mTrial) PayloadUnits() int64 {
	return 1 + int64(m.Draws) + int64(len(m.FAdds))
}

// PayloadUnits implements local.Sizer.
func (m mReply) PayloadUnits() int64 { return 3 + blen(m.B) }

// PayloadUnits implements local.Sizer.
func (m mConv) PayloadUnits() int64 {
	u := int64(1)
	for _, it := range m {
		u += convWords[it.Kind] + blen(it.B)
	}
	return u
}

// PayloadUnits implements local.Sizer.
func (m mCenter) PayloadUnits() int64 {
	return 1 + int64(len(m.Probes)) + int64(len(m.FAdds))
}

// PayloadUnits implements local.Sizer.
func (m mProbeReply) PayloadUnits() int64 { return 2 }

// PayloadUnits implements local.Sizer.
func (m mFS) PayloadUnits() int64 { return 1 + int64(len(m.Edges)) }

// PayloadUnits implements local.Sizer.
func (m mDecide) PayloadUnits() int64 { return 2 + int64(len(m.FAdds)) }

// PayloadUnits implements local.Sizer.
func (m mJoin) PayloadUnits() int64 { return 2 + blen(m.B) }

// PayloadUnits implements local.Sizer.
func (m mNewCluster) PayloadUnits() int64 { return 3 + blen(m.B) }

// PayloadUnits implements local.Sizer.
func (m mFlush) PayloadUnits() int64 { return 1 + int64(len(m.FAdds)) }
