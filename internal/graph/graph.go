// Package graph implements the undirected multigraphs on which every other
// component of this repository operates.
//
// Two modelling choices mirror the paper exactly:
//
//   - Every edge carries a unique EdgeID known to both endpoints. This is the
//     paper's model assumption (strictly between KT0 and KT1) and the device
//     that lets a node recognize parallel edges leading to the same cluster.
//   - Graphs may contain parallel edges. The input communication graph is
//     simple, but the virtual graphs G_1, ..., G_k produced by cluster
//     contraction are genuinely multigraphs, and edge IDs persist across
//     contraction: an edge of G_j is an original edge of G_0 whose endpoints
//     fell into different clusters.
//
// Self-loops are rejected: an intra-cluster edge simply disappears from the
// contracted graph, which is how the paper defines the cluster graph.
//
// # Representation
//
// The graph is stored in CSR (compressed sparse row) form so million-node
// graphs fit in O(edges) memory with no per-node allocations:
//
//   - edges is the dense edge table in insertion order — the single source
//     of truth and the basis of Fingerprint;
//   - adjacency is one flat []Half backing array indexed by a rowStart
//     offset table; Incident(v) returns a subslice view, allocation-free;
//   - the EdgeID index is a sorted slice of edge-table positions searched by
//     binary search, not a map — ~4 bytes per edge instead of ~50, and
//     appends are O(1) for monotonically increasing IDs (the common case:
//     AddEdge auto-IDs, contraction, and sorted subgraph construction all
//     insert in ascending ID order).
//
// The CSR arrays are rebuilt lazily: mutation marks the graph dirty and the
// next adjacency read rebuilds the row structure in one O(n+m) counting-sort
// pass that reproduces per-node insertion order exactly, so executions and
// goldens are bit-identical to the historical [][]Half representation.
// Construction (m AddEdge calls, then reads) therefore costs O(n+m) total.
// The rebuild is guarded by a mutex behind an atomic fast path: concurrent
// readers of an already-built graph (engine shards share cached graphs) pay
// one atomic load.
//
// Old callers constructed graphs through this same API, so no builder type
// is needed: New (or NewWithCapacity to preallocate), AddEdge in a loop, and
// the first read assembles the CSR rows.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. Nodes of a graph with n nodes are 0..n-1.
type NodeID int32

// EdgeID uniquely identifies an edge. IDs are arbitrary (not necessarily
// dense); both endpoints of an edge know its ID.
type EdgeID int64

// InsertEdgeID adds e to s, a strictly ascending edge set, unless s holds
// it already, and returns the set. LOCAL protocols keep their incident-edge
// state in such sets: the order of the engine's port lists and inboxes.
func InsertEdgeID(s []EdgeID, e EdgeID) []EdgeID {
	i, ok := slices.BinarySearch(s, e)
	if ok {
		return s
	}
	return slices.Insert(s, i, e)
}

// Half is one endpoint's view of an incident edge: the edge's unique ID and
// the node at the other end. In the KT0-with-edge-IDs model an algorithm may
// use Edge but must not look at Peer; the simulator enforces this by not
// exposing Peer to protocol code unless KT1 is enabled.
type Half struct {
	Edge EdgeID
	Peer NodeID
}

// Edge is an undirected edge with its unique ID.
type Edge struct {
	ID   EdgeID
	U, V NodeID
}

// Other returns the endpoint of e different from v. It panics if v is not an
// endpoint, which always indicates a bug in the caller.
func (e Edge) Other(v NodeID) NodeID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d=(%d,%d)", v, e.ID, e.U, e.V))
}

// Graph is an undirected multigraph. The zero value is an empty graph with no
// nodes; use New to create a graph with a fixed node count.
//
// The edge table and its ID index are the graph; everything else is derived
// from them lazily, on the first read after a mutation, and dropped by the
// next mutation (AddEdge, AddEdgeWithID, RemoveEdgeID, Reset):
//
//   - the CSR rows behind Incident, Degree and every search;
//   - the diameter memo behind Diameter, Unreachable included.
//
// Graph is safe for concurrent reads once constructed, including the reads
// that derive this state; mutation must not race with reads or other
// mutations.
type Graph struct {
	n      int
	edges  []Edge  // dense edge table, insertion order
	byID   []int32 // edge-table indices sorted by ascending EdgeID
	nextID EdgeID  // smallest never-auto-assigned ID (== max assigned ID + 1)

	// CSR adjacency, rebuilt lazily on first read after a mutation.
	clean    atomic.Bool
	mu       sync.Mutex // serializes rebuilds among concurrent readers
	rowStart []int32    // len n+1; node v's halves are halves[rowStart[v]:rowStart[v+1]]
	halves   []Half     // one flat backing array for every incident list

	// diam is 0 until Diameter runs after the last mutation, then the
	// diameter minus Unreachable plus one (so Unreachable is stored as 1).
	diam atomic.Int64
}

// New returns an empty graph on n nodes (0..n-1) and no edges.
func New(n int) *Graph {
	return NewWithCapacity(n, 0)
}

// NewWithCapacity returns an empty graph on n nodes with the edge table
// preallocated for edgeCap edges. Generators that know their edge count use
// it to avoid append regrowth on million-edge builds.
func NewWithCapacity(n, edgeCap int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	g := &Graph{n: n}
	if edgeCap > 0 {
		g.edges = make([]Edge, 0, edgeCap)
		g.byID = make([]int32, 0, edgeCap)
	}
	return g
}

// Reset empties g onto n nodes (0..n-1) with no edges, as New(n) would, but
// keeps the capacity of the edge table, the ID index and the CSR arrays, and
// drops the derived rows and diameter for the next read. A caller that
// builds many small graphs one after another (the ball replays of
// internal/simulate) rebuilds one graph in place and allocates nothing once
// its buffers have grown.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative node count")
	}
	g.n = n
	g.edges = g.edges[:0]
	g.byID = g.byID[:0]
	g.nextID = 0
	g.invalidate()
}

// ErrDuplicateEdgeID reports an attempt to reuse an edge ID.
var ErrDuplicateEdgeID = errors.New("graph: duplicate edge ID")

// ErrSelfLoop reports an attempt to add a self-loop.
var ErrSelfLoop = errors.New("graph: self-loop")

// ErrNoSuchNode reports an out-of-range node.
var ErrNoSuchNode = errors.New("graph: node out of range")

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges, counting parallel edges separately.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge adds an undirected edge between u and v with a fresh unique ID and
// returns that ID. Parallel edges are allowed; self-loops are not.
func (g *Graph) AddEdge(u, v NodeID) EdgeID {
	// nextID exceeds every ID ever used, so it is always fresh.
	id := g.nextID
	if err := g.AddEdgeWithID(id, u, v); err != nil {
		// Only self-loop or bad node can fail here; surface as panic since
		// AddEdge has no error return by design (generators guarantee inputs).
		panic(err)
	}
	return id
}

// AddEdgeWithID adds an undirected edge between u and v using the caller's
// edge ID. It fails if the ID is already in use, if u == v, or if either
// endpoint is out of range. This is the constructor used when building the
// contracted graphs G_j, whose edges keep their original IDs.
func (g *Graph) AddEdgeWithID(id EdgeID, u, v NodeID) error {
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return fmt.Errorf("%w: (%d,%d) in graph of %d nodes", ErrNoSuchNode, u, v, g.n)
	}
	if len(g.edges) >= math.MaxInt32 {
		panic("graph: edge count exceeds int32 index range")
	}
	idx := int32(len(g.edges))
	if id >= g.nextID {
		// Fast path: id is larger than every existing ID, so the sorted
		// index grows by appending. Every hot construction path lands here.
		g.byID = append(g.byID, idx)
		g.nextID = id + 1
	} else {
		pos, found := g.searchID(id)
		if found {
			return fmt.Errorf("%w: %d", ErrDuplicateEdgeID, id)
		}
		g.byID = slices.Insert(g.byID, pos, idx)
	}
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v})
	g.invalidate()
	return nil
}

// invalidate marks the lazily derived state stale after a mutation: the CSR
// rows are rebuilt on the next read and the diameter on the next Diameter.
// Mutation never races with reads, so each field is stored only when it
// changes: a run of AddEdge calls (a ball rebuild in replay) pays two
// atomic loads per edge, not two atomic stores.
func (g *Graph) invalidate() {
	if g.clean.Load() {
		g.clean.Store(false)
	}
	if g.diam.Load() != 0 {
		g.diam.Store(0)
	}
}

// searchID locates id in the sorted index: the insertion position and
// whether an edge with that ID exists.
func (g *Graph) searchID(id EdgeID) (int, bool) {
	return slices.BinarySearchFunc(g.byID, id, func(i int32, target EdgeID) int {
		return cmp.Compare(g.edges[i].ID, target)
	})
}

// rows returns the CSR row slice for v, rebuilding the adjacency structure
// if a mutation invalidated it. The fast path is one atomic load.
func (g *Graph) rows(v NodeID) []Half {
	if !g.clean.Load() {
		g.rebuild()
	}
	return g.halves[g.rowStart[v]:g.rowStart[v+1]]
}

// rebuild reassembles the CSR arrays from the edge table with a counting
// sort. Edges are placed in insertion order, so each node's incident list
// order is identical to what incremental appends would have produced — the
// property that keeps executions bit-identical across representations.
func (g *Graph) rebuild() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.clean.Load() {
		return // another reader rebuilt while we waited
	}
	if 2*len(g.edges) > math.MaxInt32 {
		panic("graph: half-edge count exceeds int32 index range")
	}
	if cap(g.rowStart) >= g.n+1 {
		g.rowStart = g.rowStart[:g.n+1]
		clear(g.rowStart)
	} else {
		g.rowStart = make([]int32, g.n+1)
	}
	for i := range g.edges {
		e := &g.edges[i]
		g.rowStart[e.U+1]++
		g.rowStart[e.V+1]++
	}
	for v := 0; v < g.n; v++ {
		g.rowStart[v+1] += g.rowStart[v]
	}
	if cap(g.halves) >= 2*len(g.edges) {
		g.halves = g.halves[:2*len(g.edges)]
	} else {
		g.halves = make([]Half, 2*len(g.edges))
	}
	// rowStart[v] doubles as v's fill cursor, which leaves it at the start of
	// row v+1; shifting the table up one slot restores the row starts, so the
	// rebuild needs no scratch array.
	for i := range g.edges {
		e := &g.edges[i]
		g.halves[g.rowStart[e.U]] = Half{Edge: e.ID, Peer: e.V}
		g.rowStart[e.U]++
		g.halves[g.rowStart[e.V]] = Half{Edge: e.ID, Peer: e.U}
		g.rowStart[e.V]++
	}
	copy(g.rowStart[1:], g.rowStart[:g.n])
	g.rowStart[0] = 0
	g.clean.Store(true)
}

// Degree returns the number of edge endpoints at v (parallel edges counted
// with multiplicity).
//
//freelunch:noalloc
func (g *Graph) Degree(v NodeID) int {
	if !g.clean.Load() {
		g.rebuild()
	}
	return int(g.rowStart[v+1] - g.rowStart[v])
}

// Incident returns v's incident half-edges — a view into the graph's flat
// CSR backing array. The returned slice is owned by the graph and must not
// be modified; callers that need to retain or mutate it must copy. This is a
// deliberate exception to copy-at-boundaries: the simulator iterates
// incident lists in its innermost loop, and the call is allocation-free.
//
//freelunch:noalloc
func (g *Graph) Incident(v NodeID) []Half { return g.rows(v) }

// Edges returns all edges in insertion order. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgesByID returns all edges in ascending ID order, freshly allocated.
func (g *Graph) EdgesByID() []Edge {
	out := make([]Edge, len(g.byID))
	for i, idx := range g.byID {
		out[i] = g.edges[idx]
	}
	return out
}

// EdgeByID returns the edge with the given ID. The lookup is a binary search
// over the sorted ID index: allocation-free, O(log m).
//
//freelunch:noalloc
func (g *Graph) EdgeByID(id EdgeID) (Edge, bool) {
	pos, found := g.searchID(id)
	if !found {
		return Edge{}, false
	}
	return g.edges[g.byID[pos]], true
}

// HasEdgeID reports whether an edge with the given ID exists.
func (g *Graph) HasEdgeID(id EdgeID) bool {
	_, found := g.searchID(id)
	return found
}

// Neighbors returns the distinct neighbors of v in ascending order (parallel
// edges collapsed). The slice is freshly allocated — the only allocation the
// call makes: duplicates are removed by sorting in place and compacting, not
// through a scratch set.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	row := g.rows(v)
	out := make([]NodeID, len(row))
	for i, h := range row {
		out[i] = h.Peer
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// EdgesBetween returns the IDs of all parallel edges between u and v.
func (g *Graph) EdgesBetween(u, v NodeID) []EdgeID {
	var out []EdgeID
	for _, h := range g.rows(u) {
		if h.Peer == v {
			out = append(out, h.Edge)
		}
	}
	return out
}

// ErrNoSuchEdge reports a removal of an edge ID not in the graph.
var ErrNoSuchEdge = errors.New("graph: no such edge")

// RemoveEdgeID deletes the edge with the given ID. Later edges keep their
// IDs and their relative insertion order (the edge table is compacted, not
// reordered), and the ID is never reused: nextID only grows, so a graph that
// deletes and re-adds edges still assigns fresh IDs. The CSR adjacency is
// rebuilt lazily on the next read, exactly as after an insertion. This is
// the mutation path of the adversary layer's dynamic-topology events.
func (g *Graph) RemoveEdgeID(id EdgeID) error {
	pos, found := g.searchID(id)
	if !found {
		return fmt.Errorf("%w: %d", ErrNoSuchEdge, id)
	}
	idx := g.byID[pos]
	g.edges = slices.Delete(g.edges, int(idx), int(idx)+1)
	g.byID = slices.Delete(g.byID, pos, pos+1)
	// Edge-table positions after the removed edge shifted down by one.
	for i := range g.byID {
		if g.byID[i] > idx {
			g.byID[i]--
		}
	}
	g.invalidate()
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:      g.n,
		edges:  slices.Clone(g.edges),
		byID:   slices.Clone(g.byID),
		nextID: g.nextID,
		// Derived state stays unset; the clone rebuilds it on first read.
	}
}

// SubgraphByEdges returns the spanning subgraph of g (same nodes, edge IDs
// kept) with exactly the edges of keep, a strictly ascending subset of E. An
// out-of-order or repeated ID is an error naming the pair, as is an unknown ID.
func (g *Graph) SubgraphByEdges(keep []EdgeID) (*Graph, error) {
	h := NewWithCapacity(g.n, len(keep))
	for i, id := range keep {
		if i > 0 && keep[i-1] >= id {
			return nil, fmt.Errorf("graph: edge set not strictly ascending: %d then %d", keep[i-1], id)
		}
		e, ok := g.EdgeByID(id)
		if !ok {
			return nil, fmt.Errorf("graph: edge %d not in graph", id)
		}
		if err := h.AddEdgeWithID(e.ID, e.U, e.V); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Fingerprint returns a 64-bit FNV-1a digest of the graph's structure: the
// node count followed by every edge's (ID, U, V) in insertion order. Two
// graphs built by the same construction sequence share a fingerprint, and
// any mutation (adding an edge) changes it, so it serves as the
// graph-identity component of cache keys. Callers guarding against the
// (astronomically unlikely) 64-bit collision should additionally key on
// NumNodes and NumEdges.
func (g *Graph) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(g.n))
	for _, e := range g.edges {
		mix(uint64(e.ID))
		mix(uint64(e.U))
		mix(uint64(e.V))
	}
	return h
}

// SimpleEdgeCount returns the number of distinct node pairs connected by at
// least one edge (i.e. |E| of the underlying simple graph).
func (g *Graph) SimpleEdgeCount() int {
	type pair struct{ a, b NodeID }
	seen := make(map[pair]bool, len(g.edges))
	for _, e := range g.edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		seen[pair{a, b}] = true
	}
	return len(seen)
}

// IsSimple reports whether the graph has no parallel edges.
func (g *Graph) IsSimple() bool { return g.SimpleEdgeCount() == len(g.edges) }

// Validate checks internal consistency; it is used by tests and costs
// O(n + m log m).
func (g *Graph) Validate() error {
	if len(g.byID) != len(g.edges) {
		return fmt.Errorf("graph: ID index has %d entries for %d edges", len(g.byID), len(g.edges))
	}
	for i := 1; i < len(g.byID); i++ {
		if g.edges[g.byID[i-1]].ID >= g.edges[g.byID[i]].ID {
			return fmt.Errorf("graph: ID index out of order at position %d", i)
		}
	}
	halves := 0
	for v := 0; v < g.n; v++ {
		row := g.rows(NodeID(v))
		halves += len(row)
		for _, h := range row {
			e, ok := g.EdgeByID(h.Edge)
			if !ok {
				return fmt.Errorf("graph: node %d lists unknown edge %d", v, h.Edge)
			}
			if e.Other(NodeID(v)) != h.Peer {
				return fmt.Errorf("graph: node %d edge %d peer mismatch", v, h.Edge)
			}
		}
	}
	if halves != 2*len(g.edges) {
		return fmt.Errorf("graph: %d half-edges for %d edges", halves, len(g.edges))
	}
	return nil
}
