package graph

import "slices"

// Unreachable is the distance reported for nodes not reached by a bounded or
// disconnected search.
const Unreachable = -1

// search is the graph layer's one breadth-first search kernel; BFS, Dist,
// Connected, Components, Diameter, Ball, Balls, InducedDiameters and
// EdgeStretch all run on it. dist holds Unreachable for every node except
// those the last run reached, and seen lists exactly those nodes in BFS
// order: it is the run's queue (a head index walks it) and the next run's
// reset list. A run that reaches a radius-r ball therefore costs O(ball +
// its edges), not O(n), and a search reused across runs allocates nothing
// once seen has grown to the largest run.
type search struct {
	g    *Graph
	dist []int32
	seen []NodeID
}

// newSearch returns a kernel over g with room for seenCap reached nodes.
func newSearch(g *Graph, seenCap int) *search {
	s := &search{g: g, dist: make([]int32, g.n), seen: make([]NodeID, 0, seenCap)}
	for i := range s.dist {
		s.dist[i] = Unreachable
	}
	return s
}

// run searches from src. maxDepth < 0 is unbounded; otherwise nodes farther
// than maxDepth stay Unreachable. A non-nil in restricts the search to the
// subgraph induced by the nodes u with in[u] (src is always searched).
func (s *search) run(src NodeID, maxDepth int, in []bool) {
	for _, v := range s.seen {
		s.dist[v] = Unreachable
	}
	if !s.g.clean.Load() {
		s.g.rebuild()
	}
	rowStart, halves, dist := s.g.rowStart, s.g.halves, s.dist
	seen := append(s.seen[:0], src)
	dist[src] = 0
	for head := 0; head < len(seen); head++ {
		v := seen[head]
		d := dist[v]
		if int(d) == maxDepth {
			continue
		}
		for _, h := range halves[rowStart[v]:rowStart[v+1]] {
			if dist[h.Peer] == Unreachable && (in == nil || in[h.Peer]) {
				dist[h.Peer] = d + 1
				seen = append(seen, h.Peer)
			}
		}
	}
	s.seen = seen
}

// eccentricity runs the kernel from src and returns the largest distance it
// reached, or Unreachable if it reached fewer than want nodes. BFS order
// puts a farthest node last.
func (s *search) eccentricity(src NodeID, in []bool, want int) int {
	s.run(src, -1, in)
	if len(s.seen) < want {
		return Unreachable
	}
	return int(s.dist[s.seen[len(s.seen)-1]])
}

// appendReached appends the nodes the last run reached to dst in ascending
// order: a small set is sorted, a large one is read off the dist array.
func (s *search) appendReached(dst []NodeID) []NodeID {
	if 16*len(s.seen) < len(s.dist) {
		start := len(dst)
		dst = append(dst, s.seen...)
		slices.Sort(dst[start:])
		return dst
	}
	for u, d := range s.dist {
		if d != Unreachable {
			dst = append(dst, NodeID(u))
		}
	}
	return dst
}

// BFS returns the distance from src to every node, or Unreachable for nodes
// in other components. maxDepth < 0 means unbounded; otherwise nodes farther
// than maxDepth are reported Unreachable.
func (g *Graph) BFS(src NodeID, maxDepth int) []int {
	s := newSearch(g, 0)
	s.run(src, maxDepth, nil)
	dist := make([]int, g.n)
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	return dist
}

// Dist returns the hop distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v NodeID) int {
	if u == v {
		return 0
	}
	s := newSearch(g, 0)
	s.run(u, -1, nil)
	return int(s.dist[v])
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	s := newSearch(g, g.n)
	s.run(0, -1, nil)
	return len(s.seen) == g.n
}

// Components returns a component label per node (labels are 0-based and
// dense) and the number of components.
func (g *Graph) Components() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	s := newSearch(g, 0)
	next := 0
	for src := 0; src < g.n; src++ {
		if label[src] != -1 {
			continue
		}
		s.run(NodeID(src), -1, nil)
		for _, v := range s.seen {
			label[v] = next
		}
		next++
	}
	return label, next
}

// Diameter returns the exact diameter (max pairwise distance) of a connected
// graph, or Unreachable for a disconnected one. The first call after a
// mutation runs one BFS from every node; the result, Unreachable included,
// is memoized on the graph until the next AddEdge, AddEdgeWithID,
// RemoveEdgeID or Reset, so repeated calls on an unchanged graph cost one
// atomic load and allocate nothing. Concurrent callers are safe (each may
// compute the same value once). The per-op paths that need the exact
// diameter, gossip-converge's termination wave and globalcast's wave
// deadline, rely on the memo: every op on a cached graph after the first
// reads it.
func (g *Graph) Diameter() int {
	if m := g.diam.Load(); m != 0 {
		return int(m) + Unreachable - 1
	}
	diam := 0
	s := newSearch(g, g.n)
	for v := 0; v < g.n; v++ {
		e := s.eccentricity(NodeID(v), nil, g.n)
		if e == Unreachable {
			diam = Unreachable
			break
		}
		diam = max(diam, e)
	}
	g.diam.Store(int64(diam - Unreachable + 1))
	return diam
}

// InducedDiameters returns, per node set, the diameter of the subgraph of g
// induced by that set, or Unreachable if that subgraph is disconnected (a
// set listing a node twice counts as disconnected; an empty set has
// diameter 0). Each BFS is restricted to its set, so the whole call costs
// O(n) plus, per set, |set| searches of the induced subgraph.
func (g *Graph) InducedDiameters(sets [][]NodeID) []int {
	s := newSearch(g, 0)
	in := make([]bool, g.n)
	out := make([]int, len(sets))
	for i, set := range sets {
		for _, m := range set {
			in[m] = true
		}
		for _, src := range set {
			e := s.eccentricity(src, in, len(set))
			if e == Unreachable {
				out[i] = Unreachable
				break
			}
			out[i] = max(out[i], e)
		}
		for _, m := range set {
			in[m] = false
		}
	}
	return out
}

// Ball returns the set of nodes within distance t of v (including v), the
// set B_{G,t}(v) from the paper's Section 6, in ascending node order. t < 0
// means unbounded: v's whole component.
func (g *Graph) Ball(v NodeID, t int) []NodeID {
	s := newSearch(g, 0)
	s.run(v, t, nil)
	return s.appendReached(make([]NodeID, 0, len(s.seen)))
}

// Balls returns Ball(v, t) for every node v. The balls share one flat
// backing array, sized exactly by a counting pass, and each is a sub-slice
// capped at its own length, so appending to one never writes into the
// next. One kernel serves all 2n runs, so the call makes the same small
// number of allocations whatever n is.
func (g *Graph) Balls(t int) [][]NodeID {
	s := newSearch(g, 0)
	total := 0
	for v := 0; v < g.n; v++ {
		s.run(NodeID(v), t, nil)
		total += len(s.seen)
	}
	flat := make([]NodeID, 0, total)
	balls := make([][]NodeID, g.n)
	for v := range balls {
		s.run(NodeID(v), t, nil)
		start := len(flat)
		flat = s.appendReached(flat)
		balls[v] = flat[start:len(flat):len(flat)]
	}
	return balls
}
