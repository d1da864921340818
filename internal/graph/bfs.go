package graph

// Unreachable is the distance reported for nodes not reached by a bounded or
// disconnected search.
const Unreachable = -1

// BFS returns the distance from src to every node, or Unreachable for nodes
// in other components. maxDepth < 0 means unbounded; otherwise nodes farther
// than maxDepth are reported Unreachable.
func (g *Graph) BFS(src NodeID, maxDepth int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]NodeID, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if maxDepth >= 0 && dist[v] == maxDepth {
			continue
		}
		for _, h := range g.rows(v) {
			if dist[h.Peer] == Unreachable {
				dist[h.Peer] = dist[v] + 1
				queue = append(queue, h.Peer)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v NodeID) int {
	if u == v {
		return 0
	}
	return g.BFS(u, -1)[v]
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0, -1)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns a component label per node (labels are 0-based and
// dense) and the number of components.
func (g *Graph) Components() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	next := 0
	var queue []NodeID
	for s := 0; s < g.n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = next
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.rows(v) {
				if label[h.Peer] == -1 {
					label[h.Peer] = next
					queue = append(queue, h.Peer)
				}
			}
		}
		next++
	}
	return label, next
}

// Diameter returns the exact diameter (max pairwise distance) of a connected
// graph by running a BFS from every node; it returns Unreachable for
// disconnected graphs. Intended for the modest graph sizes used in tests and
// experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		dist := g.BFS(NodeID(v), -1)
		for _, d := range dist {
			if d == Unreachable {
				return Unreachable
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Ball returns the set of nodes within distance t of v (including v), the
// set B_{G,t}(v) from the paper's Section 6, in ascending node order.
func (g *Graph) Ball(v NodeID, t int) []NodeID {
	dist := g.BFS(v, t)
	out := make([]NodeID, 0, 16)
	for u, d := range dist {
		if d != Unreachable {
			out = append(out, NodeID(u))
		}
	}
	return out
}
