package spanner

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Result is Greedy's output.
type Result struct {
	// S is the spanner edge set, strictly ascending.
	S []graph.EdgeID
	// K is the stretch parameter: S is a (2K−1)-spanner.
	K int
}

// StretchBound returns 2K−1.
func (r *Result) StretchBound() int { return 2*r.K - 1 }

// Greedy builds the classic greedy (2k−1)-spanner (Althöfer et al.):
// process edges in a fixed order and keep an edge only if the current
// spanner distance between its endpoints exceeds 2k−1. The result is a
// valid (2k−1)-spanner with O(n^{1+1/k}) edges — the quality yardstick
// against which the message-efficient constructions are measured (a purely
// centralized algorithm; no distributed analogue is implied).
//
// For unweighted graphs any edge order is valid; Greedy uses ascending edge
// ID, so S is independent of insertion order and ascending as built.
func Greedy(g *graph.Graph, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k = %d, need k >= 1", k)
	}
	if g == nil {
		return nil, fmt.Errorf("spanner: nil graph")
	}
	bound := 2*k - 1
	res := &Result{K: k}
	// Incrementally maintained spanner adjacency, and the search state every
	// edge test reuses (see within).
	adj := make([][]graph.NodeID, g.NumNodes())
	dist := slices.Repeat([]int32{-1}, g.NumNodes())
	var queue []graph.NodeID
	for _, e := range g.EdgesByID() {
		// A parallel duplicate of a kept edge is at distance 1: dropped.
		if within(adj, dist, &queue, e.U, e.V, bound) {
			continue
		}
		res.S = append(res.S, e.ID)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return res, nil
}

// within reports whether dst is at most bound hops from src != dst in the
// partial spanner, by a BFS that queues nodes in *queue (reused storage).
// dist is -1 at every node before and after: the search resets what it set.
func within(adj [][]graph.NodeID, dist []int32, queue *[]graph.NodeID, src, dst graph.NodeID, bound int) bool {
	q, found := append((*queue)[:0], src), false
	dist[src] = 0
	for i := 0; i < len(q) && !found && int(dist[q[i]]) < bound; i++ {
		for _, u := range adj[q[i]] {
			if u == dst {
				found = true
				break
			}
			if dist[u] < 0 {
				dist[u] = dist[q[i]] + 1
				q = append(q, u)
			}
		}
	}
	for _, v := range q {
		dist[v] = -1
	}
	*queue = q
	return found
}
