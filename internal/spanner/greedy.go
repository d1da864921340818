package spanner

import (
	"fmt"

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
	// Incrementally maintained spanner adjacency.
	adj := make([][]graph.NodeID, g.NumNodes())
	for _, e := range g.EdgesByID() {
		// A parallel duplicate of a kept edge is at distance 1: dropped.
		if boundedDist(adj, e.U, e.V, bound) <= bound {
			continue
		}
		res.S = append(res.S, e.ID)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return res, nil
}

// boundedDist returns the distance from src to dst in the partial spanner,
// or bound+1 if it exceeds bound.
func boundedDist(adj [][]graph.NodeID, src, dst graph.NodeID, bound int) int {
	if src == dst {
		return 0
	}
	dist := map[graph.NodeID]int{src: 0}
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= bound {
			continue
		}
		for _, u := range adj[v] {
			if _, ok := dist[u]; ok {
				continue
			}
			d := dist[v] + 1
			if u == dst {
				return d
			}
			dist[u] = d
			queue = append(queue, u)
		}
	}
	return bound + 1
}
