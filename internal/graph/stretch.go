package graph

import "fmt"

// StretchReport summarizes how well a subgraph H approximates distances in G.
type StretchReport struct {
	// MaxEdgeStretch is max over edges (u,v) of G of dist_H(u,v). By the
	// standard equivalence (paper, footnote 1), H is an α-spanner of G iff
	// MaxEdgeStretch <= α.
	MaxEdgeStretch int
	// MeanEdgeStretch is the average of dist_H(u,v) over edges of G.
	MeanEdgeStretch float64
	// Edges is the number of edges in H.
	Edges int
	// Connected reports whether H spans every component of G (for connected
	// G: whether H is connected).
	Connected bool
}

// EdgeStretch computes the stretch of the spanning subgraph H of g, defined
// per the standard equivalence as the maximum over edges (u,v) of g of the
// (u,v)-distance in H. bound, if positive, caps the per-source BFS depth as
// an optimization; distances exceeding bound are treated as failures
// (Connected=false, MaxEdgeStretch set to Unreachable).
//
// The computation runs one (bounded) BFS in H per node of g that has at
// least one incident g-edge, on one reused search kernel: each run touches
// only the radius-bound ball of its source, so the whole check costs the
// sum of those balls, not n per source. bound is always small for spanner
// validation (the paper guarantees stretch ≤ 2·3^k − 1).
func EdgeStretch(g, h *Graph, bound int) (StretchReport, error) {
	if g.NumNodes() != h.NumNodes() {
		return StretchReport{}, fmt.Errorf("graph: node count mismatch %d vs %d", g.NumNodes(), h.NumNodes())
	}
	rep := StretchReport{Edges: h.NumEdges(), Connected: true}
	var sum int64
	var count int64
	s := newSearch(h, 0)
	for v := 0; v < g.NumNodes(); v++ {
		// Consider each g-edge once, from its smaller endpoint.
		needs := false
		for _, half := range g.Incident(NodeID(v)) {
			if half.Peer > NodeID(v) {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		s.run(NodeID(v), bound, nil)
		for _, half := range g.Incident(NodeID(v)) {
			if half.Peer <= NodeID(v) {
				continue
			}
			d := int(s.dist[half.Peer])
			if d == Unreachable {
				rep.Connected = false
				rep.MaxEdgeStretch = Unreachable
				return rep, nil
			}
			if rep.MaxEdgeStretch != Unreachable && d > rep.MaxEdgeStretch {
				rep.MaxEdgeStretch = d
			}
			sum += int64(d)
			count++
		}
	}
	if count > 0 {
		rep.MeanEdgeStretch = float64(sum) / float64(count)
	}
	return rep, nil
}

// VerifySpanner checks that the strictly ascending edge set s is a subset of
// g's edges and that the induced subgraph is an alpha-spanner of g. It
// returns the subgraph and a report. This is the oracle of every spanner test.
func VerifySpanner(g *Graph, s []EdgeID, alpha int) (*Graph, StretchReport, error) {
	h, err := g.SubgraphByEdges(s)
	if err != nil {
		return nil, StretchReport{}, fmt.Errorf("spanner not a subgraph: %w", err)
	}
	rep, err := EdgeStretch(g, h, alpha)
	if err != nil {
		return nil, StretchReport{}, err
	}
	if !rep.Connected {
		return h, rep, fmt.Errorf("spanner does not span: some g-edge has no path of length ≤ %d", alpha)
	}
	if rep.MaxEdgeStretch > alpha {
		return h, rep, fmt.Errorf("stretch %d exceeds bound %d", rep.MaxEdgeStretch, alpha)
	}
	return h, rep, nil
}
