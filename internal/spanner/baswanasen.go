// Package spanner implements the Baswana–Sen (2k−1)-spanner construction
// (Baswana, Sen: "A simple and linear time randomized algorithm for
// computing sparse spanners in weighted graphs", Random Structures &
// Algorithms 2007), specialized to unweighted graphs.
//
// It plays two roles in the reproduction:
//
//   - it is the baseline the paper contrasts with: its natural distributed
//     implementation has every clustered node announce its cluster over
//     every incident edge each iteration, which costs Θ(k·m) messages — the
//     Ω(m) bottleneck that algorithm Sampler removes (experiment E5);
//   - it is the "off-the-shelf spanner algorithm with a better size/stretch
//     trade-off" simulated in the two-stage message-reduction scheme of the
//     paper's Section 6 (our substitution for Derbel et al.; the rationale
//     is on simulate.BaswanaSenStage2).
package spanner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Result is the output of the centralized construction.
type Result struct {
	// S is the spanner edge set.
	S map[graph.EdgeID]bool
	// K is the stretch parameter: H is a (2K−1)-spanner whp.
	K int
}

// StretchBound returns 2K−1.
func (r *Result) StretchBound() int { return 2*r.K - 1 }

// unclustered marks a node that left the clustering.
const unclustered = graph.NodeID(-1)

// BaswanaSen runs the centralized construction on g with parameter k >= 1
// and sampling probability n^{-1/k}. The expected spanner size is
// O(k·n^{1+1/k}).
func BaswanaSen(g *graph.Graph, k int, seed uint64) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k = %d, need k >= 1", k)
	}
	if g == nil {
		return nil, fmt.Errorf("spanner: nil graph")
	}
	n := g.NumNodes()
	rng := xrand.New(seed).Derive(0xB5)
	p := math.Pow(float64(n), -1.0/float64(k))

	res := &Result{S: make(map[graph.EdgeID]bool), K: k}
	// cluster[v] is the center of v's cluster, or unclustered.
	cluster := make([]graph.NodeID, n)
	for v := range cluster {
		cluster[v] = graph.NodeID(v)
	}

	// Phase 1: k-1 sampling iterations.
	for i := 1; i < k; i++ {
		sampled := make(map[graph.NodeID]bool)
		// A center's sampling coin is drawn from its own stream so the
		// outcome does not depend on iteration order.
		centers := make(map[graph.NodeID]bool)
		for v := 0; v < n; v++ {
			if cluster[v] != unclustered {
				centers[cluster[v]] = true
			}
		}
		//freelunch:orderok each coin comes from the center's own derived stream, independent of visit order
		for c := range centers {
			if rng.Derive(uint64(i)<<32 | uint64(c)).Bernoulli(p) {
				sampled[c] = true
			}
		}
		next := make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			cv := cluster[v]
			switch {
			case cv == unclustered:
				next[v] = unclustered
			case sampled[cv]:
				next[v] = cv // cluster survives wholesale
			default:
				next[v] = joinOrLeave(g, graph.NodeID(v), cluster, sampled, res.S)
			}
		}
		cluster = next
	}

	// Phase 2: every still-clustered vertex connects to each neighboring
	// cluster (one edge per cluster, smallest edge ID for determinism).
	for v := 0; v < n; v++ {
		if cluster[v] == unclustered {
			continue
		}
		for c, e := range neighboringClusters(g, graph.NodeID(v), cluster) {
			if c != cluster[v] {
				res.S[e] = true
			}
		}
	}
	return res, nil
}

// joinOrLeave handles an unsampled-cluster vertex: if it neighbors a sampled
// cluster it joins one (adding the connecting edge); otherwise it adds one
// edge to every neighboring cluster and becomes unclustered.
func joinOrLeave(g *graph.Graph, v graph.NodeID, cluster []graph.NodeID,
	sampled map[graph.NodeID]bool, s map[graph.EdgeID]bool) graph.NodeID {
	nbrs := neighboringClusters(g, v, cluster)
	// Deterministic scan order: smallest sampled cluster wins.
	var best graph.NodeID = unclustered
	//freelunch:orderok min-reduction: the smallest sampled cluster wins regardless of visit order
	for c := range nbrs {
		if sampled[c] && (best == unclustered || c < best) {
			best = c
		}
	}
	if best != unclustered {
		s[nbrs[best]] = true
		return best
	}
	for _, e := range nbrs {
		s[e] = true
	}
	return unclustered
}

// neighboringClusters maps each cluster adjacent to v (via a clustered
// neighbor) to the smallest-ID edge reaching it. v's own cluster is included
// when v has a same-cluster neighbor; callers filter it as needed.
func neighboringClusters(g *graph.Graph, v graph.NodeID, cluster []graph.NodeID) map[graph.NodeID]graph.EdgeID {
	out := make(map[graph.NodeID]graph.EdgeID)
	for _, h := range g.Incident(v) {
		c := cluster[h.Peer]
		if c == unclustered {
			continue
		}
		if e, ok := out[c]; !ok || h.Edge < e {
			out[c] = h.Edge
		}
	}
	return out
}

// SizeBound returns the expected-size bound k·n^{1+1/k} for reporting.
func SizeBound(n, k int) float64 {
	return float64(k) * math.Pow(float64(n), 1+1.0/float64(k))
}

// sortedEdgeIDs is a test/debug helper returning S in ascending order.
func (r *Result) sortedEdgeIDs() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(r.S))
	for e := range r.S {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
