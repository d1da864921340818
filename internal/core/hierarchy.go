package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
)

// ValidateHierarchy checks the structural invariants the paper's analysis
// relies on, against the original input graph g:
//
//   - every spanner edge is an edge of g (S ⊆ E);
//   - at every level, clusters are pairwise disjoint sets of original nodes
//     and each cluster contains exactly one center;
//   - the subgraph of H = (V, S) induced by each cluster C_j(v) is connected
//     with diameter ≤ 3^j − 1 (Lemma 8);
//   - every unclustered node is light (the premise of Theorem 9's stretch
//     argument, which the fail-safe guarantees).
//
// It returns nil if all invariants hold.
func (r *Result) ValidateHierarchy(g *graph.Graph) error {
	for _, id := range r.S {
		if !g.HasEdgeID(id) {
			return fmt.Errorf("core: spanner edge %d not in input graph", id)
		}
	}
	h, err := g.SubgraphByEdges(r.S)
	if err != nil {
		return err
	}
	for _, lvl := range r.Levels {
		if err := validateLevel(lvl, g, h); err != nil {
			return fmt.Errorf("level %d: %w", lvl.J, err)
		}
	}
	return nil
}

func validateLevel(lvl *Level, g, h *graph.Graph) error {
	// Disjointness of the level's clusters over original nodes.
	owner := slices.Repeat([]int{-1}, g.NumNodes()) // cluster of each node, or -1
	for v, members := range lvl.OrigMembers {
		if len(members) == 0 {
			return fmt.Errorf("node %d has no members", v)
		}
		for _, m := range members {
			if prev := owner[m]; prev >= 0 {
				return fmt.Errorf("original node %d in clusters %d and %d", m, prev, v)
			}
			owner[m] = v
		}
	}
	// Lemma 8: induced diameter bound.
	bound := pow3(lvl.J) - 1
	for v, d := range h.InducedDiameters(lvl.OrigMembers) {
		if d < 0 || d > bound {
			return fmt.Errorf("cluster %d induced diameter %d exceeds 3^%d-1 = %d", v, d, lvl.J, bound)
		}
	}
	// One center per next-level cluster, and unclustered ⇒ light.
	if lvl.Assign != nil {
		// Contract took dense cluster indices, so each is below len(Assign).
		centersPerCluster := make([]int, len(lvl.Assign))
		for v, c := range lvl.Assign {
			if c == graph.Dropped {
				if !lvl.Light[v] {
					return fmt.Errorf("unclustered node %d is not light", v)
				}
				continue
			}
			if lvl.Center[v] {
				centersPerCluster[c]++
			}
		}
		for c, count := range centersPerCluster {
			if count > 1 {
				return fmt.Errorf("cluster %d has %d centers", c, count)
			}
		}
		for v, c := range lvl.Assign {
			if c != graph.Dropped && centersPerCluster[c] == 0 {
				return fmt.Errorf("node %d assigned to centerless cluster %d", v, c)
			}
		}
	} else {
		// Final level: everyone is unclustered and must be light.
		for v, light := range lvl.Light {
			if !light {
				return fmt.Errorf("final-level node %d is not light", v)
			}
		}
	}
	return nil
}

// Trace renders a human-readable level-by-level account of the run — the
// textual counterpart of the paper's Figure 1. Intended for small graphs.
func (r *Result) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampler k=%d h=%d  (stretch bound %d, size exponent %.3f)\n",
		r.Params.K, r.Params.H, r.StretchBound(), r.Params.PredictedSizeExponent())
	for _, lvl := range r.Levels {
		fmt.Fprintf(&b, "level %d: |V_%d|=%d |E_%d|=%d  threshold=%d samples/trial=%d p_j=%.4f\n",
			lvl.J, lvl.J, lvl.G.NumNodes(), lvl.J, lvl.G.NumEdges(),
			lvl.Threshold, lvl.SamplesPerTrial, lvl.CenterProb)
		light, heavy := 0, 0
		for v := range lvl.Light {
			if lvl.Light[v] {
				light++
			}
			if lvl.Heavy[v] {
				heavy++
			}
		}
		fmt.Fprintf(&b, "  light=%d heavy=%d trials=%d samples=%d failsafe=%d spanner+=%d\n",
			light, heavy, lvl.Trials, lvl.Samples, lvl.FailSafe, lvl.EdgesAdded)
		if lvl.Assign != nil {
			clusters := make(map[int][]int)
			dropped := 0
			for v, c := range lvl.Assign {
				if c == graph.Dropped {
					dropped++
				} else {
					clusters[c] = append(clusters[c], v)
				}
			}
			fmt.Fprintf(&b, "  centers->clusters=%d unclustered=%d\n", len(clusters), dropped)
			if lvl.G.NumNodes() <= 32 {
				for c := 0; c < len(clusters); c++ {
					fmt.Fprintf(&b, "    C%d: %v\n", c, clusters[c])
				}
			}
		}
	}
	fmt.Fprintf(&b, "spanner size |S|=%d\n", len(r.S))
	return b.String()
}
