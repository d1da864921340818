package gen

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// This file holds the typed per-family constructors: the layer under Spec,
// for Go callers that already hold typed parameters (tests, benchmarks,
// experiments, examples). Each calls the same implementation as its Spec
// family, so a constructor call and the matching Build produce bit-identical
// graphs: same construction order, same RNG consumption, same fingerprints.
// External input — CLI flags, HTTP bodies — goes through Build, which
// validates parameters and returns errors instead of panicking.

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph { return complete(n) }

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *graph.Graph { return cycle(n) }

// Path returns the path on n nodes.
func Path(n int) *graph.Graph { return path(n) }

// Star returns the star with one hub (node 0) and n-1 leaves.
func Star(n int) *graph.Graph { return star(n) }

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph { return grid(rows, cols) }

// Torus returns the rows x cols torus (grid with wraparound); rows and cols
// must be at least 3 to avoid parallel edges.
func Torus(rows, cols int) *graph.Graph { return torus(rows, cols) }

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *graph.Graph { return hypercube(d) }

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, rng *xrand.RNG) *graph.Graph { return gnp(n, p, rng) }

// GNM returns a uniform graph with n nodes and exactly m distinct edges
// (no parallel edges). It panics if m exceeds n(n-1)/2.
func GNM(n, m int, rng *xrand.RNG) *graph.Graph { return gnm(n, m, rng) }

// RandomTree returns a uniformly random recursive tree on n nodes: node v>0
// attaches to a uniform node in [0, v).
func RandomTree(n int, rng *xrand.RNG) *graph.Graph { return randomTree(n, rng) }

// RandomRegular returns a d-regular graph on n nodes via the pairing model,
// retrying until the pairing is simple. n*d must be even and d < n. It
// panics when no simple pairing turns up within the retry budget; Build
// returns that failure as an error instead.
func RandomRegular(n, d int, rng *xrand.RNG) *graph.Graph {
	g, err := randomRegular(n, d, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// Barbell returns two cliques of size cliqueN joined by a path of pathLen
// intermediate nodes.
func Barbell(cliqueN, pathLen int) *graph.Graph { return barbell(cliqueN, pathLen) }

// PreferentialAttachment returns a Barabási–Albert graph: starting from a
// star on m+1 nodes, each new node attaches to m distinct existing nodes
// chosen proportionally to degree.
func PreferentialAttachment(n, m int, rng *xrand.RNG) *graph.Graph {
	return preferentialAttachment(n, m, rng)
}

// ConnectedGNP returns G(n, p) patched to be connected: one extra edge joins
// a random representative of each non-first component to a random node of
// the first component's BFS tree frontier. The patch adds at most
// (#components − 1) edges.
func ConnectedGNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	return Connectify(gnp(n, p, rng), rng)
}

// Expander returns a d-regular expander candidate on n nodes (see the
// "expander" Spec family for the construction).
func Expander(n, d int, rng *xrand.RNG) *graph.Graph { return expander(n, d, rng) }
