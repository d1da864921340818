package gen

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// This file holds the one typed constructor that is not a Spec family's
// implementation itself; every other family's implementation (Complete,
// GNP, Grid, ...) is exported directly, so a typed call and the matching
// Build produce bit-identical graphs: same construction order, same RNG
// consumption, same fingerprints. External input — CLI flags, HTTP bodies —
// goes through Build, which validates parameters and returns errors instead
// of panicking.

// ConnectedGNP returns G(n, p) patched to be connected: one extra edge joins
// a random representative of each non-first component to a random node of
// the first component's BFS tree frontier. The patch adds at most
// (#components − 1) edges.
func ConnectedGNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	return Connectify(GNP(n, p, rng), rng)
}
