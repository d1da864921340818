// Package spanner holds the spanner constructions other than the paper's
// Sampler (internal/core), each implemented exactly once.
//
// Baswana–Sen (Baswana, Sen: "A simple and linear time randomized algorithm
// for computing sparse spanners in weighted graphs", Random Structures &
// Algorithms 2007, specialized to unweighted graphs) and Elkin–Neiman
// ("Efficient Algorithms for Constructing Very Sparse Spanners and
// Emulators", TALG 2018) are LOCAL protocols (BSNode, ENNode), each with one
// description: a Construction, which states its round budget, its stretch
// and its per-node output. One Construction plays both of the paper's roles:
//
//   - run directly on G (simulate.Direct), it is the baseline the paper
//     contrasts with: every clustered or racing node speaks over every
//     incident edge, which costs Θ(k·m) messages — the Ω(m) bottleneck that
//     algorithm Sampler removes (experiment E5);
//   - replayed from the balls collected over the stage-1 Sampler spanner
//     (simulate.Scheme2WithSrc), it is the "off-the-shelf spanner algorithm
//     with a better size/stretch trade-off" of the paper's two-stage scheme,
//     built without sending any of its own messages (our substitution for
//     Derbel et al.; the rationale is on BaswanaSenConstruction).
//
// Greedy is the one centralized construction: the quality yardstick the
// message-efficient constructions are measured against, with no protocol
// twin.
package spanner

import (
	"math"
	"slices"

	"repro/internal/algorithms"
	"repro/internal/graph"
)

// Construction is a distributed spanner construction as a fixed-round LOCAL
// algorithm. Spec.T is its round budget, and each node's output is its
// incident spanner edges, a strictly ascending []graph.EdgeID (nil when it
// has none). Both endpoints of every spanner edge hold it (the protocols
// send accept messages), so Edges over all outputs is the spanner, and
// Stretch bounds that spanner's stretch.
//
// Outputs are slices, not ==-comparable values: compare two runs node by
// node with reflect.DeepEqual, or their spanners as sets.
type Construction struct {
	algorithms.Spec
	// Stretch is the stretch bound of the built spanner.
	Stretch int
}

// Edges returns the spanner a construction's run built: the union of its
// per-node outputs, strictly ascending.
func Edges(outs []any) []graph.EdgeID {
	var s []graph.EdgeID
	for _, o := range outs {
		s = append(s, o.([]graph.EdgeID)...)
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// SizeBound returns the expected-size bound k·n^{1+1/k} for reporting.
func SizeBound(n, k int) float64 {
	return float64(k) * math.Pow(float64(n), 1+1.0/float64(k))
}
