package graph_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// TestSubgraphByEdgesRejectsUnorderedSet pins the edge-set contract every
// spanner consumer shares: a set is strictly ascending and names edges of
// the graph. An unsorted, a repeated and an unknown ID each fail through
// SubgraphByEdges, VerifySpanner and the facade's Spanner.Subgraph and
// Spanner.Verify, and the error names the offending pair or the smallest
// unknown ID. The empty set is accepted, on an edgeless graph where it is
// also a spanner.
func TestSubgraphByEdgesRejectsUnorderedSet(t *testing.T) {
	consumers := []struct {
		name string
		run  func(g *graph.Graph, s []graph.EdgeID) error
	}{
		{"SubgraphByEdges", func(g *graph.Graph, s []graph.EdgeID) error {
			_, err := g.SubgraphByEdges(s)
			return err
		}},
		{"VerifySpanner", func(g *graph.Graph, s []graph.EdgeID) error {
			_, _, err := graph.VerifySpanner(g, s, 1)
			return err
		}},
		{"Spanner.Subgraph", func(g *graph.Graph, s []graph.EdgeID) error {
			_, err := (&repro.Spanner{Edges: s, StretchBound: 1}).Subgraph(g)
			return err
		}},
		{"Spanner.Verify", func(g *graph.Graph, s []graph.EdgeID) error {
			_, err := (&repro.Spanner{Edges: s, StretchBound: 1}).Verify(g)
			return err
		}},
	}
	cycle := gen.Cycle(6) // edge IDs 0..5; the whole set is a 1-spanner
	bad := []struct {
		name string
		set  []graph.EdgeID
		want string
	}{
		{"unsorted", []graph.EdgeID{0, 2, 1, 3, 4, 5}, "2 then 1"},
		{"repeated", []graph.EdgeID{0, 1, 2, 3, 3, 4, 5}, "3 then 3"},
		{"unknown", []graph.EdgeID{0, 1, 2, 3, 4, 5, 98, 99}, "edge 98 not in graph"},
	}
	for _, c := range consumers {
		if err := c.run(cycle, []graph.EdgeID{0, 1, 2, 3, 4, 5}); err != nil {
			t.Fatalf("%s: the whole ascending edge set: %v", c.name, err)
		}
		for _, b := range bad {
			err := c.run(cycle, b.set)
			if err == nil || !strings.Contains(err.Error(), b.want) {
				t.Fatalf("%s: %s set %v: got error %v, want one naming %q", c.name, b.name, b.set, err, b.want)
			}
		}
		for _, empty := range [][]graph.EdgeID{nil, {}} {
			if err := c.run(graph.New(3), empty); err != nil {
				t.Fatalf("%s: empty set %#v on an edgeless graph: %v", c.name, empty, err)
			}
		}
	}
}
