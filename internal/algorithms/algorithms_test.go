package algorithms

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// runSpec executes a spec directly on g and returns per-node outputs.
func runSpec(t *testing.T, g *graph.Graph, spec Spec, seed uint64) []any {
	t.Helper()
	protos := make([]local.Protocol, g.NumNodes())
	res, err := local.Run(g, func(v graph.NodeID) local.Protocol {
		protos[v] = spec.New(v)
		return protos[v]
	}, local.Config{Seed: seed, MaxRounds: spec.T + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("%s did not halt in %d rounds", spec.Name, spec.T)
	}
	out := make([]any, len(protos))
	for v, p := range protos {
		out[v] = spec.Output(p)
	}
	return out
}

func TestMaxIDMatchesOracle(t *testing.T) {
	for _, tRounds := range []int{0, 1, 3, 7} {
		g := gen.ConnectedGNP(120, 0.03, xrand.New(1))
		out := runSpec(t, g, MaxID(tRounds), 5)
		for v := 0; v < g.NumNodes(); v++ {
			want := graph.NodeID(0)
			for _, u := range g.Ball(graph.NodeID(v), tRounds) {
				if u > want {
					want = u
				}
			}
			if out[v].(graph.NodeID) != want {
				t.Fatalf("t=%d node %d: got %v want %v", tRounds, v, out[v], want)
			}
		}
	}
}

func TestMISValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(200, 0.05, xrand.New(2))},
		{"complete", gen.Complete(50)},
		{"cycle", gen.Cycle(101)},
		{"star", gen.Star(40)},
		{"isolated-ish", gen.Path(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			out := runSpec(t, g, MIS(MISRounds(g.NumNodes())), 7)
			// All decided (whp with the default budget).
			for v, o := range out {
				if o.(MISState) == MISUndecided {
					t.Fatalf("node %d undecided", v)
				}
			}
			// Independence.
			for _, e := range g.Edges() {
				if out[e.U].(MISState) == MISIn && out[e.V].(MISState) == MISIn {
					t.Fatalf("adjacent nodes %d,%d both in MIS", e.U, e.V)
				}
			}
			// Maximality: every OUT node has an IN neighbor.
			for v, o := range out {
				if o.(MISState) != MISOut {
					continue
				}
				hasIn := false
				for _, u := range g.Neighbors(graph.NodeID(v)) {
					if out[u].(MISState) == MISIn {
						hasIn = true
						break
					}
				}
				if !hasIn {
					t.Fatalf("out-node %d has no in-neighbor", v)
				}
			}
		})
	}
}

func TestMISIsolatedNodeJoins(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	out := runSpec(t, g, MIS(MISRounds(3)), 3)
	if out[2].(MISState) != MISIn {
		t.Fatal("isolated node must join the MIS")
	}
}

func TestColoringValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(150, 0.06, xrand.New(3))},
		{"complete", gen.Complete(40)},
		{"grid", gen.Grid(9, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			out := runSpec(t, g, Coloring(ColoringRounds(g.NumNodes())), 9)
			for v, o := range out {
				c := o.(int)
				if c == 0 {
					t.Fatalf("node %d uncolored", v)
				}
				if c > g.Degree(graph.NodeID(v))+1 {
					t.Fatalf("node %d color %d exceeds deg+1", v, c)
				}
			}
			for _, e := range g.Edges() {
				if out[e.U].(int) == out[e.V].(int) {
					t.Fatalf("edge (%d,%d) monochromatic", e.U, e.V)
				}
			}
		})
	}
}

func TestBFSMatchesOracle(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.04, xrand.New(4))
	for _, tRounds := range []int{0, 2, 5, 50} {
		out := runSpec(t, g, BFS(0, tRounds), 11)
		dist := g.BFS(0, tRounds)
		for v := 0; v < g.NumNodes(); v++ {
			want := dist[v]
			if want == graph.Unreachable {
				want = Unreached
			}
			if out[v].(int) != want {
				t.Fatalf("t=%d node %d: got %v want %v", tRounds, v, out[v], want)
			}
		}
	}
}

func TestSpecsDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.08, xrand.New(5))
	for _, spec := range []Spec{MaxID(3), MIS(MISRounds(80)), Coloring(ColoringRounds(80)), BFS(0, 6)} {
		a := runSpec(t, g, spec, 17)
		b := runSpec(t, g, spec, 17)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("%s: node %d differs across identical runs", spec.Name, v)
			}
		}
	}
}

func TestMISRoundsGrowsLogarithmically(t *testing.T) {
	if MISRounds(16) >= MISRounds(1<<20) {
		t.Fatal("MISRounds not increasing")
	}
	if MISRounds(2) < 2 {
		t.Fatal("degenerate budget")
	}
}

func TestMatchingValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(200, 0.05, xrand.New(6))},
		{"complete", gen.Complete(41)}, // odd: one node must stay exposed
		{"cycle", gen.Cycle(50)},
		{"star", gen.Star(30)},
		{"path2", gen.Path(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			out := runSpec(t, g, Matching(MatchingRounds(g.NumNodes())), 13)
			// Consistency: a matched node's partner reports the same edge,
			// and matched edges are disjoint.
			var claims []graph.EdgeID
			for v, o := range out {
				e := o.(graph.EdgeID)
				if e == NoMatch {
					continue
				}
				ge, ok := g.EdgeByID(e)
				if !ok {
					t.Fatalf("node %d matched on unknown edge %d", v, e)
				}
				if ge.U != graph.NodeID(v) && ge.V != graph.NodeID(v) {
					t.Fatalf("node %d matched on non-incident edge", v)
				}
				if out[ge.Other(graph.NodeID(v))].(graph.EdgeID) != e {
					t.Fatalf("node %d and partner disagree on edge %d", v, e)
				}
				claims = append(claims, e)
			}
			slices.Sort(claims)
			for i := 0; i < len(claims); {
				j := i
				for j < len(claims) && claims[j] == claims[i] {
					j++
				}
				if j-i != 2 {
					t.Fatalf("edge %d claimed by %d endpoints", claims[i], j-i)
				}
				i = j
			}
			// Maximality: every edge has a matched endpoint.
			for _, e := range g.Edges() {
				if out[e.U].(graph.EdgeID) == NoMatch && out[e.V].(graph.EdgeID) == NoMatch {
					t.Fatalf("edge (%d,%d) has both endpoints exposed", e.U, e.V)
				}
			}
		})
	}
}

func TestMatchingFidelityUnderSimulation(t *testing.T) {
	// Matching is the fourth simulation target; its replay must match the
	// direct run exactly (exercised again at scheme level in simulate).
	g := gen.ConnectedGNP(60, 0.1, xrand.New(7))
	spec := Matching(MatchingRounds(60))
	a := runSpec(t, g, spec, 21)
	b := runSpec(t, g, spec, 21)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("matching not deterministic")
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Fatalf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}
