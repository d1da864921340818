package repro

import (
	"context"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

func TestBuildSpannerDefaults(t *testing.T) {
	g := gen.ConnectedGNP(200, 0.06, xrand.New(1))
	sp, err := NewEngine(WithSeed(3)).BuildSpanner(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.StretchBound != 17 { // defaults K=2
		t.Fatalf("default stretch bound = %d", sp.StretchBound)
	}
	max, err := sp.Verify(g)
	if err != nil {
		t.Fatal(err)
	}
	if max > sp.StretchBound {
		t.Fatalf("stretch %d > bound", max)
	}
	h, err := sp.Subgraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != len(sp.Edges) {
		t.Fatal("subgraph size mismatch")
	}
}

func TestBuildSpannerDistributed(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.08, xrand.New(2))
	sp, err := NewEngine(WithSeed(5), WithSpannerParams(1, 2, 0)).BuildSpanner(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rounds == 0 || sp.Messages == 0 {
		t.Fatal("distributed build reported no costs")
	}
	if _, err := sp.Verify(g); err != nil {
		t.Fatal(err)
	}
}

// runMatchingDirect runs scheme and "direct" under one engine at the given
// seed and fails unless every node output matches.
func runMatchingDirect(t *testing.T, g *Graph, spec AlgorithmSpec, seed uint64, scheme string) *SimulationResult {
	t.Helper()
	eng := NewEngine(WithSeed(seed), WithGamma(1), WithStageK(2))
	direct, err := eng.Run(context.Background(), "direct", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.Run(context.Background(), scheme, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for v := range direct.Outputs {
		if direct.Outputs[v] != sim.Outputs[v] {
			t.Fatalf("node %d: %v != %v", v, direct.Outputs[v], sim.Outputs[v])
		}
	}
	return sim
}

func TestSimulateScheme1MatchesDirect(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.08, xrand.New(3))
	sim := runMatchingDirect(t, g, MaxID(3), 7, "scheme1")
	if len(sim.Phases) != 2 {
		t.Fatal("phase accounting missing")
	}
}

func TestSimulateScheme2MatchesDirect(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.12, xrand.New(4))
	runMatchingDirect(t, g, MIS(MISRounds(60)), 9, "scheme2")
}

func TestFacadeValidation(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // multigraph
	if _, err := NewEngine().BuildSpanner(context.Background(), g); err == nil {
		t.Fatal("distributed build accepted a multigraph")
	}
}

func TestSimulateScheme2ENMatchesDirect(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.12, xrand.New(5))
	sim := runMatchingDirect(t, g, MaxID(2), 15, "scheme2en")
	if len(sim.Phases) != 3 {
		t.Fatal("scheme2 phase accounting")
	}
}
