package globalcompute

import (
	"context"
	"errors"
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func inputsMod(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64((i*7)%100 + 1)
	}
	return in
}

// aggregates are the paper's example global functions, as Converge merges.
var aggregates = map[string]func(a, b int64) int64{
	"sum": func(a, b int64) int64 { return a + b },
	"min": func(a, b int64) int64 { return min(a, b) },
	"max": func(a, b int64) int64 { return max(a, b) },
}

func oracle(in []int64, agg func(a, b int64) int64) int64 {
	acc := in[0]
	for _, v := range in[1:] {
		acc = agg(acc, v)
	}
	return acc
}

// requireAll fails unless every node returned want.
func requireAll(t *testing.T, name string, vals []int64, want int64) {
	t.Helper()
	for v, got := range vals {
		if got != want {
			t.Fatalf("%s node %d: got %d want %d", name, v, got, want)
		}
	}
}

// spannerHost builds the Sampler spanner of g and returns it as a host
// subgraph with its certified stretch and construction cost: the Section 7
// pipeline's first step, which the engine otherwise provides.
func spannerHost(t *testing.T, g *graph.Graph, p core.Params, seed uint64, cfg local.Config) (*graph.Graph, int, local.Result) {
	t.Helper()
	sp, err := core.BuildDistributed(context.Background(), g, p, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.SubgraphByEdges(sp.S)
	if err != nil {
		t.Fatal(err)
	}
	return h, sp.StretchBound(), sp.Run
}

func TestDirectComputesAggregates(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  gen.Path(30),
		"cycle": gen.Cycle(25),
		"gnp":   gen.ConnectedGNP(120, 0.05, xrand.New(1)),
		"grid":  gen.Grid(7, 7),
		"k1":    graph.New(1),
	} {
		in := inputsMod(g.NumNodes())
		diam := g.NumNodes() // safe bound
		for aggName, agg := range aggregates {
			vals, _, err := Converge(context.Background(), g, in, agg, diam, local.Config{Seed: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, aggName, err)
			}
			requireAll(t, name+"/"+aggName, vals, oracle(in, agg))
		}
	}
}

func TestDirectRejectsBadInputs(t *testing.T) {
	if _, _, err := Converge(context.Background(), gen.Path(3), []int64{1}, aggregates["sum"], 3, local.Config{}); err == nil {
		t.Fatal("short inputs accepted")
	}
}

func TestOverSpannerMatchesDirect(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.1, xrand.New(3))
	in := inputsMod(g.NumNodes())
	h, stretch, spRun := spannerHost(t, g, core.Default(1, 2), 7, local.Config{})
	vals, _, err := Converge(context.Background(), h, in, aggregates["sum"], g.Diameter()*stretch, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireAll(t, "sum", vals, oracle(in, aggregates["sum"]))
	if spRun.Messages == 0 {
		t.Fatal("spanner cost missing")
	}
	if h.NumEdges() >= g.NumEdges() {
		t.Log("spanner did not sparsify (possible on sparse inputs)")
	}
}

func TestOverSpannerBeatsDirectOnDense(t *testing.T) {
	// The Section 7 claim: o(m) messages for a global function on a dense
	// graph. K_400's diameter is 1; direct pays Θ(D·m) on the wave alone.
	g := gen.Complete(400)
	in := inputsMod(g.NumNodes())
	p := core.Default(2, 8)
	p.C = 0.5
	cfg := local.Config{Workers: -1}
	agg := aggregates["max"]
	h, stretch, spRun := spannerHost(t, g, p, 9, cfg)
	span, spanRun, err := Converge(context.Background(), h, in, agg, stretch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, directRun, err := Converge(context.Background(), g, in, agg, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(in, agg)
	requireAll(t, "spanner", span, want)
	requireAll(t, "direct", direct, want)
	if total := spRun.Messages + spanRun.Messages; total >= directRun.Messages {
		t.Fatalf("spanner pipeline (%d msgs) did not beat direct (%d msgs)", total, directRun.Messages)
	}
	t.Logf("spanner: %d msgs (%d spanner + %d agg) vs direct %d msgs",
		spRun.Messages+spanRun.Messages, spRun.Messages, spanRun.Messages, directRun.Messages)
}

func TestEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.08, xrand.New(4))
	in := inputsMod(g.NumNodes())
	_, a, err := Converge(context.Background(), g, in, aggregates["sum"], g.NumNodes(), local.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Converge(context.Background(), g, in, aggregates["sum"], g.NumNodes(), local.Config{Seed: 5, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Fatal("engines disagree")
	}
}

// TestWaveDeadlineTooShortFails pins that a wave deadline below the host's
// diameter is detected, not silently turned into wrong values: on a path of
// diameter 29 with deadline 3, nodes register with their parents while the
// min-ID wave is still travelling, and the convergecast never completes.
func TestWaveDeadlineTooShortFails(t *testing.T) {
	g := gen.Path(30)
	in := inputsMod(30)
	for name, agg := range aggregates {
		vals, _, err := Converge(context.Background(), g, in, agg, 3, local.Config{})
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%s: deadline 3 on a diameter-29 path returned %v (err %v), want ErrNotConverged", name, vals, err)
		}
	}
}

// TestConvergeCollectsTables drives the typed table path the registry's
// "globalcompute" scheme uses: every node starts with a one-entry table and
// the merged table, returned at every node, must cover all nodes.
func TestConvergeCollectsTables(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.08, xrand.New(9))
	n := g.NumNodes()
	inputs := make([]map[graph.NodeID][]graph.EdgeID, n)
	for v := 0; v < n; v++ {
		inputs[v] = map[graph.NodeID][]graph.EdgeID{graph.NodeID(v): nil}
	}
	merge := func(a, b map[graph.NodeID][]graph.EdgeID) map[graph.NodeID][]graph.EdgeID {
		maps.Copy(a, b)
		return a
	}
	rounds := 0
	cfg := local.Config{Seed: 2, OnRound: func(int, int64) { rounds++ }}
	vals, res, err := Converge(context.Background(), g, inputs, merge, g.Diameter(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, table := range vals {
		if len(table) != n {
			t.Fatalf("node %d's table covers %d of %d nodes", v, len(table), n)
		}
	}
	if rounds != res.Rounds {
		t.Fatalf("OnRound saw %d rounds, result reports %d", rounds, res.Rounds)
	}
	if res.Messages == 0 {
		t.Fatal("convergecast sent no messages")
	}
}

// TestConvergeHonorsCancellation pins the ctx port: an already-cancelled
// context stops the protocol before any value is produced.
func TestConvergeHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ConnectedGNP(60, 0.08, xrand.New(9))
	in := inputsMod(g.NumNodes())
	if _, _, err := Converge(ctx, g, in, aggregates["sum"], g.NumNodes(), local.Config{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
