package spanner_test

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/simulate"
	"repro/internal/spanner"
	"repro/internal/xrand"
)

// construct returns build's construction at k, failing t if k is rejected.
func construct(t testing.TB, build func(int) (spanner.Construction, error), k int) spanner.Construction {
	t.Helper()
	c, err := build(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// direct runs c on g directly under the LOCAL engine (simulate.Direct, the
// construction's Θ(k·m)-message baseline) and returns every node's incident
// spanner edges and the run's cost.
func direct(c spanner.Construction, g *graph.Graph, seed uint64, cfg local.Config) ([]map[graph.EdgeID]bool, local.Result, error) {
	outs, run, err := simulate.Direct(context.Background(), g, c.Spec, seed, cfg)
	if err != nil {
		return nil, run, err
	}
	nodes := make([]map[graph.EdgeID]bool, len(outs))
	for v, o := range outs {
		nodes[v] = o.(map[graph.EdgeID]bool)
	}
	return nodes, run, nil
}

// build is direct reduced to the spanner it built: the union of the
// per-node outputs.
func build(t testing.TB, c spanner.Construction, g *graph.Graph, seed uint64, cfg local.Config) (map[graph.EdgeID]bool, local.Result) {
	t.Helper()
	outs, run, err := simulate.Direct(context.Background(), g, c.Spec, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return spanner.Edges(outs), run
}

func TestBaswanaSenRejectsBadInput(t *testing.T) {
	if _, _, err := direct(construct(t, spanner.BaswanaSenConstruction, 2), nil, 1, local.Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := spanner.BaswanaSenConstruction(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBaswanaSenK1IsWholeGraph(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.1, xrand.New(1))
	c := construct(t, spanner.BaswanaSenConstruction, 1)
	s, _ := build(t, c, g, 2, local.Config{})
	if len(s) != g.NumEdges() {
		t.Fatalf("k=1 spanner has %d of %d edges", len(s), g.NumEdges())
	}
	if c.Stretch != 1 {
		t.Fatal("k=1 stretch bound")
	}
}

func TestBaswanaSenValidSpanner(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"gnp-k2", gen.ConnectedGNP(300, 0.06, xrand.New(2)), 2},
		{"gnp-k3", gen.ConnectedGNP(300, 0.06, xrand.New(2)), 3},
		{"complete-k2", gen.Complete(120), 2},
		{"complete-k3", gen.Complete(120), 3},
		{"grid-k2", gen.Grid(12, 12), 2},
		{"hypercube-k3", gen.Hypercube(8), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := construct(t, spanner.BaswanaSenConstruction, tc.k)
			s, _ := build(t, c, tc.g, 7, local.Config{})
			if _, _, err := graph.VerifySpanner(tc.g, s, c.Stretch); err != nil {
				t.Fatalf("invalid spanner: %v", err)
			}
		})
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	g := gen.Complete(300) // m = 44850
	s, _ := build(t, construct(t, spanner.BaswanaSenConstruction, 3), g, 5, local.Config{})
	// Expected size O(k n^{1+1/k}) = 3·300^{4/3} ≈ 6000; allow 3x.
	if float64(len(s)) > 3*spanner.SizeBound(300, 3) {
		t.Fatalf("spanner size %d far above expectation %v", len(s), spanner.SizeBound(300, 3))
	}
	if len(s)*3 > g.NumEdges() {
		t.Fatalf("no sparsification: %d of %d", len(s), g.NumEdges())
	}
}

func TestBaswanaSenDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(200, 0.05, xrand.New(3))
	c := construct(t, spanner.BaswanaSenConstruction, 2)
	a, _, err := direct(c, g, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := direct(c, g, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-node edge sets differ for same seed")
	}
}

func TestBaswanaSenProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 5
		k := int(kRaw%3) + 1
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.2, rng), rng)
		c, err := spanner.BaswanaSenConstruction(k)
		if err != nil {
			return false
		}
		outs, _, err := simulate.Direct(context.Background(), g, c.Spec, seed, local.Config{})
		if err != nil {
			return false
		}
		_, _, err = graph.VerifySpanner(g, spanner.Edges(outs), c.Stretch)
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedBSValidSpanner(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := gen.ConnectedGNP(200, 0.07, xrand.New(4))
		c := construct(t, spanner.BaswanaSenConstruction, k)
		s, _ := build(t, c, g, 9, local.Config{})
		if _, _, err := graph.VerifySpanner(g, s, c.Stretch); err != nil {
			t.Fatalf("k=%d: invalid spanner: %v", k, err)
		}
	}
}

func TestDistributedBSMessageComplexityIsThetaM(t *testing.T) {
	// The baseline's defining property: messages scale with m, not n.
	c := construct(t, spanner.BaswanaSenConstruction, 2)
	sparse := gen.ConnectedGNP(300, 0.03, xrand.New(5))
	dense := gen.Complete(300)
	_, rs := build(t, c, sparse, 5, local.Config{})
	_, rd := build(t, c, dense, 5, local.Config{})
	// Announcements alone send >= 2m messages (k=2: two announce rounds).
	if rs.Messages < 2*int64(sparse.NumEdges()) {
		t.Fatalf("sparse: %d messages < 2m", rs.Messages)
	}
	if rd.Messages < 2*int64(dense.NumEdges()) {
		t.Fatalf("dense: %d messages < 2m", rd.Messages)
	}
	ratio := float64(rd.Messages) / float64(rs.Messages)
	mRatio := float64(dense.NumEdges()) / float64(sparse.NumEdges())
	if ratio < mRatio/3 {
		t.Fatalf("message growth %.1f does not track edge growth %.1f", ratio, mRatio)
	}
}

// bothEndpointsKnow fails t unless every edge some node outputs is output
// by both of its endpoints — the property that makes spanner.Edges, a
// union, equal to what any single endpoint knows.
func bothEndpointsKnow(t *testing.T, g *graph.Graph, nodes []map[graph.EdgeID]bool) {
	t.Helper()
	n := 0
	for _, edges := range nodes {
		for e := range edges {
			ge, _ := g.EdgeByID(e)
			if !nodes[ge.U][e] || !nodes[ge.V][e] {
				t.Fatalf("edge %d not known to both endpoints", e)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("empty spanner")
	}
}

func TestDistributedBSBothEndpointsKnow(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.06, xrand.New(6))
	nodes, _, err := direct(construct(t, spanner.BaswanaSenConstruction, 2), g, 8, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bothEndpointsKnow(t, g, nodes)
}

func TestDistributedBSEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(7))
	c := construct(t, spanner.BaswanaSenConstruction, 3)
	a, ra, err := direct(c, g, 13, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := direct(c, g, 13, local.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Messages != rb.Messages || !reflect.DeepEqual(a, b) {
		t.Fatal("engines disagree")
	}
}

func TestSizeBound(t *testing.T) {
	if spanner.SizeBound(100, 1) != 100*100 {
		t.Fatalf("SizeBound(100,1) = %v", spanner.SizeBound(100, 1))
	}
}
