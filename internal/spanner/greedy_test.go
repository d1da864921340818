package spanner_test

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/spanner"
	"repro/internal/xrand"
)

func TestGreedyRejectsBadInput(t *testing.T) {
	if _, err := spanner.Greedy(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := spanner.Greedy(gen.Cycle(4), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestGreedyK1KeepsSimpleGraph(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.1, xrand.New(1))
	res, err := spanner.Greedy(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) != g.SimpleEdgeCount() {
		t.Fatalf("k=1 greedy kept %d of %d simple edges", len(res.S), g.SimpleEdgeCount())
	}
}

func TestGreedyValidAndSparse(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := gen.Complete(150)
		res, err := spanner.Greedy(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := graph.VerifySpanner(g, res.S, res.StretchBound()); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Greedy on K_n with stretch 2k−1 keeps O(n^{1+1/k}) edges; allow
		// slack but demand real sparsification.
		if float64(len(res.S)) > spanner.SizeBound(150, k) {
			t.Fatalf("k=%d: %d edges above the O(k n^{1+1/k}) ballpark %v", k, len(res.S), spanner.SizeBound(150, k))
		}
	}
}

func TestGreedySmallerThanRandomizedConstructions(t *testing.T) {
	// Greedy is the quality yardstick: on dense graphs it should not be
	// larger than Baswana–Sen at the same stretch.
	g := gen.Complete(200)
	greedy, err := spanner.Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := build(t, construct(t, spanner.BaswanaSenConstruction, 2), g, 7, local.Config{})
	if len(greedy.S) > len(bs) {
		t.Fatalf("greedy (%d) larger than Baswana–Sen (%d) at stretch 3", len(greedy.S), len(bs))
	}
}

func TestGreedyDropsParallelEdges(t *testing.T) {
	base := gen.Cycle(10)
	g := gen.Multi(base, func(e graph.Edge) int { return 3 })
	res, err := spanner.Greedy(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) != 10 {
		t.Fatalf("greedy kept %d edges of the tripled cycle", len(res.S))
	}
}

// TestGreedyProcessesEdgesByID pins Greedy's edge order on a graph whose
// insertion order is not its ID order: a 4-cycle inserted in descending ID
// order. At k = 2 the last edge processed closes a cycle of length 4 ≤ 2k
// and is dropped, so processing by ascending ID drops the highest ID.
func TestGreedyProcessesEdgesByID(t *testing.T) {
	g := graph.New(4)
	for i, id := range []graph.EdgeID{3, 2, 1, 0} {
		if err := g.AddEdgeWithID(id, graph.NodeID(i), graph.NodeID((i+1)%4)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := spanner.Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []graph.EdgeID{0, 1, 2}; !slices.Equal(res.S, want) {
		t.Fatalf("greedy kept %v, want %v (edge 3, the highest ID, dropped)", res.S, want)
	}
}

// TestGreedyAllocsDoNotGrowWithEdges checks that Greedy reuses one search
// state across its edge tests. Doubling n quadruples K_n's edge count, but
// at k = 3 Greedy keeps a star, so its allocations (the ID-sorted edge copy,
// the search state and the spanner's adjacency) may only double.
func TestGreedyAllocsDoNotGrowWithEdges(t *testing.T) {
	allocs := func(n int) float64 {
		g := gen.Complete(n)
		return testing.AllocsPerRun(2, func() {
			if _, err := spanner.Greedy(g, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(60), allocs(120)
	if large > 2*small+16 {
		t.Fatalf("Greedy(K_120, 3) made %v allocations against K_60's %v: they grow with the edge count", large, small)
	}
}

// ascending reports whether s is strictly ascending.
func ascending(s []graph.EdgeID) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

func TestGreedyProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 5
		k := int(kRaw%3) + 1
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.25, rng), rng)
		res, err := spanner.Greedy(g, k)
		if err != nil {
			return false
		}
		_, _, err = graph.VerifySpanner(g, res.S, res.StretchBound())
		return err == nil && ascending(res.S)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
