package spanner

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func TestBaswanaSenRejectsBadInput(t *testing.T) {
	if _, err := BaswanaSen(nil, 2, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := BaswanaSen(gen.Cycle(4), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBaswanaSenK1IsWholeGraph(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.1, xrand.New(1))
	res, err := BaswanaSen(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) != g.NumEdges() {
		t.Fatalf("k=1 spanner has %d of %d edges", len(res.S), g.NumEdges())
	}
	if res.StretchBound() != 1 {
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
			res, err := BaswanaSen(tc.g, tc.k, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := graph.VerifySpanner(tc.g, res.S, res.StretchBound()); err != nil {
				t.Fatalf("invalid spanner: %v", err)
			}
		})
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	g := gen.Complete(300) // m = 44850
	res, err := BaswanaSen(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Expected size O(k n^{1+1/k}) = 3·300^{4/3} ≈ 6000; allow 3x.
	if float64(len(res.S)) > 3*SizeBound(300, 3) {
		t.Fatalf("spanner size %d far above expectation %v", len(res.S), SizeBound(300, 3))
	}
	if len(res.S)*3 > g.NumEdges() {
		t.Fatalf("no sparsification: %d of %d", len(res.S), g.NumEdges())
	}
}

func TestBaswanaSenDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(200, 0.05, xrand.New(3))
	a, err := BaswanaSen(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BaswanaSen(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.sortedEdgeIDs(), b.sortedEdgeIDs()
	if len(ea) != len(eb) {
		t.Fatal("sizes differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("edge sets differ for same seed")
		}
	}
}

func TestBaswanaSenProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 5
		k := int(kRaw%3) + 1
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.2, rng), rng)
		res, err := BaswanaSen(g, k, seed)
		if err != nil {
			return false
		}
		_, _, err = graph.VerifySpanner(g, res.S, res.StretchBound())
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBSRounds(t *testing.T) {
	if BSRounds(1) != 3 {
		t.Fatalf("BSRounds(1) = %d", BSRounds(1))
	}
	if BSRounds(2) != 7 {
		t.Fatalf("BSRounds(2) = %d", BSRounds(2))
	}
	if BSRounds(3) != 12 {
		t.Fatalf("BSRounds(3) = %d", BSRounds(3))
	}
}

func TestBSLocateCoversAllRounds(t *testing.T) {
	for k := 1; k <= 4; k++ {
		prevIter, prevPh := 0, bsPhase(0)
		for r := 0; r < BSRounds(k); r++ {
			iter, ph := bsLocate(r, k)
			if iter < 1 || iter > k {
				t.Fatalf("k=%d round %d: iter %d", k, r, iter)
			}
			if ph == bsDone {
				t.Fatalf("k=%d round %d: done before budget", k, r)
			}
			if iter < prevIter {
				t.Fatal("iteration went backwards")
			}
			prevIter, prevPh = iter, ph
		}
		_ = prevPh
		if _, ph := bsLocate(BSRounds(k), k); ph != bsDone {
			t.Fatalf("k=%d: budget round is not done", k)
		}
	}
}

func TestDistributedBSValidSpanner(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := gen.ConnectedGNP(200, 0.07, xrand.New(4))
		res, err := BaswanaSenDistributed(g, k, 9, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := graph.VerifySpanner(g, res.S, res.StretchBound()); err != nil {
			t.Fatalf("k=%d: invalid spanner: %v", k, err)
		}
	}
}

func TestDistributedBSMessageComplexityIsThetaM(t *testing.T) {
	// The baseline's defining property: messages scale with m, not n.
	k := 2
	sparse := gen.ConnectedGNP(300, 0.03, xrand.New(5))
	dense := gen.Complete(300)
	rs, err := BaswanaSenDistributed(sparse, k, 5, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := BaswanaSenDistributed(dense, k, 5, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Announcements alone send >= 2m messages (k=2: two announce rounds).
	if rs.Run.Messages < 2*int64(sparse.NumEdges()) {
		t.Fatalf("sparse: %d messages < 2m", rs.Run.Messages)
	}
	if rd.Run.Messages < 2*int64(dense.NumEdges()) {
		t.Fatalf("dense: %d messages < 2m", rd.Run.Messages)
	}
	ratio := float64(rd.Run.Messages) / float64(rs.Run.Messages)
	mRatio := float64(dense.NumEdges()) / float64(sparse.NumEdges())
	if ratio < mRatio/3 {
		t.Fatalf("message growth %.1f does not track edge growth %.1f", ratio, mRatio)
	}
}

func TestDistributedBSBothEndpointsKnow(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.06, xrand.New(6))
	nodes := make([]*BSNode, g.NumNodes())
	_, err := local.Run(g, func(v graph.NodeID) local.Protocol {
		nodes[v] = NewBSNode(2)
		return nodes[v]
	}, local.Config{Seed: 8, MaxRounds: BSRounds(2) + 1})
	if err != nil {
		t.Fatal(err)
	}
	union := make(map[graph.EdgeID]bool)
	for _, nd := range nodes {
		for e := range nd.InS {
			union[e] = true
		}
	}
	for e := range union {
		ge, _ := g.EdgeByID(e)
		if !nodes[ge.U].InS[e] || !nodes[ge.V].InS[e] {
			t.Fatalf("edge %d not known to both endpoints", e)
		}
	}
}

func TestDistributedBSEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(7))
	a, err := BaswanaSenDistributed(g, 3, 13, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BaswanaSenDistributed(g, 3, 13, local.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.S) != len(b.S) || a.Run.Messages != b.Run.Messages {
		t.Fatal("engines disagree")
	}
	for e := range a.S {
		if !b.S[e] {
			t.Fatal("edge sets differ across engines")
		}
	}
}

func TestSizeBound(t *testing.T) {
	if SizeBound(100, 1) != 100*100 {
		t.Fatalf("SizeBound(100,1) = %v", SizeBound(100, 1))
	}
}
