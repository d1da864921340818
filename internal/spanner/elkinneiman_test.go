package spanner

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func TestENRejectsBadInput(t *testing.T) {
	if _, err := ElkinNeimanDistributed(gen.Cycle(4), 0, 1, local.Config{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestENRounds(t *testing.T) {
	if ENRounds(2) != 5 || ENRounds(3) != 6 {
		t.Fatalf("ENRounds wrong: %d, %d", ENRounds(2), ENRounds(3))
	}
}

func TestENValidSpanner(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"gnp-k2", gen.ConnectedGNP(300, 0.06, xrand.New(1)), 2},
		{"gnp-k3", gen.ConnectedGNP(300, 0.06, xrand.New(1)), 3},
		{"complete-k2", gen.Complete(150), 2},
		{"complete-k3", gen.Complete(150), 3},
		{"grid-k2", gen.Grid(12, 12), 2},
		{"hypercube-k3", gen.Hypercube(8), 3},
		{"barbell-k2", gen.Barbell(25, 4), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ElkinNeimanDistributed(tc.g, tc.k, 7, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := graph.VerifySpanner(tc.g, res.S, res.StretchBound()); err != nil {
				t.Fatalf("invalid spanner: %v", err)
			}
		})
	}
}

func TestENSparsifiesDenseGraph(t *testing.T) {
	g := gen.Complete(300) // m = 44850
	res, err := ElkinNeimanDistributed(g, 2, 3, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S)*3 > g.NumEdges() {
		t.Fatalf("EN kept %d of %d edges; expected sparsification", len(res.S), g.NumEdges())
	}
	if _, _, err := graph.VerifySpanner(g, res.S, 3); err != nil {
		t.Fatal(err)
	}
}

func TestENRoundBudgetBeatsBaswanaSen(t *testing.T) {
	// The whole point of the Section 7 remark: EN's round budget is O(k),
	// Baswana–Sen's is O(k²) — so simulating EN in the two-stage scheme
	// costs proportionally fewer rounds.
	for k := 2; k <= 5; k++ {
		if ENRounds(k) >= BSRounds(k) && k > 2 {
			t.Fatalf("k=%d: ENRounds %d >= BSRounds %d", k, ENRounds(k), BSRounds(k))
		}
	}
}

func TestENBothEndpointsKnow(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.08, xrand.New(2))
	nodes := make([]*ENNode, g.NumNodes())
	_, err := local.Run(g, func(v graph.NodeID) local.Protocol {
		nodes[v] = NewENNode(2)
		return nodes[v]
	}, local.Config{Seed: 5, MaxRounds: ENRounds(2) + 1})
	if err != nil {
		t.Fatal(err)
	}
	union := map[graph.EdgeID]bool{}
	for _, nd := range nodes {
		for e := range nd.InS {
			union[e] = true
		}
	}
	if len(union) == 0 {
		t.Fatal("empty spanner")
	}
	for e := range union {
		ge, _ := g.EdgeByID(e)
		if !nodes[ge.U].InS[e] || !nodes[ge.V].InS[e] {
			t.Fatalf("edge %d not known to both endpoints", e)
		}
	}
}

func TestENEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(3))
	a, err := ElkinNeimanDistributed(g, 3, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ElkinNeimanDistributed(g, 3, 11, local.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.S) != len(b.S) {
		t.Fatal("engines disagree")
	}
	for e := range a.S {
		if !b.S[e] {
			t.Fatal("edge sets differ across engines")
		}
	}
}

func TestENProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 5
		k := int(kRaw%3) + 2
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.2, rng), rng)
		res, err := ElkinNeimanDistributed(g, k, seed, local.Config{})
		if err != nil {
			return false
		}
		_, _, err = graph.VerifySpanner(g, res.S, res.StretchBound())
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
