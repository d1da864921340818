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

func TestENRejectsBadInput(t *testing.T) {
	if _, err := spanner.ElkinNeimanConstruction(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestENRounds(t *testing.T) {
	c2 := construct(t, spanner.ElkinNeimanConstruction, 2)
	c3 := construct(t, spanner.ElkinNeimanConstruction, 3)
	if c2.T != 5 || c3.T != 6 {
		t.Fatalf("EN round budgets wrong: %d, %d", c2.T, c3.T)
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
			c := construct(t, spanner.ElkinNeimanConstruction, tc.k)
			s, _ := build(t, c, tc.g, 7, local.Config{})
			if _, _, err := graph.VerifySpanner(tc.g, s, c.Stretch); err != nil {
				t.Fatalf("invalid spanner: %v", err)
			}
		})
	}
}

func TestENSparsifiesDenseGraph(t *testing.T) {
	g := gen.Complete(300) // m = 44850
	s, _ := build(t, construct(t, spanner.ElkinNeimanConstruction, 2), g, 3, local.Config{})
	if len(s)*3 > g.NumEdges() {
		t.Fatalf("EN kept %d of %d edges; expected sparsification", len(s), g.NumEdges())
	}
	if _, _, err := graph.VerifySpanner(g, s, 3); err != nil {
		t.Fatal(err)
	}
}

func TestENRoundBudgetBeatsBaswanaSen(t *testing.T) {
	// The whole point of the Section 7 remark: EN's round budget is O(k),
	// Baswana–Sen's is O(k²) — so simulating EN in the two-stage scheme
	// costs proportionally fewer rounds.
	for k := 3; k <= 5; k++ {
		en := construct(t, spanner.ElkinNeimanConstruction, k)
		bs := construct(t, spanner.BaswanaSenConstruction, k)
		if en.T >= bs.T {
			t.Fatalf("k=%d: EN budget %d >= BS budget %d", k, en.T, bs.T)
		}
	}
}

func TestENBothEndpointsKnow(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.08, xrand.New(2))
	nodes, _, err := direct(construct(t, spanner.ElkinNeimanConstruction, 2), g, 5, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bothEndpointsKnow(t, g, nodes)
}

func TestENEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(3))
	c := construct(t, spanner.ElkinNeimanConstruction, 3)
	a, _, err := direct(c, g, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := direct(c, g, 11, local.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("engines disagree")
	}
}

func TestENProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 5
		k := int(kRaw%3) + 2
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.2, rng), rng)
		c, err := spanner.ElkinNeimanConstruction(k)
		if err != nil {
			return false
		}
		outs, _, err := simulate.Direct(context.Background(), g, c.Spec, seed, local.Config{})
		if err != nil {
			return false
		}
		if _, _, err = graph.VerifySpanner(g, spanner.Edges(outs), c.Stretch); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
