package broadcast

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// portLists is the payload table the collections broadcast: every node's
// incident edge IDs, so payload sizes vary with degree.
func portLists(g *graph.Graph) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, g.NumNodes())
	for v := range out {
		for _, h := range g.Incident(graph.NodeID(v)) {
			out[v] = append(out[v], h.Edge)
		}
	}
	return out
}

// TestBroadcastBillPin pins the bills of every primitive on one fixed graph
// with port-list payloads: messages, rounds and payload units of Flood and
// FloodBudget (one-word and unbounded bandwidth), and messages, rounds, units and cover round of Gossip (early
// stop and fixed schedule). Every value except gossip's units was recorded
// when rumors still carried their payloads as interface values. Gossip then
// charged one word per rumor (15134 and 82330 units here); it now charges
// 1 + len(M_o) per origin, like the floods.
func TestBroadcastBillPin(t *testing.T) {
	ctx := context.Background()
	g := gen.ConnectedGNP(40, 0.1, xrand.New(7))
	payloads := portLists(g)
	bi := NewBallIndex(g, 2)
	type bill struct {
		msgs   int64
		rounds int
		units  int64
		cover  int
	}
	cases := []struct {
		name string
		run  func() (*Result, int, error)
		want bill
	}{
		{"flood/all-seeds", func() (*Result, int, error) {
			r, err := Flood(ctx, g, payloads, 3, local.Config{Seed: 1})
			return r, -1, err
		}, bill{456, 4, 14973, -1}},
		{"flood-budget/bw=1", func() (*Result, int, error) {
			r, err := FloodBudget(ctx, g, payloads, 3, 1, local.Config{})
			return r, -1, err
		}, bill{14973, 153, 14973, -1}},
		{"flood-budget/bw=large", func() (*Result, int, error) {
			r, err := FloodBudget(ctx, g, payloads, 3, 1<<20, local.Config{})
			return r, -1, err
		}, bill{456, 4, 14973, -1}},
		{"gossip/early-stop", func() (*Result, int, error) {
			return Gossip(ctx, g, payloads, bi, 2000, local.Config{Seed: 5})
		}, bill{680, 9, 73958, 8}},
		{"gossip/fixed-schedule", func() (*Result, int, error) {
			r, _, err := Gossip(ctx, g, payloads, nil, 30, local.Config{Seed: 5})
			if err != nil {
				return nil, 0, err
			}
			return r, coverRound(t, g, payloads, bi, 30, local.Config{Seed: 5}), nil
		}, bill{2360, 31, 396502, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, cover, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got := bill{res.Run.Messages, res.Run.Rounds, res.Run.PayloadUnits, cover}
			if got != tc.want {
				t.Fatalf("bill %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestGossipPayloadUnits pins gossip's unit rule: a rumor costs one word for
// its origin plus its port list, as in the floods. A one-round schedule
// sends only the round-0 pushes, each carrying its sender's own rumor, from
// every node with a neighbor.
func TestGossipPayloadUnits(t *testing.T) {
	g := graph.New(6) // the path 0-1-2-3-4 plus the isolated node 5
	for v := 0; v < 4; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	payloads := portLists(g)
	res := fixedGossip(t, g, payloads, 1, local.Config{Seed: 2})
	var want int64
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > 0 {
			want += 1 + int64(len(payloads[v]))
		}
	}
	if res.Run.PayloadUnits != want {
		t.Fatalf("gossip charged %d payload units for the round-0 pushes, want %d", res.Run.PayloadUnits, want)
	}
}
