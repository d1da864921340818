package simulate

import (
	"context"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/spanner"
	"repro/internal/xrand"
)

func TestCollectDirectEqualsBalls(t *testing.T) {
	g := gen.ConnectedGNP(100, 0.05, xrand.New(1))
	for _, tr := range []int{0, 1, 3} {
		coll, err := Collect(context.Background(), g, g, tr, 7, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			ball := g.Ball(graph.NodeID(v), tr)
			if len(coll.Ports[v]) != len(ball) {
				t.Fatalf("t=%d node %d collected %d, ball %d", tr, v, len(coll.Ports[v]), len(ball))
			}
			for _, u := range ball {
				ports, ok := coll.Ports[v][u]
				if !ok {
					t.Fatalf("missing origin %d", u)
				}
				if len(ports) != g.Degree(u) {
					t.Fatalf("origin %d ports %d != degree %d", u, len(ports), g.Degree(u))
				}
			}
		}
	}
}

func TestCollectHostMismatch(t *testing.T) {
	if _, err := Collect(context.Background(), gen.Path(3), gen.Path(4), 1, 1, local.Config{}); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

// checkFidelity verifies that replayed outputs from coll equal direct
// execution on g — the operational content of the paper's Section 6.
func checkFidelity(t *testing.T, g *graph.Graph, spec algorithms.Spec, coll *Collection, seed uint64) {
	t.Helper()
	want, _, err := Direct(context.Background(), g, spec, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coll.ReplayAllN(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: node %d replay %v != direct %v", spec.Name, v, got[v], want[v])
		}
	}
}

func TestReplayFidelityDirectCollection(t *testing.T) {
	// Simplest setting: collect over g itself for exactly t rounds.
	g := gen.ConnectedGNP(90, 0.06, xrand.New(2))
	const seed = 42
	for _, spec := range []algorithms.Spec{
		algorithms.MaxID(2),
		algorithms.BFS(0, 4),
		algorithms.MIS(algorithms.MISRounds(90)),
		algorithms.Coloring(algorithms.ColoringRounds(90)),
	} {
		coll, err := Collect(context.Background(), g, g, spec.T, seed, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkFidelity(t, g, spec, coll, seed)
	}
}

func TestScheme1Fidelity(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(80, 0.08, xrand.New(3))},
		{"grid", gen.Grid(8, 8)},
		{"barbell", gen.Barbell(12, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			const seed = 11
			for _, spec := range []algorithms.Spec{
				algorithms.MaxID(3),
				algorithms.MIS(algorithms.MISRounds(g.NumNodes())),
			} {
				res, err := Scheme1Src(context.Background(), g, spec, Scheme1Params(1), local.Config{Seed: seed}, Hooks{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkFidelity(t, g, spec, res.Coll, seed)
				if len(res.Phases) != 2 {
					t.Fatal("scheme1 phase accounting")
				}
				if res.TotalMessages() <= 0 || res.TotalRounds() <= 0 {
					t.Fatal("degenerate cost accounting")
				}
			}
		})
	}
}

func TestScheme1FidelityK2(t *testing.T) {
	g := gen.ConnectedGNP(70, 0.1, xrand.New(4))
	const seed = 13
	spec := algorithms.Coloring(algorithms.ColoringRounds(70))
	res, err := Scheme1Src(context.Background(), g, spec, Scheme1Params(2), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFidelity(t, g, spec, res.Coll, seed)
}

func TestGossipCollectFidelity(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.12, xrand.New(5))
	const seed, tr = 17, 2
	spec := algorithms.MaxID(tr)
	coll, cover, msgs, err := GossipCollectEarly(context.Background(), g, tr, 600, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cover < 0 {
		t.Fatal("gossip did not cover within budget")
	}
	if cover < tr {
		t.Fatalf("cover round %d below t", cover)
	}
	if msgs <= 0 {
		t.Fatal("no messages counted")
	}
	checkFidelity(t, g, spec, coll, seed)
}

func TestScheme2FidelityAndSpanner(t *testing.T) {
	g := gen.ConnectedGNP(70, 0.12, xrand.New(6))
	const seed = 23
	spec := algorithms.MaxID(2)
	res, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), BaswanaSenStage2(2), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFidelity(t, g, spec, res.Coll, seed)
	if res.StretchUsed != 3 {
		t.Fatalf("stage-2 stretch = %d, want 3", res.StretchUsed)
	}
	if res.FinalSpanner == nil {
		t.Fatal("no final spanner recorded")
	}
	if _, _, err := graph.VerifySpanner(g, res.FinalSpanner, res.StretchUsed); err != nil {
		t.Fatalf("simulated Baswana–Sen output is not a valid spanner: %v", err)
	}
	if len(res.Phases) != 3 {
		t.Fatal("scheme2 phase accounting")
	}
}

func TestScheme2MatchesDirectBS(t *testing.T) {
	// The simulated Baswana–Sen must produce exactly the edge set of a
	// direct distributed run with the same seed.
	g := gen.ConnectedGNP(60, 0.15, xrand.New(7))
	const seed, bsK = 29, 2
	res, err := Scheme2WithSrc(context.Background(), g, algorithms.MaxID(1), Scheme1Params(1), BaswanaSenStage2(bsK), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct BS run with identical seed: the replayed construction must
	// reproduce it edge for edge (both use the same per-node RNG streams).
	direct, err := spanner.BaswanaSenDistributed(g, bsK, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.S) != len(res.FinalSpanner) {
		t.Fatalf("simulated BS has %d edges, direct %d", len(res.FinalSpanner), len(direct.S))
	}
	for e := range direct.S {
		if !res.FinalSpanner[e] {
			t.Fatal("simulated and direct BS disagree")
		}
	}
}

func TestScheme1Params(t *testing.T) {
	p := Scheme1Params(2)
	if p.K != 2 || p.H != 7 {
		t.Fatalf("coupling wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectBroadcastCost(t *testing.T) {
	g := gen.Complete(40)
	coll, err := Collect(context.Background(), g, g, 2, 3, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Complete graph, t=2: everyone knows everyone.
	for v := range coll.Ports {
		if len(coll.Ports[v]) != 40 {
			t.Fatalf("node %d knows %d of 40", v, len(coll.Ports[v]))
		}
	}
	if coll.Run.Messages < int64(2*g.NumEdges()) {
		t.Fatal("direct broadcast cheaper than one sweep?")
	}
}

func TestSchemeBeatsDirectOnDenseGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("dense-graph crossover needs a few hundred nodes")
	}
	// The free-lunch claim end to end: simulating a t-round algorithm over
	// the Sampler spanner costs fewer messages than direct flooding, on a
	// graph dense enough for the crossover at this scale.
	g := gen.Complete(400)
	const seed, tr = 3, 4
	spec := algorithms.MaxID(tr)
	p := core.Default(2, 8)
	p.C = 0.5
	res, err := Scheme1Src(context.Background(), g, spec, p, local.Config{Seed: seed, Workers: -1}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Collect(context.Background(), g, g, tr, seed, local.Config{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scheme1: %d msgs (spanner %d + collect %d); direct: %d msgs",
		res.TotalMessages(), res.Phases[0].Messages, res.Phases[1].Messages, direct.Run.Messages)
	if res.TotalMessages() >= direct.Run.Messages {
		t.Fatalf("scheme1 (%d msgs) did not beat direct flooding (%d msgs)",
			res.TotalMessages(), direct.Run.Messages)
	}
	// And fidelity still holds on a sample of nodes.
	want, _, err := Direct(context.Background(), g, spec, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.NodeID{0, 17, 399} {
		got, err := res.Coll.Replay(spec, v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[v] {
			t.Fatalf("node %d: %v != %v", v, got, want[v])
		}
	}
}

func TestReplayDetectsCorruptCollection(t *testing.T) {
	g := gen.Path(3)
	coll, err := Collect(context.Background(), g, g, 2, 1, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: a third node claims an existing edge.
	coll.Ports[0][2] = append(coll.Ports[0][2], coll.Ports[0][0][0])
	if _, err := coll.Replay(algorithms.MaxID(2), 0); err == nil {
		t.Fatal("corrupt collection accepted")
	}
}

func TestScheme2WithElkinNeiman(t *testing.T) {
	g := gen.ConnectedGNP(70, 0.12, xrand.New(8))
	const seed = 37
	spec := algorithms.MaxID(2)
	res, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), ElkinNeimanStage2(2), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFidelity(t, g, spec, res.Coll, seed)
	if _, _, err := graph.VerifySpanner(g, res.FinalSpanner, res.StretchUsed); err != nil {
		t.Fatalf("simulated Elkin–Neiman output invalid: %v", err)
	}
	// The EN stage must cost fewer rounds than the BS stage at the same
	// stretch (k'=2: EN 5 rounds vs BS 7, times the stage-1 stretch).
	bs, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), BaswanaSenStage2(2), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[1].Rounds >= bs.Phases[1].Rounds {
		t.Fatalf("EN stage rounds %d not below BS stage rounds %d",
			res.Phases[1].Rounds, bs.Phases[1].Rounds)
	}
}

func TestScheme2ENMatchesDirectEN(t *testing.T) {
	// Same seed: the simulated EN run must reproduce the direct distributed
	// run edge for edge.
	g := gen.ConnectedGNP(60, 0.15, xrand.New(9))
	const seed, k = 43, 2
	res, err := Scheme2WithSrc(context.Background(), g, algorithms.MaxID(1), Scheme1Params(1), ElkinNeimanStage2(k), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := spanner.ElkinNeimanDistributed(g, k, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.S) != len(res.FinalSpanner) {
		t.Fatalf("simulated EN has %d edges, direct %d", len(res.FinalSpanner), len(direct.S))
	}
	for e := range direct.S {
		if !res.FinalSpanner[e] {
			t.Fatal("simulated and direct EN disagree")
		}
	}
}
