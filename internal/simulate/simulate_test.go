package simulate

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/spanner"
	"repro/internal/xrand"
)

// TestCollectDirectEqualsBalls checks the collection format every producer
// shares: one table row per node, equal to portsOf(g), and a heard set per
// node covering its t-ball. Flooding g itself for t rounds hears exactly
// the ball.
func TestCollectDirectEqualsBalls(t *testing.T) {
	ctx := context.Background()
	g := gen.ConnectedGNP(100, 0.05, xrand.New(1))
	want := portsOf(g)
	cfg := local.Config{Seed: 7}
	for _, tr := range []int{0, 1, 3} {
		spec := algorithms.MaxID(tr)
		producers := []struct {
			name  string
			exact bool
			run   func() (*Collection, error)
		}{
			{"Collect", true, func() (*Collection, error) { return Collect(ctx, g, g, tr, 7, local.Config{}) }},
			{"CollectBudget", true, func() (*Collection, error) { return CollectBudget(ctx, g, g, tr, 3, 7, local.Config{}) }},
			{"GossipCollectEarly", false, func() (*Collection, error) {
				coll, _, _, err := GossipCollectEarly(ctx, g, tr, 600, 7, local.Config{})
				return coll, err
			}},
			{"GlobalCollectSrc", false, func() (*Collection, error) {
				res, err := GlobalCollectSrc(ctx, g, spec, Scheme1Params(1), cfg, Hooks{}, nil)
				if err != nil {
					return nil, err
				}
				return res.Coll, nil
			}},
		}
		for _, p := range producers {
			coll, err := p.run()
			if err != nil {
				t.Fatalf("t=%d %s: %v", tr, p.name, err)
			}
			if len(coll.Table) != g.NumNodes() || len(coll.Ports) != g.NumNodes() || coll.N != g.NumNodes() {
				t.Fatalf("t=%d %s: %d rows, %d heard sets, N=%d for %d nodes",
					tr, p.name, len(coll.Table), len(coll.Ports), coll.N, g.NumNodes())
			}
			if !reflect.DeepEqual(coll.Table, want) {
				t.Fatalf("t=%d %s: table differs from portsOf(g)", tr, p.name)
			}
			for v := 0; v < g.NumNodes(); v++ {
				ball := g.Ball(graph.NodeID(v), tr)
				if p.exact && len(coll.Ports[v]) != len(ball) {
					t.Fatalf("t=%d %s: node %d heard %d origins, ball %d", tr, p.name, v, len(coll.Ports[v]), len(ball))
				}
				for _, u := range ball {
					if _, ok := slices.BinarySearch(coll.Ports[v], u); !ok {
						t.Fatalf("t=%d %s: node %d never heard ball member %d", tr, p.name, v, u)
					}
				}
			}
		}
	}
}

func TestCollectHostMismatch(t *testing.T) {
	if _, err := Collect(context.Background(), gen.Path(3), gen.Path(4), 1, 1, local.Config{}); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	if _, err := CollectBudget(context.Background(), gen.Path(3), gen.Path(4), 1, 2, 1, local.Config{}); err == nil {
		t.Fatal("node-count mismatch accepted under a bandwidth cap")
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
	res, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), construction(t, spanner.BaswanaSenConstruction, 2), local.Config{Seed: seed}, Hooks{}, nil)
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
	const seed = 29
	bsc := construction(t, spanner.BaswanaSenConstruction, 2)
	res, err := Scheme2WithSrc(context.Background(), g, algorithms.MaxID(1), Scheme1Params(1), bsc, local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct BS run with identical seed: the replayed construction must
	// reproduce it edge for edge (both use the same per-node RNG streams).
	outs, _, err := Direct(context.Background(), g, bsc.Spec, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if direct := spanner.Edges(outs); !reflect.DeepEqual(direct, res.FinalSpanner) {
		t.Fatalf("simulated BS has %d edges, direct %d; the edge sets differ", len(res.FinalSpanner), len(direct))
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

// TestHeardSetsAscending checks the order Collection.Ports promises: every
// heard-set producer returns strictly ascending heard sets. Flood runs on
// the sequential engine and on 2 workers, flawless and under the delay2,
// drop10 and crash2 profiles; FloodBudget, Gossip with and without a ball
// index, and globalcompute's collection run flawless. On the flawless
// network Flood's Known[v] must also be exactly graph.Ball(v, rounds). The
// graphs are every generated family at n in {1, 63, 64, 65}, so heard
// origins fall on both sides of a 64-bit word boundary.
func TestHeardSetsAscending(t *testing.T) {
	ctx := context.Background()
	const rounds = 2
	profiles := []adversary.Profile{{Name: "flawless"}}
	for _, name := range []string{"delay2", "drop10", "crash2"} {
		prof, ok := adversary.Named(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		profiles = append(profiles, prof)
	}
	for _, n := range []int{1, 63, 64, 65} {
		exact := 0 // graphs built with exactly n nodes
		for _, fam := range gen.Families() {
			if fam.Name == "edgelist" {
				continue // it loads its graph from a file
			}
			g, err := gen.Build(gen.Spec{Family: fam.Name, N: n, Degree: 4, Seed: 1})
			if err != nil {
				continue // a shape the family rejects
			}
			if g.NumNodes() == n {
				exact++
			}
			name := fmt.Sprintf("%s/n=%d", fam.Name, g.NumNodes())
			table := portsOf(g)
			for _, prof := range profiles {
				for _, workers := range []int{0, 2} {
					cfg := local.Config{Seed: 5, Workers: workers}
					if prof.Name != "flawless" {
						cfg.Adversary = adversary.Compile(prof, 5)
					}
					fl, err := broadcast.Flood(ctx, g, table, rounds, cfg)
					if err != nil {
						t.Fatalf("%s: flood %s workers=%d: %v", name, prof.Name, workers, err)
					}
					requireAscending(t, fmt.Sprintf("%s: flood %s workers=%d", name, prof.Name, workers), fl.Known)
					if cfg.Adversary != nil {
						continue
					}
					for v, heard := range fl.Known {
						if ball := g.Ball(graph.NodeID(v), rounds); !slices.Equal(heard, ball) {
							t.Fatalf("%s: flood workers=%d: node %d heard %v, ball %v", name, workers, v, heard, ball)
						}
					}
				}
			}
			budget, err := broadcast.FloodBudget(ctx, g, table, rounds, 3, local.Config{})
			if err != nil {
				t.Fatalf("%s: budgeted flood: %v", name, err)
			}
			requireAscending(t, name+": budgeted flood", budget.Known)
			for _, bi := range []*broadcast.BallIndex{nil, broadcast.NewBallIndex(g, rounds)} {
				gos, _, err := broadcast.Gossip(ctx, g, table, bi, 4*g.NumNodes(), local.Config{Seed: 5})
				if err != nil {
					t.Fatalf("%s: gossip: %v", name, err)
				}
				requireAscending(t, fmt.Sprintf("%s: gossip ball index %v", name, bi != nil), gos.Known)
			}
			if g.NumNodes() > 1 && g.Connected() {
				res, err := GlobalCollectSrc(ctx, g, algorithms.MaxID(rounds), Scheme1Params(1), local.Config{Seed: 5}, Hooks{}, nil)
				if err != nil {
					t.Fatalf("%s: globalcompute: %v", name, err)
				}
				requireAscending(t, name+": globalcompute", res.Coll.Ports)
			}
		}
		if exact == 0 {
			t.Fatalf("no family built a graph of exactly %d nodes", n)
		}
	}
}

// requireAscending fails t unless every heard set is strictly ascending.
func requireAscending(t *testing.T, name string, heard [][]graph.NodeID) {
	t.Helper()
	for v, h := range heard {
		for i := 1; i < len(h); i++ {
			if h[i] <= h[i-1] {
				t.Fatalf("%s: node %d's heard set %v is not strictly ascending", name, v, h)
			}
		}
	}
}

// TestReplayDetectsCorruptCollection checks that pairing a corrupt table
// fails every replay: an edge claimed by three rows, or named twice by one
// row (a self-loop). It also checks that a heard set out of strictly
// ascending order fails its own node's replay, and only that one, with a
// *HeardOrderError naming the node: two origins swapped, or an origin heard
// twice in place of a missing one, which keeps the count of node 2's closed
// component and so must not share its run.
func TestReplayDetectsCorruptCollection(t *testing.T) {
	g := gen.Path(3)
	all := []graph.NodeID{0, 1, 2}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Collection) string // returns the wanted error
		failing []graph.NodeID             // the nodes whose replay must fail
		order   bool                       // a *HeardOrderError with exactly the wanted text
	}{
		{"third-owner", func(c *Collection) string {
			c.Table[2] = append(c.Table[2], c.Table[0][0])
			return fmt.Sprintf("edge %d claimed by 3 nodes", c.Table[0][0])
		}, all, false},
		{"self-loop", func(c *Collection) string {
			c.Table[0] = append(c.Table[0], 99, 99)
			return "reconstructed self-loop on edge 99"
		}, all, false},
		{"unsorted-heard-set", func(c *Collection) string {
			c.Ports[1][0], c.Ports[1][1] = c.Ports[1][1], c.Ports[1][0]
			return "simulate: node 1's heard set is not strictly ascending: origin 0 follows 1"
		}, []graph.NodeID{1}, true},
		{"duplicate-origin", func(c *Collection) string {
			c.Ports[2] = []graph.NodeID{0, 0, 2}
			return "simulate: node 2's heard set is not strictly ascending: origin 0 follows 0"
		}, []graph.NodeID{2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll, err := Collect(context.Background(), g, g, 2, 1, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.corrupt(coll)
			spec := algorithms.MaxID(2)
			for v := 0; v < g.NumNodes(); v++ {
				_, err := coll.Replay(spec, graph.NodeID(v))
				if !slices.Contains(tc.failing, graph.NodeID(v)) {
					if err != nil {
						t.Fatalf("node %d: %v", v, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("node %d: error %v, want one containing %q", v, err, want)
				}
				var order *HeardOrderError
				if tc.order && (err.Error() != want || !errors.As(err, &order) || order.Node != graph.NodeID(v)) {
					t.Fatalf("node %d: error %v, want exactly %q from a *HeardOrderError naming node %d", v, err, want, v)
				}
			}
			_, err = coll.ReplayAllN(context.Background(), spec, 2)
			if first := fmt.Sprintf("node %d: ", tc.failing[0]); err == nil || !strings.Contains(err.Error(), first) || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReplayAllN error %v, want node %d's %q", err, tc.failing[0], want)
			}
		})
	}
}

func TestScheme2WithElkinNeiman(t *testing.T) {
	g := gen.ConnectedGNP(70, 0.12, xrand.New(8))
	const seed = 37
	spec := algorithms.MaxID(2)
	res, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), construction(t, spanner.ElkinNeimanConstruction, 2), local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFidelity(t, g, spec, res.Coll, seed)
	if _, _, err := graph.VerifySpanner(g, res.FinalSpanner, res.StretchUsed); err != nil {
		t.Fatalf("simulated Elkin–Neiman output invalid: %v", err)
	}
	// The EN stage must cost fewer rounds than the BS stage at the same
	// stretch (k'=2: EN 5 rounds vs BS 7, times the stage-1 stretch).
	bs, err := Scheme2WithSrc(context.Background(), g, spec, Scheme1Params(1), construction(t, spanner.BaswanaSenConstruction, 2), local.Config{Seed: seed}, Hooks{}, nil)
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
	const seed = 43
	enc := construction(t, spanner.ElkinNeimanConstruction, 2)
	res, err := Scheme2WithSrc(context.Background(), g, algorithms.MaxID(1), Scheme1Params(1), enc, local.Config{Seed: seed}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := Direct(context.Background(), g, enc.Spec, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if direct := spanner.Edges(outs); !reflect.DeepEqual(direct, res.FinalSpanner) {
		t.Fatalf("simulated EN has %d edges, direct %d; the edge sets differ", len(res.FinalSpanner), len(direct))
	}
}

// construction returns build's construction at k, failing t if k is
// rejected.
func construction(t *testing.T, build func(int) (spanner.Construction, error), k int) spanner.Construction {
	t.Helper()
	c, err := build(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStage2ReplayMatchesDirectPerNode checks scheme2's stage 2 node by
// node. The union comparisons above would pass even if a replayed node
// missed an edge its other endpoint holds; here every node's replayed edge
// set, collected over a stage-1 host, must equal its own output in a direct
// run of the same construction at the same seed, at every worker count.
func TestStage2ReplayMatchesDirectPerNode(t *testing.T) {
	ctx := context.Background()
	const seed = 31
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(60, 0.12, xrand.New(10))},
		{"pa", gen.PreferentialAttachment(60, 3, xrand.New(11))},
	} {
		st1, _, err := BuildStage1(ctx, gc.g, Scheme1Params(1), seed, local.Config{}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []spanner.Construction{construction(t, spanner.BaswanaSenConstruction, 2), construction(t, spanner.ElkinNeimanConstruction, 2)} {
			want, _, err := Direct(ctx, gc.g, c.Spec, seed, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			coll, err := Collect(ctx, gc.g, st1.Host, st1.Stretch*c.T, seed, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", gc.name, c.Name, w), func(t *testing.T) {
					got, err := coll.ReplayAllN(ctx, c.Spec, w)
					if err != nil {
						t.Fatal(err)
					}
					for v := range want {
						if !reflect.DeepEqual(got[v], want[v]) {
							t.Fatalf("node %d: replayed %v, direct %v", v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestFinalSpannerVerifies checks the theorem's spanner claim on every
// spanner-carrying collection scheme: the spanner that carried the final
// collection is a subgraph of G with stretch at most the StretchUsed its
// result reports, on every generated family that builds without a file, at
// three seeds and γ ∈ {1, 2}. It runs on the flawless network only: under
// an adversary scheme2's stage 2 replays a damaged collection, and its
// spanner carries no such guarantee.
func TestFinalSpannerVerifies(t *testing.T) {
	ctx := context.Background()
	spec := algorithms.MaxID(1)
	for _, gamma := range []int{1, 2} {
		checks := 0
		for _, sc := range collectionSchemes(t, gamma) {
			if strings.HasPrefix(sc.name, "gossip") {
				continue // no spanner carries a gossip collection
			}
			for _, fam := range gen.Families() {
				if fam.Name == "edgelist" {
					continue // it loads its graph from a file
				}
				for seed := uint64(1); seed <= 3; seed++ {
					g, err := gen.Build(gen.Spec{Family: fam.Name, N: 40, Degree: 4, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("gamma=%d/%s/%s/seed=%d", gamma, sc.name, fam.Name, seed)
					res, err := sc.run(ctx, g, spec, local.Config{Seed: seed})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.FinalSpanner == nil {
						t.Fatalf("%s: the result carries no spanner", name)
					}
					if _, _, err := graph.VerifySpanner(g, res.FinalSpanner, res.StretchUsed); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checks++
				}
			}
		}
		t.Logf("γ=%d: %d spanners verified", gamma, checks)
	}
}
