package simulate

// Tests of shared replay: ReplayAllN's one run per closed component must
// give every node what its own light-cone Replay gives, and must fire
// exactly on the closed heard sets.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/spanner"
	"repro/internal/xrand"
)

// collectionScheme is one collection pipeline of the facade's scheme table
// (scheme.go), at the facade's default options — γ = 1, stage-2 k = 2,
// hybrid fraction 0.5 and a ⌈log2 n⌉-word bandwidth — except the gossip
// budget: 10·n rounds in place of 100·n, which every flawless or lossy run
// here covers well within, and which keeps the runs a crash profile
// starves short.
type collectionScheme struct {
	name string
	run  func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error)
}

func collectionSchemes(t *testing.T) []collectionScheme {
	p := Scheme1Params(1)
	bs := construction(t, spanner.BaswanaSenConstruction, 2)
	en := construction(t, spanner.ElkinNeimanConstruction, 2)
	gossip := func(phase string) func(context.Context, *graph.Graph, algorithms.Spec, local.Config) (*SchemeResult, error) {
		return func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return Gossip(ctx, g, spec, 10*g.NumNodes(), phase, cfg, Hooks{})
		}
	}
	return []collectionScheme{
		{"globalcompute", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return GlobalCollectSrc(ctx, g, spec, p, cfg, Hooks{}, nil)
		}},
		{"gossip", gossip("gossip")},
		{"gossip-converge", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return GossipConverge(ctx, g, spec, 10*g.NumNodes(), cfg, Hooks{})
		}},
		{"gossip-earlystop", gossip("gossip(earlystop)")},
		{"hybrid", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return HybridSrc(ctx, g, spec, p, 0.5, 10*g.NumNodes(), cfg, Hooks{}, nil)
		}},
		{"scheme1", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return Scheme1Src(ctx, g, spec, p, cfg, Hooks{}, nil)
		}},
		{"scheme1-congest", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			bw := 1
			for 1<<bw < g.NumNodes() {
				bw++
			}
			return Scheme1CongestSrc(ctx, g, spec, p, bw, cfg, Hooks{}, nil)
		}},
		{"scheme2", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return Scheme2WithSrc(ctx, g, spec, p, bs, cfg, Hooks{}, nil)
		}},
		{"scheme2en", func(ctx context.Context, g *graph.Graph, spec algorithms.Spec, cfg local.Config) (*SchemeResult, error) {
			return Scheme2WithSrc(ctx, g, spec, p, en, cfg, Hooks{}, nil)
		}},
	}
}

// cliqueAndPath is the disjoint union of K_a (nodes 0..a-1) and a path on
// b nodes: a collection over a few hops covers the clique, never the path.
func cliqueAndPath(a, b int) *graph.Graph {
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := u + 1; v < a; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := a; u+1 < a+b; u++ {
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	return g
}

// closedInG counts the nodes of c whose heard set is exactly their
// connected component of g: the closed heard sets, found from g's own
// adjacency rather than from the collection's pairing. Every pipeline
// broadcasts g's true port table, so these are the nodes a sweep shares.
func closedInG(g *graph.Graph, c *Collection) int {
	label := make([]int, g.NumNodes())
	var size []int
	for i := range label {
		label[i] = -1
	}
	for s := range label {
		if label[s] >= 0 {
			continue
		}
		size = append(size, 0)
		for u, d := range g.BFS(graph.NodeID(s), -1) {
			if d != graph.Unreachable {
				label[u] = len(size) - 1
				size[len(size)-1]++
			}
		}
	}
	closed := 0
	for v, heard := range c.Ports {
		ok := len(heard) == size[label[v]]
		for u := range heard {
			ok = ok && int(u) >= 0 && int(u) < len(label) && label[u] == label[v]
		}
		if ok {
			closed++
		}
	}
	return closed
}

// checkShared requires ReplayAllN at concurrency 0 and 2, each on a fresh
// copy of c, to agree with per-node light-cone Replay: every output, and
// the lowest failing node's error. On success it requires the sweep to
// have shared exactly want nodes.
func checkShared(t *testing.T, name string, c *Collection, spec algorithms.Spec, want int) {
	t.Helper()
	outs := make([]any, c.N)
	var wantErr error
	for v := range outs {
		out, err := c.Replay(spec, graph.NodeID(v))
		if err != nil && wantErr == nil {
			wantErr = fmt.Errorf("node %d: %w", v, err)
		}
		outs[v] = out
	}
	for _, conc := range []int{0, 2} {
		all, shared, err := cloneCollection(c).replayAll(context.Background(), spec, conc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s conc=%d: ReplayAllN error %v, per-node Replay %v", name, conc, err, wantErr)
		}
		if err != nil {
			continue
		}
		if shared != want {
			t.Fatalf("%s conc=%d: %d nodes shared a run, %d heard sets are closed", name, conc, shared, want)
		}
		for v := range all {
			if !reflect.DeepEqual(all[v], outs[v]) {
				t.Fatalf("%s conc=%d node %d: ReplayAllN %v, Replay %v", name, conc, v, all[v], outs[v])
			}
		}
	}
}

// TestSharedReplayMatchesLightCone is the acceptance check for shared
// replay. Every collection pipeline of the scheme table collects MaxID,
// MIS, coloring and BFS at t = 2 on K_12 and a GNP of diameter <= 2 (closed
// collections), a torus and a path (open ones, except under the Section 7
// convergecast, which hears every origin of a connected graph), and K_6
// beside a path of 24 (only the clique is covered), with no adversary and
// under every shipped profile. ReplayAllN must equal per-node light-cone
// Replay and share exactly the nodes whose heard set is their component of
// G: all n on a flawless K_n collection. The sparse-cold control — scheme1
// on a 36×36 torus at t = 2 — shares nothing.
func TestSharedReplayMatchesLightCone(t *testing.T) {
	ctx := context.Background()
	gnp := gen.ConnectedGNP(14, 0.6, xrand.New(51))
	for v := range gnp.NumNodes() {
		for _, d := range gnp.BFS(graph.NodeID(v), -1) {
			if d > 2 {
				t.Fatalf("gnp14 has diameter > 2")
			}
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete12", gen.Complete(12)},
		{"gnp14", gnp},
		{"torus4x4", gen.Torus(4, 4)},
		{"path12", gen.Path(12)},
		{"clique6+path24", cliqueAndPath(6, 24)},
	}
	const tt = 2
	algs := []algorithms.Spec{algorithms.MaxID(tt), algorithms.MIS(tt), algorithms.Coloring(tt), algorithms.BFS(0, tt)}
	profiles := append([]string{"none"}, adversary.Names()...)
	var checked, shared, open int
	for _, gc := range graphs {
		n := gc.g.NumNodes()
		for _, sc := range collectionSchemes(t) {
			for _, spec := range algs {
				for _, prof := range profiles {
					cfg := local.Config{Seed: 5}
					if p, ok := adversary.Named(prof); ok {
						cfg.Adversary = adversary.Compile(p, cfg.Seed)
					}
					name := fmt.Sprintf("%s/%s/%s/%s", gc.name, sc.name, spec.Name, prof)
					res, err := sc.run(ctx, gc.g, spec, cfg)
					if err != nil {
						continue // a profile the pipeline cannot survive: the typed failures are pinned elsewhere
					}
					want := closedInG(gc.g, res.Coll)
					if gc.name == "complete12" && cfg.Adversary == nil && want != n {
						t.Fatalf("%s: %d of %d heard sets closed on a flawless K_n collection", name, want, n)
					}
					checkShared(t, name, res.Coll, spec, want)
					checked++
					shared += want
					open += n - want
				}
			}
		}
	}
	if checked == 0 || shared == 0 || open == 0 {
		t.Fatalf("%d collections checked, %d nodes shared, %d replayed their light cone: the matrix misses a path", checked, shared, open)
	}
	t.Logf("%d collections: %d nodes shared a run, %d replayed their light cone", checked, shared, open)

	kn := gen.Complete(20)
	coll, err := Collect(ctx, kn, kn, 1, 3, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkShared(t, "K_20 collected on itself", coll, algorithms.MaxID(1), kn.NumNodes())

	torus := gen.Torus(36, 36)
	res, err := Scheme1Src(ctx, torus, algorithms.MaxID(2), Scheme1Params(1), local.Config{Seed: 1}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, s, err := res.Coll.replayAll(ctx, algorithms.MaxID(2), 2); err != nil || s != 0 {
		t.Fatalf("sparse-cold control: %d nodes shared a run (err %v), want 0", s, err)
	}
}

// TestSharedReplayLargeDense is the reduction regime at scale: on K_1024
// at t = 2, scheme1 and scheme2 (whose stage 2 replays Baswana–Sen) must
// give every node its direct output, every one of them from a shared run.
func TestSharedReplayLargeDense(t *testing.T) {
	if testing.Short() {
		t.Skip("K_1024 pipelines take seconds")
	}
	ctx := context.Background()
	g := gen.Complete(1024)
	spec := algorithms.MaxID(2)
	const seed = 17
	want, _, err := Direct(ctx, g, spec, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bs := construction(t, spanner.BaswanaSenConstruction, 2)
	for _, sc := range []struct {
		name string
		run  func() (*SchemeResult, error)
	}{
		{"scheme1", func() (*SchemeResult, error) {
			return Scheme1Src(ctx, g, spec, Scheme1Params(1), local.Config{Seed: seed}, Hooks{}, nil)
		}},
		{"scheme2", func() (*SchemeResult, error) {
			return Scheme2WithSrc(ctx, g, spec, Scheme1Params(1), bs, local.Config{Seed: seed}, Hooks{}, nil)
		}},
	} {
		res, err := sc.run()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got, shared, err := res.Coll.replayAll(ctx, spec, 2)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if shared != g.NumNodes() {
			t.Fatalf("%s: %d of %d nodes shared a run", sc.name, shared, g.NumNodes())
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s node %d: replayed %v, direct %v", sc.name, v, got[v], want[v])
			}
		}
	}
}

// TestSharedReplayClosure pins each condition of a closed heard set on two
// disjoint copies of K_4 collected on themselves, where all eight heard
// sets are closed: a dropped port opens its component; a node missing an
// origin fails the size test; a node that swaps an origin for one in the
// other component passes it and fails the walk. It also pins the fallback:
// when a shared run fails because one node never halts, every member
// replays its light cone, and the sweep fails with the stuck node's error.
func TestSharedReplayClosure(t *testing.T) {
	g := graph.New(8)
	for _, off := range []int{0, 4} {
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				g.AddEdge(graph.NodeID(off+u), graph.NodeID(off+v))
			}
		}
	}
	spec := algorithms.MaxID(2)
	base, err := Collect(context.Background(), g, g, spec.T, 9, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Collection)
		shared int
	}{
		{"clean", func(*Collection) {}, 8},
		{"dangling port", func(c *Collection) { c.Table[5] = c.Table[5][1:] }, 4},
		{"missing origin", func(c *Collection) { delete(c.Ports[0], 2) }, 7},
		{"origin from the other component", func(c *Collection) {
			delete(c.Ports[0], 2)
			c.Ports[0][6] = struct{}{}
		}, 7},
	} {
		c := cloneCollection(base)
		tc.mutate(c)
		checkShared(t, tc.name, c, spec, tc.shared)
	}

	stuck := spec
	stuck.New = func(id graph.NodeID) local.Protocol {
		return &stuckProto{MaxIDNode: algorithms.MaxIDNode{T: spec.T}, stuck: id == 2}
	}
	stuck.Output = func(p local.Protocol) any { return p.(*stuckProto).Best }
	for _, conc := range []int{0, 2} {
		_, _, err := cloneCollection(base).replayAll(context.Background(), stuck, conc)
		if err == nil || !strings.HasPrefix(err.Error(), "node 2: ") || !strings.Contains(err.Error(), "did not halt") {
			t.Fatalf("conc=%d: a stuck node 2 failed the sweep with %v, want node 2's did-not-halt error", conc, err)
		}
	}
}
