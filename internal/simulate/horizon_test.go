package simulate

// Tests of light-cone replay: a replay whose nodes step only up to their
// horizons must return what the same ball returns with every node stepping
// all t+1 rounds (checkReplays, which TestReplayAllNMatchesSequential and
// FuzzReplayHorizon drive over complete and incomplete collections), and
// v's output must not depend on the graph beyond B_{t+1}(v).

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// replayAllStepping is the reference replay: it rebuilds v's ball with r
// and runs it with no horizon, every node stepping until it halts or the
// t+1 rounds run out, and fails unless every node halted. Before it runs,
// it checks r's horizons against a BFS of the rebuilt replay graph: the
// node at distance d must have horizon t+1-d.
func replayAllStepping(t *testing.T, r *replayer, c *Collection, spec algorithms.Spec, v graph.NodeID) (any, error) {
	t.Helper()
	if err := r.rebuild(c, spec.T, v); err != nil {
		return nil, err
	}
	slot := slices.Index(r.idmap, v)
	for i, d := range r.rg.BFS(graph.NodeID(slot), -1) {
		if d == graph.Unreachable || int(r.hor[i]) != spec.T+1-d {
			t.Fatalf("node %d: replay slot %d (identity %d) at distance %d has horizon %d, want t+1-d = %d",
				v, i, r.idmap[i], d, r.hor[i], spec.T+1-d)
		}
	}
	var vp local.Protocol
	run, err := local.Run(&r.rg, func(id graph.NodeID) local.Protocol {
		p := spec.New(id)
		if id == v {
			vp = p
		}
		return p
	}, local.Config{Seed: c.Seed, MaxRounds: spec.T + 1, IDMap: r.idmap, NOverride: c.N})
	if err != nil {
		return nil, err
	}
	if !run.Halted {
		return nil, fmt.Errorf("simulate: replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	return spec.Output(vp), nil
}

// checkReplays replays every node of c and requires a fresh Replay, the
// shared replayer and a ReplayAllN at each given concurrency to agree,
// output or error, with the all-stepping reference. Each ReplayAllN runs on
// a fresh copy of c, so its workers race to pair the copy's table. On a
// complete collection every replay must also succeed: only incomplete ones
// may fail, and then only as the reference does.
func checkReplays(t *testing.T, name string, shared *replayer, c *Collection, spec algorithms.Spec, complete bool, concs ...int) {
	t.Helper()
	var ref replayer
	var wantErr error
	want := make([]any, c.N)
	for v := range want {
		out, err := replayAllStepping(t, &ref, c, spec, graph.NodeID(v))
		if err != nil && complete {
			t.Fatalf("%s node %d: all-stepping replay of a complete collection: %v", name, v, err)
		}
		want[v] = out
		if err != nil && wantErr == nil {
			wantErr = fmt.Errorf("node %d: %w", v, err)
		}
		got, gerr := c.Replay(spec, graph.NodeID(v))
		if got != out || fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("%s node %d: horizon replay (%v, %v), all-stepping (%v, %v)", name, v, got, gerr, out, err)
		}
		if got, gerr = shared.replay(c, spec, graph.NodeID(v)); got != out || fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("%s node %d: shared replayer (%v, %v), all-stepping (%v, %v)", name, v, got, gerr, out, err)
		}
	}
	for _, conc := range concs {
		all, err := cloneCollection(c).ReplayAllN(context.Background(), spec, conc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s conc=%d: ReplayAllN error %v, all-stepping %v", name, conc, err, wantErr)
		}
		for v := range all {
			if all[v] != want[v] {
				t.Fatalf("%s conc=%d node %d: ReplayAllN %v, all-stepping %v", name, conc, v, all[v], want[v])
			}
		}
	}
}

// dropOrigins deletes origins from the collection's heard sets — every
// origin u != v of Ports[v] with u%period == phase — so the gaps put
// synthetic phantoms inside the balls, as a lossy network does.
func dropOrigins(c *Collection, period, phase int) *Collection {
	out := cloneCollection(c)
	for v, h := range out.Ports {
		out.Ports[v] = slices.DeleteFunc(h, func(u graph.NodeID) bool {
			return int(u) != v && int(u)%period == phase
		})
	}
	return out
}

// stuckProto is MaxID except at node stuck, which never halts.
type stuckProto struct {
	algorithms.MaxIDNode
	stuck bool
}

func (p *stuckProto) Step(env *local.Env, round int, inbox []local.Message) {
	if p.stuck && round == p.T {
		return
	}
	p.MaxIDNode.Step(env, round, inbox)
}

// TestReplayHorizonDidNotHalt checks that "did not halt" still means v: a
// replay fails when v itself never halts, and succeeds with v's output when
// only other nodes never halt, since they retire at their horizons.
func TestReplayHorizonDidNotHalt(t *testing.T) {
	g := gen.Torus(5, 5)
	base := algorithms.MaxID(2)
	coll, err := Collect(context.Background(), g, g, base.T, 3, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coll.ReplayAllN(context.Background(), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, stuck := range []graph.NodeID{0, 12} {
		spec := base
		spec.New = func(id graph.NodeID) local.Protocol {
			return &stuckProto{MaxIDNode: algorithms.MaxIDNode{T: base.T}, stuck: id == stuck}
		}
		spec.Output = func(p local.Protocol) any { return p.(*stuckProto).Best }
		for v := 0; v < g.NumNodes(); v++ {
			out, err := coll.Replay(spec, graph.NodeID(v))
			if graph.NodeID(v) == stuck {
				if err == nil || !strings.Contains(err.Error(), "did not halt") {
					t.Fatalf("stuck node %d: replay returned (%v, %v), want a did-not-halt error", v, out, err)
				}
				continue
			}
			if err != nil || out != want[v] {
				t.Fatalf("node %d with node %d stuck: (%v, %v), want %v", v, stuck, out, err, want[v])
			}
		}
	}
}

// TestReplayLocality is the metamorphic locality test: adding or deleting
// edges of G outside B_{t+1}(v), with n and every other edge ID fixed,
// changes neither v's direct output nor its replayed one. A t-round
// algorithm reads only B_t(v) and the degrees of its rim, so no such edit
// may reach v; replay, and its light cone, stand on exactly this.
func TestReplayLocality(t *testing.T) {
	ctx := context.Background()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp90", gen.ConnectedGNP(90, 0.035, xrand.New(41))},
		{"torus9x9", gen.Torus(9, 9)},
		{"tree70", gen.RandomTree(70, xrand.New(42))},
	}
	rng := xrand.New(43)
	perturbed := 0
	for _, gc := range graphs {
		n := gc.g.NumNodes()
		for tt := 1; tt <= 3; tt++ {
			for _, spec := range []algorithms.Spec{algorithms.MaxID(tt), algorithms.MIS(tt)} {
				seed := uint64(11 + tt)
				direct, _, err := Direct(ctx, gc.g, spec, seed, local.Config{})
				if err != nil {
					t.Fatal(err)
				}
				coll, err := Collect(ctx, gc.g, gc.g, tt, seed, local.Config{})
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 4; trial++ {
					v := graph.NodeID(rng.Intn(n))
					replayed, err := coll.Replay(spec, v)
					if err != nil {
						t.Fatal(err)
					}
					g2, edits := perturbOutside(gc.g, v, tt+1, rng)
					if edits == 0 {
						continue // B_{t+1}(v) covers the graph
					}
					perturbed++
					name := fmt.Sprintf("%s/%s/t=%d/v=%d/%d edits", gc.name, spec.Name, tt, v, edits)
					direct2, _, err := Direct(ctx, g2, spec, seed, local.Config{})
					if err != nil {
						t.Fatal(err)
					}
					if direct2[v] != direct[v] {
						t.Fatalf("%s: direct output moved from %v to %v", name, direct[v], direct2[v])
					}
					coll2, err := Collect(ctx, g2, g2, tt, seed, local.Config{})
					if err != nil {
						t.Fatal(err)
					}
					replayed2, err := coll2.Replay(spec, v)
					if err != nil {
						t.Fatal(err)
					}
					if replayed2 != replayed || replayed2 != direct[v] {
						t.Fatalf("%s: replay output moved from %v to %v (direct %v)", name, replayed, replayed2, direct[v])
					}
				}
			}
		}
	}
	if perturbed < 40 {
		t.Fatalf("only %d of 72 trials left room outside B_{t+1}(v) to perturb", perturbed)
	}
}

// perturbOutside returns a copy of g with edges added and deleted among
// the nodes outside B_r(v), and the number of edits. Kept edges keep their
// IDs and new edges take fresh ones.
func perturbOutside(g *graph.Graph, v graph.NodeID, r int, rng *xrand.RNG) (*graph.Graph, int) {
	dist := g.BFS(v, r)
	var far []graph.NodeID
	for u, d := range dist {
		if d == graph.Unreachable {
			far = append(far, graph.NodeID(u))
		}
	}
	out := g.Clone()
	if len(far) < 2 {
		return out, 0
	}
	edits := 0
	for _, e := range g.Edges() {
		if dist[e.U] == graph.Unreachable && dist[e.V] == graph.Unreachable && rng.Intn(3) == 0 {
			if err := out.RemoveEdgeID(e.ID); err != nil {
				panic(err)
			}
			edits++
		}
	}
	for k := 0; k < len(far); k++ {
		a, b := far[rng.Intn(len(far))], far[rng.Intn(len(far))]
		if a != b {
			out.AddEdge(a, b)
			edits++
		}
	}
	return out, edits
}

// FuzzReplayHorizon decodes fuzz bytes into a small generated graph
// (n <= 48), an algorithm with t <= 3, a collection over t or t+1 rounds,
// and a set of origins to drop from it, and requires every node's horizon
// replay to equal the all-stepping reference, output or error.
func FuzzReplayHorizon(f *testing.F) {
	f.Add([]byte{0, 30, 4, 1, 2, 0})
	f.Add([]byte{1, 25, 0, 2, 3, 1, 5, 7, 9, 200, 3, 3})
	f.Add([]byte{2, 12, 0, 0, 1, 2, 0, 1, 0, 2})
	f.Add([]byte{3, 40, 3, 9, 3, 6, 17, 4, 8, 1, 2, 33})
	f.Add([]byte{4, 47, 2, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		families := []string{"gnp", "torus", "path", "tree", "regular", "cycle", "grid", "pa"}
		spec := gen.Spec{
			Family: families[int(data[0])%len(families)],
			N:      3 + int(data[1])%46,
			Degree: float64(2 + int(data[2])%4),
			Seed:   uint64(data[3]),
		}
		g, err := gen.Build(spec)
		if err != nil || g.NumNodes() > 48 {
			return // a shape the family rejects
		}
		tt := int(data[4]) % 4
		algs := []algorithms.Spec{algorithms.MaxID(tt), algorithms.MIS(tt), algorithms.Coloring(tt)}
		alg := algs[int(data[5])%len(algs)]
		rounds := tt + int(data[5]>>2)%2
		coll, err := Collect(context.Background(), g, g, rounds, uint64(data[3])+1, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for rest := data[6:]; len(rest) >= 2; rest = rest[2:] {
			v := int(rest[0]) % coll.N
			if h := coll.Ports[v]; len(h) > 0 {
				i := int(rest[1]) % len(h)
				coll.Ports[v] = slices.Delete(h, i, i+1)
				dropped++
			}
		}
		checkReplays(t, spec.Key(), new(replayer), coll, alg, dropped == 0, 0)
	})
}
