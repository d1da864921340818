package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// kernelFamilies returns small generated graphs (n ≤ 48) for one seed:
// every gen family, raw random graphs that are usually disconnected, a
// multigraph, and the edgeless and tiny corner cases.
func kernelFamilies(seed uint64) map[string]*graph.Graph {
	rng := xrand.New(seed)
	n := 8 + rng.Intn(41) // 8..48
	return map[string]*graph.Graph{
		"empty":       graph.New(0),
		"single":      graph.New(1),
		"edgeless":    graph.New(n),
		"complete":    gen.Complete(1 + rng.Intn(12)),
		"cycle":       gen.Cycle(3 + rng.Intn(n-2)),
		"path":        gen.Path(n),
		"star":        gen.Star(n),
		"grid":        gen.Grid(2+rng.Intn(5), 2+rng.Intn(5)),
		"torus":       gen.Torus(3+rng.Intn(4), 3+rng.Intn(4)),
		"hypercube":   gen.Hypercube(1 + rng.Intn(5)),
		"gnp-sparse":  gen.GNP(n, 1.2/float64(n), rng),
		"gnp":         gen.ConnectedGNP(n, 0.1, rng),
		"gnm":         gen.GNM(n, n/2, rng),
		"tree":        gen.RandomTree(n, rng),
		"barbell":     gen.Barbell(3+rng.Intn(5), 1+rng.Intn(6)),
		"pa":          gen.PreferentialAttachment(n, 2, rng),
		"expander":    gen.Expander(n, 4, rng),
		"regular":     gen.RandomRegular(2*(n/2), 4, rng),
		"community":   gen.Community(3, n/3, 0.5, 0.01, rng),
		"multi-cycle": gen.Multi(gen.Cycle(3+rng.Intn(n-2)), func(e graph.Edge) int { return 1 + int(e.ID%3) }),
	}
}

// floydWarshall returns all-pairs hop distances of g, Unreachable where no
// path exists — the reference every kernel entry point is checked against.
func floydWarshall(g *graph.Graph) [][]int {
	n := g.NumNodes()
	d := make([][]int, n)
	for u := range d {
		d[u] = make([]int, n)
		for v := range d[u] {
			d[u][v] = graph.Unreachable
		}
		d[u][u] = 0
	}
	for _, e := range g.Edges() {
		d[e.U][e.V], d[e.V][e.U] = 1, 1
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			if d[u][k] == graph.Unreachable {
				continue
			}
			for v := 0; v < n; v++ {
				if d[k][v] == graph.Unreachable {
					continue
				}
				if via := d[u][k] + d[k][v]; d[u][v] == graph.Unreachable || via < d[u][v] {
					d[u][v] = via
				}
			}
		}
	}
	return d
}

// within reports whether distance d is reached by a search of depth bound
// (bound < 0: unbounded).
func within(d, bound int) bool {
	return d != graph.Unreachable && (bound < 0 || d <= bound)
}

// refBall is B(v, t) read off the reference matrix, ascending.
func refBall(fw [][]int, v, t int) []graph.NodeID {
	out := []graph.NodeID{}
	for u, d := range fw[v] {
		if within(d, t) {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// refStretch is EdgeStretch computed from the reference matrix of h.
func refStretch(g *graph.Graph, fwH [][]int, bound, hEdges int) graph.StretchReport {
	rep := graph.StretchReport{Edges: hEdges, Connected: true}
	sum, count := 0, 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, half := range g.Incident(graph.NodeID(v)) {
			if half.Peer <= graph.NodeID(v) {
				continue
			}
			d := fwH[v][half.Peer]
			if !within(d, bound) {
				return graph.StretchReport{Edges: hEdges, MaxEdgeStretch: graph.Unreachable}
			}
			rep.MaxEdgeStretch = max(rep.MaxEdgeStretch, d)
			sum += d
			count++
		}
	}
	if count > 0 {
		rep.MeanEdgeStretch = float64(sum) / float64(count)
	}
	return rep
}

// refInducedDiameter is the diameter of g's subgraph induced by set, from
// the reference matrix of that subgraph.
func refInducedDiameter(g *graph.Graph, set []graph.NodeID) int {
	index := make(map[graph.NodeID]graph.NodeID, len(set))
	for _, m := range set {
		index[m] = graph.NodeID(len(index))
	}
	sub := graph.New(len(set))
	for _, e := range g.Edges() {
		iu, okU := index[e.U]
		iv, okV := index[e.V]
		if okU && okV {
			sub.AddEdge(iu, iv)
		}
	}
	diam := 0
	for _, row := range floydWarshall(sub) {
		for _, d := range row {
			if d == graph.Unreachable {
				return graph.Unreachable
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// TestDistanceKernelMatchesFloydWarshall checks every entry point of the
// graph layer's BFS kernel — BFS bounded and unbounded, Dist, Connected,
// Components, Diameter, Ball and Balls at t = 0, small t, t beyond the
// diameter and t < 0, NewBallIndex, InducedDiameters and EdgeStretch —
// against Floyd–Warshall on generated graphs, disconnected ones included.
func TestDistanceKernelMatchesFloydWarshall(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for name, g := range kernelFamilies(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkKernel(t, g, seed)
			})
		}
	}
}

func checkKernel(t *testing.T, g *graph.Graph, seed uint64) {
	n := g.NumNodes()
	fw := floydWarshall(g)

	wantDiam, connected := 0, true
	for _, row := range fw {
		for _, d := range row {
			if d == graph.Unreachable {
				connected = false
			}
			wantDiam = max(wantDiam, d)
		}
	}
	if !connected {
		wantDiam = graph.Unreachable
	}
	if got := g.Diameter(); got != wantDiam {
		t.Fatalf("Diameter = %d, want %d", got, wantDiam)
	}
	if got := g.Connected(); got != connected {
		t.Fatalf("Connected = %v, want %v", got, connected)
	}

	// Components: same partition as reachability, labels dense and given
	// in order of each component's smallest node.
	label, k := g.Components()
	next := 0
	for v := 0; v < n; v++ {
		first := v
		for u := 0; u < v; u++ {
			if fw[v][u] != graph.Unreachable {
				first = u
				break
			}
		}
		if first == v {
			if label[v] != next {
				t.Fatalf("component of smallest node %d labelled %d, want %d", v, label[v], next)
			}
			next++
		} else if label[v] != label[first] {
			t.Fatalf("nodes %d and %d connected but labelled %d and %d", v, first, label[v], label[first])
		}
	}
	if k != next {
		t.Fatalf("Components counted %d, want %d", k, next)
	}

	depths := []int{-1, 0, 1, 2, n + 1}
	for v := 0; v < n; v++ {
		for _, depth := range depths {
			dist := g.BFS(graph.NodeID(v), depth)
			for u, d := range dist {
				want := graph.Unreachable
				if within(fw[v][u], depth) {
					want = fw[v][u]
				}
				if d != want {
					t.Fatalf("BFS(%d, %d)[%d] = %d, want %d", v, depth, u, d, want)
				}
			}
			if got, want := g.Ball(graph.NodeID(v), depth), refBall(fw, v, depth); !slices.Equal(got, want) {
				t.Fatalf("Ball(%d, %d) = %v, want %v", v, depth, got, want)
			}
		}
		for u := 0; u < n; u++ {
			if got := g.Dist(graph.NodeID(v), graph.NodeID(u)); got != fw[v][u] {
				t.Fatalf("Dist(%d, %d) = %d, want %d", v, u, got, fw[v][u])
			}
		}
	}

	for _, depth := range depths {
		balls := g.Balls(depth)
		bi := broadcast.NewBallIndex(g, depth)
		if len(balls) != n || bi.Nodes() != n {
			t.Fatalf("t=%d: %d balls, index of %d, want %d", depth, len(balls), bi.Nodes(), n)
		}
		for v := 0; v < n; v++ {
			want := refBall(fw, v, depth)
			if !slices.Equal(balls[v], want) || !slices.Equal(bi.Members(graph.NodeID(v)), want) {
				t.Fatalf("t=%d ball %d: Balls %v, index %v, want %v", depth, v, balls[v], bi.Members(graph.NodeID(v)), want)
			}
			if bi.Size(graph.NodeID(v)) != len(want) {
				t.Fatalf("t=%d: Size(%d) = %d, want %d", depth, v, bi.Size(graph.NodeID(v)), len(want))
			}
		}
		// The balls share one backing array; each is capped at its own
		// length, so an append cannot reach into the next ball.
		for v := 0; v+1 < n; v++ {
			next := slices.Clone(bi.Members(graph.NodeID(v + 1)))
			_ = append(bi.Members(graph.NodeID(v)), -1)
			_ = append(balls[v], -1)
			if !slices.Equal(bi.Members(graph.NodeID(v+1)), next) || !slices.Equal(balls[v+1], next) {
				t.Fatalf("t=%d: appending to ball %d rewrote ball %d", depth, v, v+1)
			}
		}
	}

	// InducedDiameters over a random partition into a few sets, plus a set
	// that names a node twice and an empty set.
	rng := xrand.New(seed ^ 0x5eed)
	parts := 1 + rng.Intn(4)
	sets := make([][]graph.NodeID, parts, parts+2)
	for v := 0; v < n; v++ {
		p := rng.Intn(parts)
		sets[p] = append(sets[p], graph.NodeID(v))
	}
	if n > 0 {
		sets = append(sets, []graph.NodeID{0, 0})
	}
	sets = append(sets, nil)
	got := g.InducedDiameters(sets)
	for i, set := range sets {
		want := refInducedDiameter(g, set)
		if len(set) == 2 && set[0] == set[1] {
			want = graph.Unreachable
		}
		if got[i] != want {
			t.Fatalf("InducedDiameters set %d %v = %d, want %d", i, set, got[i], want)
		}
	}

	// EdgeStretch of a random spanning subgraph, bounded and unbounded.
	var keep []graph.EdgeID
	for _, e := range g.EdgesByID() {
		if rng.Intn(3) > 0 {
			keep = append(keep, e.ID)
		}
	}
	h, err := g.SubgraphByEdges(keep)
	if err != nil {
		t.Fatal(err)
	}
	fwH := floydWarshall(h)
	for _, bound := range []int{-1, 1, 3, n + 1} {
		rep, err := graph.EdgeStretch(g, h, bound)
		if err != nil {
			t.Fatal(err)
		}
		if want := refStretch(g, fwH, bound, h.NumEdges()); rep != want {
			t.Fatalf("EdgeStretch(bound %d) = %+v, want %+v", bound, rep, want)
		}
	}
}
