package graph

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustAdd(t *testing.T, g *Graph, id EdgeID, u, v NodeID) {
	t.Helper()
	if err := g.AddEdgeWithID(id, u, v); err != nil {
		t.Fatalf("AddEdgeWithID(%d,%d,%d): %v", id, u, v, err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1)
	e, ok := g.EdgeByID(id)
	if !ok || e.U != 0 || e.V != 1 {
		t.Fatalf("EdgeByID(%d) = %+v, %v", id, e, ok)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("wrong degrees")
	}
	if e.Other(0) != 1 || e.Other(1) != 0 {
		t.Fatal("Other broken")
	}
}

func TestEdgeOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	Edge{ID: 1, U: 0, V: 1}.Other(5)
}

func TestSelfLoopRejected(t *testing.T) {
	g := New(2)
	err := g.AddEdgeWithID(0, 1, 1)
	if !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("want ErrSelfLoop, got %v", err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 7, 0, 1)
	err := g.AddEdgeWithID(7, 1, 2)
	if !errors.Is(err, ErrDuplicateEdgeID) {
		t.Fatalf("want ErrDuplicateEdgeID, got %v", err)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	g := New(2)
	if err := g.AddEdgeWithID(0, 0, 5); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("want ErrNoSuchNode, got %v", err)
	}
}

func TestAutoIDsSkipUsed(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 0, 1)
	mustAdd(t, g, 1, 1, 2)
	id := g.AddEdge(2, 3)
	if id != 2 {
		t.Fatalf("expected fresh ID 2, got %d", id)
	}
	mustAdd(t, g, 100, 0, 2)
	id = g.AddEdge(0, 3)
	if id != 101 {
		t.Fatalf("expected fresh ID 101, got %d", id)
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(0, 1)
	if a == b {
		t.Fatal("parallel edges share an ID")
	}
	if g.NumEdges() != 2 || g.Degree(0) != 2 {
		t.Fatal("parallel edge not recorded")
	}
	if g.IsSimple() {
		t.Fatal("graph with parallel edges claims simple")
	}
	if g.SimpleEdgeCount() != 1 {
		t.Fatalf("SimpleEdgeCount = %d, want 1", g.SimpleEdgeCount())
	}
	ids := g.EdgesBetween(0, 1)
	if len(ids) != 2 {
		t.Fatalf("EdgesBetween = %v", ids)
	}
	if nbrs := g.Neighbors(0); len(nbrs) != 1 || nbrs[0] != 1 {
		t.Fatalf("Neighbors collapses parallels wrongly: %v", nbrs)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatal("clone shares state with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphByEdges(t *testing.T) {
	g := New(4)
	e1 := g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	e3 := g.AddEdge(2, 3)
	h, err := g.SubgraphByEdges(map[EdgeID]bool{e1: true, e3: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.NumNodes() != 4 {
		t.Fatalf("subgraph has %d edges, %d nodes", h.NumEdges(), h.NumNodes())
	}
	if !h.HasEdgeID(e1) || !h.HasEdgeID(e3) {
		t.Fatal("subgraph lost an edge ID")
	}
	if _, err := g.SubgraphByEdges(map[EdgeID]bool{999: true}); err == nil {
		t.Fatal("unknown edge ID accepted")
	}
}

func TestBFSOnPath(t *testing.T) {
	g := New(5)
	for v := 0; v < 4; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	dist := g.BFS(0, -1)
	for v, d := range dist {
		if d != v {
			t.Fatalf("dist[%d] = %d", v, d)
		}
	}
	bounded := g.BFS(0, 2)
	if bounded[2] != 2 || bounded[3] != Unreachable {
		t.Fatalf("bounded BFS wrong: %v", bounded)
	}
	if g.Dist(0, 4) != 4 || g.Dist(2, 2) != 0 {
		t.Fatal("Dist wrong")
	}
}

func TestComponentsAndConnected(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	label, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] || label[4] == label[0] {
		t.Fatalf("bad labels %v", label)
	}
	if g.Connected() {
		t.Fatal("disconnected graph claims connected")
	}
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if !g.Connected() {
		t.Fatal("connected graph claims disconnected")
	}
}

func TestDiameter(t *testing.T) {
	g := New(4)
	for v := 0; v < 3; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("diameter = %d", d)
	}
	lonely := New(2)
	if lonely.Diameter() != Unreachable {
		t.Fatal("disconnected diameter should be Unreachable")
	}
}

func TestBall(t *testing.T) {
	g := New(6)
	for v := 0; v < 5; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	ball := g.Ball(2, 1)
	if len(ball) != 3 {
		t.Fatalf("ball = %v", ball)
	}
}

func TestContractBasic(t *testing.T) {
	// Square 0-1-2-3-0 with clusters {0,1} and {2,3}.
	g := New(4)
	mustAdd(t, g, 10, 0, 1)
	mustAdd(t, g, 11, 1, 2)
	mustAdd(t, g, 12, 2, 3)
	mustAdd(t, g, 13, 3, 0)
	cg, err := Contract(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumNodes() != 2 {
		t.Fatalf("cluster graph nodes = %d", cg.NumNodes())
	}
	// Edges 11 and 13 cross; 10 and 12 are internal.
	if cg.NumEdges() != 2 || !cg.HasEdgeID(11) || !cg.HasEdgeID(13) {
		t.Fatalf("cluster graph edges wrong: %d", cg.NumEdges())
	}
	if cg.IsSimple() {
		t.Fatal("contraction should have produced parallel edges")
	}
}

func TestContractDropped(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 0, 1)
	mustAdd(t, g, 1, 1, 2)
	cg, err := Contract(g, []int{0, Dropped, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumEdges() != 0 {
		t.Fatal("edges touching dropped nodes must vanish")
	}
}

func TestContractErrors(t *testing.T) {
	g := New(2)
	mustAdd(t, g, 0, 0, 1)
	if _, err := Contract(g, []int{0}, 1); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := Contract(g, []int{0, 5}, 2); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}
	if _, err := Contract(g, []int{0, 0}, 2); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestEdgeStretchIdentity(t *testing.T) {
	g := New(5)
	for v := 0; v < 4; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	rep, err := EdgeStretch(g, g.Clone(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxEdgeStretch != 1 || rep.MeanEdgeStretch != 1 {
		t.Fatalf("identity subgraph stretch = %+v", rep)
	}
}

func TestEdgeStretchCycle(t *testing.T) {
	// Removing one edge of the n-cycle gives stretch n-1 on that edge.
	const n = 8
	g := New(n)
	var removed EdgeID
	for v := 0; v < n; v++ {
		id := g.AddEdge(NodeID(v), NodeID((v+1)%n))
		if v == n-1 {
			removed = id
		}
	}
	keep := make(map[EdgeID]bool)
	for _, e := range g.Edges() {
		if e.ID != removed {
			keep[e.ID] = true
		}
	}
	h, err := g.SubgraphByEdges(keep)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EdgeStretch(g, h, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxEdgeStretch != n-1 {
		t.Fatalf("stretch = %d, want %d", rep.MaxEdgeStretch, n-1)
	}
	// With a bound below n-1 the check must fail as disconnected-within-bound.
	rep, err = EdgeStretch(g, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Connected {
		t.Fatal("bounded stretch should have reported failure")
	}
}

func TestVerifySpanner(t *testing.T) {
	const n = 8
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(NodeID(v), NodeID((v+1)%n))
	}
	all := make(map[EdgeID]bool)
	for _, e := range g.Edges() {
		all[e.ID] = true
	}
	if _, _, err := VerifySpanner(g, all, 1); err != nil {
		t.Fatalf("full graph is a 1-spanner: %v", err)
	}
	// Empty edge set is not a spanner of a cycle.
	if _, _, err := VerifySpanner(g, map[EdgeID]bool{}, 3); err == nil {
		t.Fatal("empty spanner accepted")
	}
}

func TestValidateCatchesNothingOnGenerated(t *testing.T) {
	rng := xrand.New(1)
	g := New(50)
	for i := 0; i < 200; i++ {
		u := NodeID(rng.Intn(50))
		v := NodeID(rng.Intn(50))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: contracting with the identity assignment preserves the edge
// multiset exactly.
func TestContractIdentityProperty(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 2
		m := int(mRaw % 60)
		rng := xrand.New(seed)
		g := New(n)
		for i := 0; i < m; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i
		}
		cg, err := Contract(g, assign, n)
		if err != nil {
			return false
		}
		if cg.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !cg.HasEdgeID(e.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle-ish property along edges:
// |dist(u) - dist(v)| <= 1 for every edge (u,v) in a connected graph.
func TestBFSLipschitzProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := xrand.New(seed)
		g := New(n)
		// random connected graph: a tree plus extras
		for v := 1; v < n; v++ {
			g.AddEdge(NodeID(v), NodeID(rng.Intn(v)))
		}
		for i := 0; i < n; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		dist := g.BFS(0, -1)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeID(t *testing.T) {
	g := New(4)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(1, 2)
	c := g.AddEdge(2, 3)
	if err := g.RemoveEdgeID(b); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.HasEdgeID(b) {
		t.Fatalf("edge %d survived removal (%d edges)", b, g.NumEdges())
	}
	// Survivors keep IDs, endpoints, and insertion order.
	edges := g.Edges()
	if edges[0].ID != a || edges[1].ID != c {
		t.Fatalf("survivor order = %d,%d, want %d,%d", edges[0].ID, edges[1].ID, a, c)
	}
	if got, ok := g.EdgeByID(c); !ok || got.U != 2 || got.V != 3 {
		t.Fatalf("EdgeByID(%d) = %+v, %v after removal", c, got, ok)
	}
	// Adjacency rebuilds: node 1 and 2 each lost the removed edge.
	if len(g.Incident(1)) != 1 || len(g.Incident(2)) != 1 {
		t.Fatalf("incidence after removal: %v / %v", g.Incident(1), g.Incident(2))
	}
	// The freed ID is never reused.
	if d := g.AddEdge(0, 3); d <= c {
		t.Fatalf("re-add assigned stale ID %d (last was %d)", d, c)
	}
	if err := g.RemoveEdgeID(99); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("removing a missing edge: err = %v, want ErrNoSuchEdge", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeIDParallel(t *testing.T) {
	// Removing one of two parallel edges keeps the other deliverable.
	g := New(2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(0, 1)
	if err := g.RemoveEdgeID(a); err != nil {
		t.Fatal(err)
	}
	between := g.EdgesBetween(0, 1)
	if len(between) != 1 || between[0] != b {
		t.Fatalf("EdgesBetween = %v, want [%d]", between, b)
	}
}
