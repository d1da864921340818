package graph

import (
	"slices"
	"testing"
)

// buildRef constructs a reference adjacency incrementally — the semantics of
// the historical [][]Half representation — for comparison against the CSR
// rebuild.
func buildRef(n int, edges []Edge) [][]Half {
	adj := make([][]Half, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], Half{Edge: e.ID, Peer: e.V})
		adj[e.V] = append(adj[e.V], Half{Edge: e.ID, Peer: e.U})
	}
	return adj
}

// TestCSRMatchesIncrementalOrder pins the bit-identity contract: the lazy
// counting-sort rebuild must reproduce, for every node, exactly the incident
// list order that per-edge appends would have produced — including after
// interleaved reads (which force mid-construction rebuilds) and on
// multigraphs with parallel edges.
func TestCSRMatchesIncrementalOrder(t *testing.T) {
	g := New(7)
	add := func(id EdgeID, u, v NodeID) {
		t.Helper()
		if err := g.AddEdgeWithID(id, u, v); err != nil {
			t.Fatal(err)
		}
	}
	add(10, 0, 1)
	add(3, 1, 2) // out-of-order ID exercises the sorted-index insert path
	add(11, 2, 0)
	_ = g.Incident(1) // force a rebuild mid-construction
	add(12, 1, 2)     // parallel to edge 3
	add(5, 4, 5)
	add(13, 3, 4)

	ref := buildRef(g.NumNodes(), g.Edges())
	for v := 0; v < g.NumNodes(); v++ {
		got := g.Incident(NodeID(v))
		if !slices.Equal(got, ref[v]) {
			t.Fatalf("node %d incident order diverged:\n got %v\nwant %v", v, got, ref[v])
		}
		if g.Degree(NodeID(v)) != len(ref[v]) {
			t.Fatalf("node %d degree %d, want %d", v, g.Degree(NodeID(v)), len(ref[v]))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSREdgeIDIndex(t *testing.T) {
	g := New(5)
	ids := []EdgeID{40, 7, 22, 9, 41}
	for i, id := range ids {
		if err := g.AddEdgeWithID(id, NodeID(i%5), NodeID((i+1)%5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		e, ok := g.EdgeByID(id)
		if !ok || e.ID != id {
			t.Fatalf("EdgeByID(%d) = %v, %v", id, e, ok)
		}
		if !g.HasEdgeID(id) {
			t.Fatalf("HasEdgeID(%d) = false", id)
		}
	}
	for _, id := range []EdgeID{0, 8, 23, 100} {
		if _, ok := g.EdgeByID(id); ok {
			t.Fatalf("EdgeByID(%d) found a phantom edge", id)
		}
	}
	if err := g.AddEdgeWithID(22, 0, 1); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// A fresh auto ID must exceed the largest explicit ID ever used.
	if id := g.AddEdge(0, 2); id != 42 {
		t.Fatalf("AddEdge assigned %d, want 42", id)
	}
}

// TestCSRAccessorsAllocFree pins the satellite contract: Incident, EdgeByID,
// HasEdgeID, and Degree on a built CSR graph are allocation-free.
func TestCSRAccessorsAllocFree(t *testing.T) {
	g := New(100)
	for v := 0; v < 99; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	g.AddEdge(0, 99)
	_ = g.Incident(0) // build the CSR rows outside the measured region

	var sink []Half
	if n := testing.AllocsPerRun(100, func() {
		sink = g.Incident(50)
	}); n != 0 {
		t.Fatalf("Incident allocates %v per call, want 0", n)
	}
	var sinkE Edge
	if n := testing.AllocsPerRun(100, func() {
		sinkE, _ = g.EdgeByID(42)
	}); n != 0 {
		t.Fatalf("EdgeByID allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = g.HasEdgeID(17)
		_ = g.Degree(50)
	}); n != 0 {
		t.Fatalf("HasEdgeID/Degree allocate %v per call, want 0", n)
	}
	_, _ = sink, sinkE
}

// TestSubgraphDeterministic pins that SubgraphByEdges is deterministic:
// edges land in ascending ID order.
func TestSubgraphDeterministic(t *testing.T) {
	g := New(6)
	for v := 0; v < 5; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	keep := []EdgeID{0, 3, 4}
	var prev *Graph
	for i := 0; i < 5; i++ {
		h, err := g.SubgraphByEdges(keep)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && h.Fingerprint() != prev.Fingerprint() {
			t.Fatal("SubgraphByEdges fingerprint varies across calls")
		}
		wantIDs := []EdgeID{0, 3, 4}
		for j, e := range h.Edges() {
			if e.ID != wantIDs[j] {
				t.Fatalf("subgraph edge %d has ID %d, want %d (ascending order)", j, e.ID, wantIDs[j])
			}
		}
		prev = h
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.NumEdges() != 2 || c.NumEdges() != 3 {
		t.Fatalf("clone not independent: %d/%d edges", g.NumEdges(), c.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() == c.Fingerprint() {
		t.Fatal("diverged clone shares fingerprint")
	}
}

// TestConcurrentLazyRebuild hammers a dirty graph from many readers: the
// rebuild must happen exactly once, race-free (run under -race), and every
// reader must observe the full adjacency.
func TestConcurrentLazyRebuild(t *testing.T) {
	g := New(50)
	for v := 1; v < 50; v++ {
		g.AddEdge(0, NodeID(v))
	}
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func() {
			total := 0
			for v := 0; v < 50; v++ {
				total += len(g.Incident(NodeID(v)))
			}
			done <- total
		}()
	}
	for w := 0; w < 8; w++ {
		if total := <-done; total != 2*49 {
			t.Fatalf("reader saw %d halves, want %d", total, 2*49)
		}
	}
}

// TestResetMatchesNew rebuilds one graph in place over a sequence of node
// counts that grows and shrinks, and requires each rebuild to equal a fresh
// New graph built by the same AddEdgeWithID sequence: incident order, edge
// table, ID index, auto-ID counter and fingerprint. Once the buffers have
// grown, a rebuild of an equal-size graph allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	build := func(g *Graph, n int) {
		t.Helper()
		// Descending IDs on a ring plus chords: exercises the sorted-index
		// insert path, parallel edges, and rows of varying length.
		for i := 0; i < n; i++ {
			id := EdgeID(3*n - i)
			if err := g.AddEdgeWithID(id, NodeID(i), NodeID((i+1)%n)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 && n > 2 {
				if err := g.AddEdgeWithID(EdgeID(4*n+i), NodeID(i), NodeID((i+2)%n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	reused := New(0)
	for _, n := range []int{9, 3, 16, 0, 5, 16} {
		reused.Reset(n)
		fresh := New(n)
		if n >= 2 {
			build(reused, n)
			build(fresh, n)
		}
		if reused.NumNodes() != n || reused.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("n=%d: reset graph differs from a fresh one", n)
		}
		for v := 0; v < n; v++ {
			if got, want := reused.Incident(NodeID(v)), fresh.Incident(NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("n=%d node %d: incident %v, want %v", n, v, got, want)
			}
		}
		if err := reused.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 2 {
			if got, want := reused.AddEdge(0, 1), fresh.AddEdge(0, 1); got != want {
				t.Fatalf("n=%d: auto ID %d after reset, want %d", n, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		reused.Reset(16)
		build(reused, 16)
		_ = reused.Incident(0)
	})
	if allocs != 0 {
		t.Fatalf("in-place rebuild allocates %.1f times, want 0", allocs)
	}
}
