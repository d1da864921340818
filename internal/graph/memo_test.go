package graph

import (
	"sync"
	"testing"
)

// TestDiameterMemoFollowsMutation requires Diameter to track every mutation
// of a graph whose diameter is already memoized: after AddEdge,
// AddEdgeWithID, RemoveEdgeID and Reset it must equal the diameter of a
// fresh Clone, which has no memo. The disconnected result is memoized too.
func TestDiameterMemoFollowsMutation(t *testing.T) {
	g := New(6)
	for v := 0; v < 5; v++ {
		g.AddEdge(NodeID(v), NodeID(v+1))
	}
	check := func(step string, want int) {
		t.Helper()
		if got := g.Diameter(); got != want {
			t.Fatalf("%s: Diameter = %d, want %d", step, got, want)
		}
		if got := g.Diameter(); got != want {
			t.Fatalf("%s: memoized Diameter = %d, want %d", step, got, want)
		}
		if fresh := g.Clone().Diameter(); fresh != want {
			t.Fatalf("%s: Clone().Diameter = %d, want %d", step, fresh, want)
		}
		if g.diam.Load() == 0 {
			t.Fatalf("%s: Diameter left no memo", step)
		}
	}
	check("path", 5)
	if err := g.AddEdgeWithID(100, 0, 3); err != nil {
		t.Fatal(err)
	}
	check("AddEdgeWithID adds a chord", 4)
	g.AddEdge(0, 5)
	check("AddEdge closes the cycle", 3)
	if err := g.RemoveEdgeID(g.EdgesBetween(3, 4)[0]); err != nil {
		t.Fatal(err)
	}
	check("RemoveEdgeID opens the cycle", 4)
	if err := g.RemoveEdgeID(100); err != nil {
		t.Fatal(err)
	}
	check("RemoveEdgeID drops the chord", 5)
	if err := g.RemoveEdgeID(g.EdgesBetween(0, 1)[0]); err != nil {
		t.Fatal(err)
	}
	check("RemoveEdgeID disconnects", Unreachable)
	g.Reset(3)
	check("Reset to three isolated nodes", Unreachable)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	check("rebuilt path after Reset", 2)
	g.Reset(1)
	check("Reset to one node", 0)
}

// TestDiameterMemoAllocFree pins the memo: a repeated Diameter on an
// unchanged graph, connected or not, makes no allocation.
func TestDiameterMemoAllocFree(t *testing.T) {
	ring := New(64)
	for v := 0; v < 64; v++ {
		ring.AddEdge(NodeID(v), NodeID((v+1)%64))
	}
	split := New(64)
	split.AddEdge(0, 1)
	for name, g := range map[string]*Graph{"ring": ring, "disconnected": split} {
		want := g.Diameter()
		if n := testing.AllocsPerRun(100, func() {
			if g.Diameter() != want {
				t.Fatalf("%s: memoized diameter changed", name)
			}
		}); n != 0 {
			t.Fatalf("%s: repeated Diameter allocates %v per call, want 0", name, n)
		}
	}
}

// TestDiameterMemoConcurrentReaders runs Diameter from many goroutines on
// one graph whose rows and memo are both unbuilt; under -race this checks
// that filling the memo is race-free, and every reader must see the value.
func TestDiameterMemoConcurrentReaders(t *testing.T) {
	g := New(40)
	for v := 0; v < 40; v++ {
		g.AddEdge(NodeID(v), NodeID((v+1)%40))
	}
	var wg sync.WaitGroup
	got := make([]int, 8)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got[w] = g.Diameter()
			}
		}()
	}
	wg.Wait()
	for w, d := range got {
		if d != 20 {
			t.Fatalf("reader %d saw diameter %d, want 20", w, d)
		}
	}
}
