package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// plainDraws is the reference for drawDistinct: count plain Intn draws on
// the pool's current list, deduplicated in first-draw order.
func plainDraws(list []graph.EdgeID, rng *xrand.RNG, count int) []graph.EdgeID {
	var out []graph.EdgeID
	seen := make(map[graph.EdgeID]bool)
	for range count {
		e := list[rng.Intn(len(list))]
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func testPool(size int) *edgePool {
	edges := make([]graph.EdgeID, size)
	for i := range edges {
		edges[i] = graph.EdgeID(7*(size-i) + 3) // unsorted, sparse IDs
	}
	return newEdgePool(edges)
}

// checkDraw runs one drawDistinct call against a twin RNG and checks the
// output, the draw count and where the RNG stream ends.
func checkDraw(t *testing.T, p *edgePool, seed uint64, count int) []graph.EdgeID {
	t.Helper()
	rng, twin := xrand.New(seed), xrand.New(seed)
	want := plainDraws(slices.Clone(p.list), twin, count)
	got, draws := p.drawDistinct(rng, count)
	if draws != count {
		t.Fatalf("pool %d, count %d: draws = %d", p.size(), count, draws)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pool %d, count %d: drew %v, want %v", p.size(), count, got, want)
	}
	if a, b := rng.Uint64(), twin.Uint64(); a != b {
		t.Fatalf("pool %d, count %d: RNG stream diverged from %d plain draws", p.size(), count, count)
	}
	return got
}

func TestDrawDistinct(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size, count int
	}{
		{"fewer-draws-than-pool", 200, 12},
		{"draws-dwarf-pool", 4, 288},
		{"pool-of-one", 1, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkDraw(t, testPool(tc.size), 11, tc.count)
			if len(got) == 0 || len(got) > min(tc.size, tc.count) {
				t.Fatalf("%d distinct edges from %d draws on a pool of %d", len(got), tc.count, tc.size)
			}
		})
	}
}

func TestDrawDistinctEmptyPool(t *testing.T) {
	rng, twin := xrand.New(3), xrand.New(3)
	got, draws := testPool(0).drawDistinct(rng, 10)
	if got != nil || draws != 0 || rng.Uint64() != twin.Uint64() {
		t.Fatalf("empty pool drew %v (%d draws) or consumed randomness", got, draws)
	}
}

// TestDrawDistinctAcrossTrials draws repeatedly from one pool, removing
// edges between trials (which moves positions), and checks that no trial
// sees a mark left by an earlier one.
func TestDrawDistinctAcrossTrials(t *testing.T) {
	p := testPool(40)
	for trial := 0; !p.empty(); trial++ {
		got := checkDraw(t, p, uint64(100+trial), 30)
		p.remove(got[0])
		p.remove(got[len(got)-1])
	}
}
