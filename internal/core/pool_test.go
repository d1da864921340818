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
	p := newEdgePool(edges)
	return &p
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

// drawsToExhaust returns how many plain draws from seed it takes to see
// every position of a pool of size.
func drawsToExhaust(size int, seed uint64) int {
	rng, seen := xrand.New(seed), make([]bool, size)
	for d, left := 1, size; ; d++ {
		if i := rng.Intn(size); !seen[i] {
			seen[i], left = true, left-1
			if left == 0 {
				return d
			}
		}
	}
}

// TestDrawDistinct checks drawDistinct against plain draws, including where
// the RNG stream ends. Every case but the first exhausts its pool, so the
// draws after the last new edge are skipped, not made: on a power-of-two
// pool (4, and a pool of one) the skip is O(1), on any other it replays
// Intn's rejection test, and a pool exhausted on the very last draw skips
// nothing.
func TestDrawDistinct(t *testing.T) {
	const seed = 11
	for _, tc := range []struct {
		name        string
		size, count int
	}{
		{"fewer-draws-than-pool", 200, 12},
		{"draws-dwarf-pool", 4, 288},
		{"non-power-of-two-pool", 5, 288},
		{"pool-of-one", 1, 50},
		{"exhausted-on-last-draw", 6, drawsToExhaust(6, seed)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkDraw(t, testPool(tc.size), seed, tc.count)
			if len(got) == 0 || len(got) > min(tc.size, tc.count) {
				t.Fatalf("%d distinct edges from %d draws on a pool of %d", len(got), tc.count, tc.size)
			}
			if tc.count > tc.size && len(got) != tc.size {
				t.Fatalf("%d draws on a pool of %d found only %d edges; the case does not reach the skip", tc.count, tc.size, len(got))
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

// TestEdgePoolKeepsCallerOrder checks that a new pool lists its edges in the
// order given: the centralized Sampler's draws follow its incident order,
// the distributed root's its sorted boundary.
func TestEdgePoolKeepsCallerOrder(t *testing.T) {
	p := newEdgePool([]graph.EdgeID{9, 2, 7, 4})
	if want := []graph.EdgeID{9, 2, 7, 4}; !slices.Equal(p.list, want) {
		t.Fatalf("pool over %v lists %v", want, p.list)
	}
}

// refPool is the reference for edgePool: a plain slice searched linearly,
// with the same swap-with-last removal.
type refPool []graph.EdgeID

func (r *refPool) remove(e graph.EdgeID) {
	i := slices.Index(*r, e)
	if i < 0 {
		return
	}
	last := len(*r) - 1
	(*r)[i] = (*r)[last]
	*r = (*r)[:last]
}

// TestEdgePoolMatchesReference runs seeded random operation sequences on
// pools over unsorted, sparse IDs and checks every step against refPool:
// draws, membership and the list order must agree, every live slot's rank
// must point back at it (pos[rank[i]] == i), and snapshot must list the
// remaining edges in ascending order. Removals include absent, already
// removed and foreign IDs.
func TestEdgePoolMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		size := rng.Intn(60)
		span := 5*size + 5
		var initial []graph.EdgeID
		for _, x := range rng.Perm(span)[:size] {
			initial = append(initial, graph.EdgeID(x))
		}
		ref := refPool(slices.Clone(initial))
		p := newEdgePool(slices.Clone(initial))
		// anyID is a pool edge (live or removed) or a foreign ID, negative
		// ones included.
		anyID := func() graph.EdgeID {
			if size > 0 && rng.Bool() {
				return initial[rng.Intn(size)]
			}
			return graph.EdgeID(rng.Intn(span+10) - 5)
		}
		for op := 0; op < 150; op++ {
			switch rng.Intn(5) {
			case 0:
				count, s := rng.Intn(3*size+2), rng.Uint64()
				got, draws := p.drawDistinct(xrand.New(s), count)
				var want []graph.EdgeID
				wantDraws := 0
				if len(ref) > 0 {
					want, wantDraws = plainDraws(ref, xrand.New(s), count), count
				}
				if !slices.Equal(got, want) || draws != wantDraws {
					t.Fatalf("seed %d op %d: drew %v (%d draws), want %v (%d)", seed, op, got, draws, want, wantDraws)
				}
			case 1:
				e := anyID()
				p.remove(e)
				ref.remove(e)
			case 2:
				if len(ref) > 0 {
					e := ref[rng.Intn(len(ref))]
					p.remove(e)
					ref.remove(e)
				}
			case 3:
				batch := make([]graph.EdgeID, rng.Intn(8))
				for i := range batch {
					batch[i] = anyID()
				}
				p.removeAll(batch)
				for _, e := range batch {
					ref.remove(e)
				}
			case 4:
				if e := anyID(); p.contains(e) != slices.Contains(ref, e) {
					t.Fatalf("seed %d op %d: contains(%d) = %v, reference %v", seed, op, e, p.contains(e), ref)
				}
			}
			if !slices.Equal(p.list, ref) {
				t.Fatalf("seed %d op %d: list %v, reference %v", seed, op, p.list, ref)
			}
			if p.size() != len(ref) || p.empty() != (len(ref) == 0) {
				t.Fatalf("seed %d op %d: size %d, reference %d", seed, op, p.size(), len(ref))
			}
			if len(p.rank) != len(p.list) {
				t.Fatalf("seed %d op %d: %d ranks for %d live slots", seed, op, len(p.rank), len(p.list))
			}
			for i, r := range p.rank {
				if p.keys[r] != p.list[i] || p.pos[r] != int32(i) {
					t.Fatalf("seed %d op %d: slot %d holds %d, rank %d (key %d, pos %d)", seed, op, i, p.list[i], r, p.keys[r], p.pos[r])
				}
			}
			snap := p.snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i] <= snap[i-1] {
					t.Fatalf("seed %d op %d: snapshot %v not ascending", seed, op, snap)
				}
			}
			if want := slices.Sorted(slices.Values(ref)); !slices.Equal(snap, want) {
				t.Fatalf("seed %d op %d: snapshot %v, want %v", seed, op, snap, want)
			}
		}
	}
}
