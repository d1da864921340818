package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// edgePool is X_v, a level-graph node's unexplored edge pool, and both
// Samplers draw from and peel it: the centralized Sampler peels it by
// neighbor (neighborhood), the distributed root by the boundary sets that
// query replies carry, since it cannot tell which cluster an edge leads to.
// It supports O(1) uniform sampling with replacement and O(log d) removal
// and lookup, d the pool's initial size. The pool keeps its caller's order —
// the centralized Sampler's incident order, the distributed root's sorted
// boundary — and removal moves the last edge into the hole, so every draw is
// a function of that order and the removals so far.
type edgePool struct {
	list []graph.EdgeID
	// keys is the pool's initial edges, ascending and frozen; pos[r] is the
	// index in list of keys[r], or -1 once that edge has left the pool, and
	// rank[i] is the index in keys of list[i], so pos[rank[i]] == i.
	keys []graph.EdgeID
	pos  []int32
	rank []int32

	// stamp[i] == epoch marks list[i] as already drawn in the current
	// drawDistinct call; bumping epoch clears every mark at once. A pool
	// lives one level, so it sees at most 2H calls.
	stamp []int32
	epoch int32
}

// newEdgePool builds a pool over edges, which must be distinct, in their
// order. The pool takes the slice over and reorders it as edges leave.
func newEdgePool(edges []graph.EdgeID) edgePool {
	keys := slices.Clone(edges)
	slices.Sort(keys)
	n := len(edges)
	idx := make([]int32, 2*n) // pos and rank share one allocation
	p := edgePool{list: edges, keys: keys, pos: idx[:n:n], rank: idx[n:]}
	for i, e := range edges {
		r, _ := slices.BinarySearch(keys, e)
		p.pos[r], p.rank[i] = int32(i), int32(r)
	}
	return p
}

func (p *edgePool) empty() bool { return len(p.list) == 0 }
func (p *edgePool) size() int   { return len(p.list) }

// contains reports whether e is still unexplored.
func (p *edgePool) contains(e graph.EdgeID) bool {
	r, ok := slices.BinarySearch(p.keys, e)
	return ok && p.pos[r] >= 0
}

// drawDistinct draws count edges uniformly with replacement — exactly count
// rng.Intn(size) calls — and returns the distinct edges in first-draw order
// together with the number of draws. A trial's draws repeat heavily once the
// pool is small, and a repeat adds nothing: the root's reduction skips every
// edge it has already peeled, and a member queries each incident edge once.
// So once every pool edge has been drawn, the remaining draws can reveal
// nothing, and rng.SkipIntn passes over them: the stream still ends exactly
// count Intn calls on, and count is still the draw count returned. On an
// empty pool it draws nothing.
func (p *edgePool) drawDistinct(rng *xrand.RNG, count int) ([]graph.EdgeID, int) {
	size := len(p.list)
	if size == 0 {
		return nil, 0
	}
	if p.stamp == nil {
		p.stamp = make([]int32, size) // the list only shrinks
	}
	p.epoch++
	out := make([]graph.EdgeID, 0, min(count, size))
	for d := range count {
		i := rng.Intn(size)
		if p.stamp[i] == p.epoch {
			continue
		}
		p.stamp[i] = p.epoch
		out = append(out, p.list[i])
		if len(out) == size {
			rng.SkipIntn(size, count-d-1)
			break
		}
	}
	return out, count
}

// remove deletes e if present.
func (p *edgePool) remove(e graph.EdgeID) {
	r, ok := slices.BinarySearch(p.keys, e)
	if !ok || p.pos[r] < 0 {
		return
	}
	// The last edge fills the hole; if that is e itself (m == r), -1 wins.
	i, last := p.pos[r], len(p.list)-1
	m := p.rank[last]
	p.list[i], p.rank[i], p.pos[m], p.pos[r] = p.list[last], m, i, -1
	p.list, p.rank = p.list[:last], p.rank[:last]
}

// removeAll deletes every listed edge that is present (peeling a replying
// cluster's boundary out of X_v).
func (p *edgePool) removeAll(edges []graph.EdgeID) {
	for _, e := range edges {
		p.remove(e)
	}
}

// snapshot returns the remaining edges in ascending order (used by the
// fail-safe broadcast, whose content must be deterministic).
func (p *edgePool) snapshot() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(p.list))
	for r, e := range p.keys {
		if p.pos[r] >= 0 {
			out = append(out, e)
		}
	}
	return out
}
