package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// edgePool is X_v, a level-graph node's unexplored edge pool, and both
// Samplers draw from and peel it: the centralized Sampler indexes it by
// neighbor (neighborhood), the distributed root peels it by the boundary sets
// that query replies carry, since it cannot tell which cluster an edge leads
// to. It supports O(1) uniform sampling with replacement and O(1) removal.
// The pool keeps its caller's order — the centralized Sampler's incident
// order, the distributed root's sorted boundary — and removal moves the last
// edge into the hole, so every draw is a function of that order and the
// removals so far.
type edgePool struct {
	list []graph.EdgeID
	pos  map[graph.EdgeID]int

	// stamp[i] == epoch marks list[i] as already drawn in the current
	// drawDistinct call; bumping epoch clears every mark at once.
	stamp []int
	epoch int
}

// newEdgePool builds a pool over edges, in their order. The pool takes the
// slice over and reorders it as edges leave.
func newEdgePool(edges []graph.EdgeID) edgePool {
	p := edgePool{list: edges, pos: make(map[graph.EdgeID]int, len(edges))}
	for i, e := range edges {
		p.pos[e] = i
	}
	return p
}

func (p *edgePool) empty() bool { return len(p.list) == 0 }
func (p *edgePool) size() int   { return len(p.list) }

// contains reports whether e is still unexplored.
func (p *edgePool) contains(e graph.EdgeID) bool {
	_, ok := p.pos[e]
	return ok
}

// drawDistinct draws count edges uniformly with replacement — exactly count
// rng.Intn(size) calls — and returns the distinct edges in first-draw order
// together with the number of draws. A trial's draws repeat heavily once the
// pool is small, and a repeat adds nothing: the root's reduction skips every
// edge it has already peeled, and a member queries each incident edge once.
// On an empty pool it draws nothing.
func (p *edgePool) drawDistinct(rng *xrand.RNG, count int) ([]graph.EdgeID, int) {
	if len(p.list) == 0 {
		return nil, 0
	}
	if p.stamp == nil {
		p.stamp = make([]int, len(p.list)) // the list only shrinks
	}
	p.epoch++
	out := make([]graph.EdgeID, 0, min(count, len(p.list)))
	for range count {
		i := rng.Intn(len(p.list))
		if p.stamp[i] != p.epoch {
			p.stamp[i] = p.epoch
			out = append(out, p.list[i])
		}
	}
	return out, count
}

// remove deletes e if present.
func (p *edgePool) remove(e graph.EdgeID) {
	i, ok := p.pos[e]
	if !ok {
		return
	}
	last := len(p.list) - 1
	moved := p.list[last]
	p.list[i] = moved
	p.pos[moved] = i
	p.list = p.list[:last]
	delete(p.pos, e)
}

// removeAll deletes every listed edge that is present (peeling a replying
// cluster's boundary out of X_v).
func (p *edgePool) removeAll(edges []graph.EdgeID) {
	for _, e := range edges {
		p.remove(e)
	}
}

// snapshot returns the remaining edges in sorted order (used by the
// fail-safe broadcast, whose content must be deterministic).
func (p *edgePool) snapshot() []graph.EdgeID {
	out := append([]graph.EdgeID(nil), p.list...)
	slices.Sort(out)
	return out
}
