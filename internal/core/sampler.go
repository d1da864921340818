package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Level records everything algorithm Sampler did at one level of the cluster
// hierarchy. Indexes are nodes of the level graph G_j (which are clusters of
// original nodes for j > 0).
type Level struct {
	// J is the level index, 0..K.
	J int
	// G is the level graph G_j. G_0 is the input; later levels are cluster
	// graphs whose edges keep their original IDs and are in general parallel.
	G *graph.Graph
	// Threshold and SamplesPerTrial are the level's resolved parameters.
	Threshold       int
	SamplesPerTrial int
	// CenterProb is p_j = n^{-2^j δ} (meaningless at level K, where no
	// centers are drawn).
	CenterProb float64

	// F contains, per node v of G_j, the edges F_v added to the spanner.
	F [][]graph.EdgeID
	// Light marks nodes that discovered their entire neighborhood.
	Light []bool
	// Heavy marks nodes that discovered at least Threshold distinct
	// neighbors without exhausting their edges.
	Heavy []bool
	// Center marks the nodes drawn as cluster centers (nil at level K).
	Center []bool
	// Assign maps each node of G_j to its cluster index in V_{j+1}, or
	// graph.Dropped for unclustered nodes (nil at level K).
	Assign []int
	// OrigMembers lists, per node v of G_j, the original (level-0) nodes of
	// the cluster C_j(v).
	OrigMembers [][]graph.NodeID

	// Trials and Samples count executed trials and drawn query edges; in the
	// distributed implementation every sample is a query message, so Samples
	// is the centralized proxy for query-message cost.
	Trials  int64
	Samples int64
	// FailSafe counts nodes rescued by the exhaustive-query fail-safe (see
	// Params); under the paper's whp analysis this is 0.
	FailSafe int
	// EdgesAdded is the number of spanner edges contributed by this level.
	EdgesAdded int

	// Per-node working state carried from step 1 into step 2.
	queried [][]graph.NodeID // v -> its queried neighbors, ascending
	nbhd    []*neighborhood
}

// noNode marks "no such node" in neighbor-valued lookups.
const noNode = graph.NodeID(-1)

// Result is the output of algorithm Sampler.
type Result struct {
	// S is the spanner edge set, strictly ascending (input-graph IDs).
	S []graph.EdgeID
	// Levels records the hierarchy, index = level.
	Levels []*Level
	// Params echoes the parameters used.
	Params Params
	// TotalSamples aggregates Level.Samples (centralized message proxy).
	TotalSamples int64
	// FailSafeNodes aggregates Level.FailSafe.
	FailSafeNodes int
}

// StretchBound returns the certified stretch 2·3^K − 1.
func (r *Result) StretchBound() int { return r.Params.StretchBound() }

// Build runs the centralized Sampler of the paper's Section 3 on the simple
// connected graph g and returns the spanner and the full hierarchy trace.
// The run is deterministic given seed.
func Build(g *graph.Graph, p Params, seed uint64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.NumNodes()
	res := &Result{Params: p}
	rng := xrand.New(seed).Derive(0xC0DE)

	cur := g
	origMembers := make([][]graph.NodeID, n)
	for v := range origMembers {
		origMembers[v] = []graph.NodeID{graph.NodeID(v)}
	}

	for j := 0; j <= p.K; j++ {
		lvl := &Level{
			J:               j,
			G:               cur,
			Threshold:       p.threshold(j, n),
			SamplesPerTrial: p.samplesPerTrial(j, n),
			CenterProb:      p.centerProb(j, n),
			OrigMembers:     origMembers,
		}
		res.Levels = append(res.Levels, lvl)
		levelRNG := rng.Derive(uint64(j))
		runClusterStep1(lvl, p, levelRNG.Derive(0x51))

		numClusters := 0
		if j < p.K {
			numClusters = markCentersAndCluster(lvl, levelRNG.Derive(0xCE))
		} else {
			finalLevelFailSafe(lvl)
		}

		// Collect this level's F into S.
		before := len(res.S)
		for _, fv := range lvl.F {
			res.S = append(res.S, fv...)
		}
		slices.Sort(res.S)
		res.S = slices.Compact(res.S)
		lvl.EdgesAdded = len(res.S) - before
		res.TotalSamples += lvl.Samples
		res.FailSafeNodes += lvl.FailSafe

		if j == p.K {
			break
		}
		next, err := graph.Contract(cur, lvl.Assign, numClusters)
		if err != nil {
			return nil, fmt.Errorf("core: level %d contraction: %w", j, err)
		}
		nextMembers := make([][]graph.NodeID, numClusters)
		for v, c := range lvl.Assign {
			if c != graph.Dropped {
				nextMembers[c] = append(nextMembers[c], origMembers[v]...)
			}
		}
		cur = next
		origMembers = nextMembers
	}
	return res, nil
}

// neighborhood is the centralized Sampler's per-node state: the pool X_v
// and, beside it, the node's incident halves sorted by peer, so that each
// neighbor's bundle of parallel edges is one run that peels at once. A run
// keeps the incident order, and the pool tells which of its edges are still
// unexplored.
type neighborhood struct {
	edgePool
	byPeer []graph.Half
}

func newNeighborhood(g *graph.Graph, v graph.NodeID) *neighborhood {
	inc := g.Incident(v)
	edges := make([]graph.EdgeID, len(inc))
	for i, h := range inc {
		edges[i] = h.Edge
	}
	byPeer := slices.Clone(inc)
	slices.SortStableFunc(byPeer, func(a, b graph.Half) int { return cmp.Compare(a.Peer, b.Peer) })
	return &neighborhood{edgePool: newEdgePool(edges), byPeer: byPeer}
}

// peel removes every edge leading to u from the pool ("peeling off" the
// neighbor in the paper's terminology).
func (nb *neighborhood) peel(u graph.NodeID) {
	i, _ := slices.BinarySearchFunc(nb.byPeer, u, func(h graph.Half, u graph.NodeID) int { return cmp.Compare(h.Peer, u) })
	for ; i < len(nb.byPeer) && nb.byPeer[i].Peer == u; i++ {
		nb.remove(nb.byPeer[i].Edge)
	}
}

// runClusterStep1 executes the first step of procedure Cluster_j (the
// iterative edge-sampling trials) for every node of the level graph.
func runClusterStep1(lvl *Level, p Params, rng *xrand.RNG) {
	g := lvl.G
	nj := g.NumNodes()
	lvl.F = make([][]graph.EdgeID, nj)
	lvl.Light = make([]bool, nj)
	lvl.Heavy = make([]bool, nj)
	lvl.queried = make([][]graph.NodeID, nj)
	lvl.nbhd = make([]*neighborhood, nj)
	for v := 0; v < nj; v++ {
		nodeRNG := rng.Derive(uint64(v))
		nb := newNeighborhood(g, graph.NodeID(v))
		lvl.nbhd[v] = nb
		var queried []graph.NodeID

		for trial := 0; trial < 2*p.H && len(lvl.F[v]) < lvl.Threshold && !nb.empty(); trial++ {
			lvl.Trials++
			// Draw the whole trial's samples from the start-of-trial pool
			// (the paper draws all of F'_v before the peeling loop), then
			// peel in first-draw order. A repeated draw needs no visit: the
			// first one either ended the walk or took its edge out of the
			// pool.
			drawn, draws := nb.drawDistinct(nodeRNG, lvl.SamplesPerTrial)
			lvl.Samples += int64(draws)
			for _, e := range drawn {
				if len(lvl.F[v]) >= lvl.Threshold {
					// Budget reached: the while-condition of the paper's
					// Pseudocode 2 caps |F_v| at the threshold; without the
					// cap a single trial's sample overshoot (factor
					// n^{1/h}·log²n) would void the Lemma 10 size bound.
					break
				}
				if !nb.contains(e) {
					// The neighbor behind e was peeled earlier in this
					// trial, through a parallel edge.
					continue
				}
				ge, _ := g.EdgeByID(e)
				u := ge.Other(graph.NodeID(v))
				i, dup := slices.BinarySearch(queried, u)
				if dup {
					// Reachable only with peeling disabled (E10 ablation):
					// the duplicate neighbor wastes the sample.
					nb.remove(e)
					continue
				}
				queried = slices.Insert(queried, i, u)
				lvl.F[v] = append(lvl.F[v], e)
				if p.DisablePeeling {
					nb.remove(e)
				} else {
					nb.peel(u)
				}
			}
		}
		lvl.queried[v] = queried
		if nb.empty() {
			lvl.Light[v] = true
		} else if len(queried) >= lvl.Threshold {
			lvl.Heavy[v] = true
		}
	}
}

// exhaust makes node v light by querying one edge per remaining neighbor
// (the fail-safe path; in the distributed implementation this costs one
// query message per remaining unexplored edge).
func (lvl *Level) exhaust(v int) {
	nb := lvl.nbhd[v]
	for _, h := range nb.byPeer {
		if !nb.contains(h.Edge) {
			continue
		}
		// h is the first unexplored edge to its peer: it joins F, and every
		// unexplored edge to the peer is billed one query and peeled.
		size := nb.size()
		nb.peel(h.Peer)
		lvl.Samples += int64(size - nb.size())
		lvl.F[v] = append(lvl.F[v], h.Edge)
		if i, ok := slices.BinarySearch(lvl.queried[v], h.Peer); !ok {
			lvl.queried[v] = slices.Insert(lvl.queried[v], i, h.Peer)
		}
	}
	lvl.Light[v] = true
	lvl.Heavy[v] = false
	lvl.FailSafe++
}

// markCentersAndCluster executes the second step of Cluster_j: draw centers,
// apply the fail-safe to would-be-unclustered non-light nodes, and merge
// every non-center with a queried center into that center's cluster. It
// returns the number of clusters, which Assign indexes densely.
func markCentersAndCluster(lvl *Level, rng *xrand.RNG) int {
	nj := lvl.G.NumNodes()
	lvl.Center = make([]bool, nj)
	for v := 0; v < nj; v++ {
		lvl.Center[v] = rng.Derive(uint64(v)).Bernoulli(lvl.CenterProb)
	}
	lvl.Assign = slices.Repeat([]int{graph.Dropped}, nj)
	next := 0
	for v := 0; v < nj; v++ {
		if lvl.Center[v] {
			lvl.Assign[v] = next
			next++
		}
	}
	for v := 0; v < nj; v++ {
		if !lvl.Center[v] && !lvl.Light[v] && lvl.queriedCenter(v) == noNode {
			lvl.exhaust(v)
		}
		if u := lvl.queriedCenter(v); u != noNode && !lvl.Center[v] {
			lvl.Assign[v] = lvl.Assign[u]
		}
	}
	return next
}

// queriedCenter returns the smallest queried center of v, or noNode if none
// (the paper allows an arbitrary choice; smallest makes runs reproducible).
func (lvl *Level) queriedCenter(v int) graph.NodeID {
	for _, u := range lvl.queried[v] {
		if lvl.Center[u] {
			return u
		}
	}
	return noNode
}

// finalLevelFailSafe enforces the paper's Lemma 6 corollary ("every node in
// G_k is light") deterministically: any level-K node still holding
// unexplored edges queries them all.
func finalLevelFailSafe(lvl *Level) {
	for v := 0; v < lvl.G.NumNodes(); v++ {
		if !lvl.Light[v] {
			lvl.exhaust(v)
		}
	}
}
