package serve

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// SimulateRequest is the POST /v1/simulate (and /v1/stream) body: which
// scheme to run, on what graph, simulating which algorithm, under which
// per-request budgets and knobs.
type SimulateRequest struct {
	Scheme    string     `json:"scheme"`
	Graph     GraphSpec  `json:"graph"`
	Algorithm AlgoSpec   `json:"algorithm"`
	Options   RunOptions `json:"options"`
	// IncludeOutputs echoes every node's output in the response. Off by
	// default: outputs are O(n) payload and most clients only want costs.
	IncludeOutputs bool `json:"include_outputs,omitempty"`
}

// GraphSpec selects a topology: either a named generator family with its
// parameters, or an inline edge list. Family names resolve through the gen
// package's Spec registry — the same one behind cmd/simulate's flags — so the
// two surfaces accept identical vocabularies. Generated graphs are
// deterministic in the normalized spec, so the server can cache them and —
// more importantly — identical specs from different clients fingerprint
// identically and share one engine shard's spanner cache.
type GraphSpec struct {
	// Family is a gen registry family (gen.FamilyNames()): complete, cycle,
	// path, star, grid, torus, hypercube, barbell, gnp, gnm, tree, regular,
	// pa, or expander. Empty selects the inline Edges; edgelist is refused
	// (the server does not read local files on clients' behalf).
	Family string  `json:"family,omitempty"`
	N      int     `json:"n,omitempty"`
	Deg    float64 `json:"deg,omitempty"` // gnp average degree; regular/expander degree; pa attachment count
	Seed   uint64  `json:"seed,omitempty"`
	// P overrides Deg with an explicit edge probability (gnp only).
	P float64 `json:"p,omitempty"`
	// M is gnm's exact edge count.
	M int `json:"m,omitempty"`
	// Rows and Cols override the square shape derived from N (grid/torus).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`

	// Nodes and Edges define an inline graph: Nodes vertices (0..Nodes-1)
	// and an undirected edge per [u, v] pair. Edge IDs are assigned in
	// list order, so the same list always fingerprints the same way.
	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
}

// AlgoSpec selects the simulated t-round LOCAL algorithm.
type AlgoSpec struct {
	// Name is maxid, mis, coloring, or bfs. Empty means maxid.
	Name string `json:"name,omitempty"`
	// T is the round budget for maxid/bfs (default 4). Zero for
	// mis/coloring selects their whp-termination budgets.
	T int `json:"t,omitempty"`
	// Source is the BFS root (bfs only).
	Source int `json:"source,omitempty"`
}

// RunOptions are the per-request engine overrides. Zero values mean "engine
// default"; invalid values are rejected by the engine's own validation and
// surface as 400s.
type RunOptions struct {
	Seed      uint64 `json:"seed,omitempty"`
	Gamma     int    `json:"gamma,omitempty"`
	StageK    int    `json:"stage_k,omitempty"`
	Bandwidth int    `json:"bandwidth,omitempty"`
	// KT1 is honored by the direct scheme only; any other scheme answers
	// 400 (repro.ErrKT1Unsupported).
	KT1 bool `json:"kt1,omitempty"`
	// MaxRounds caps billed LOCAL rounds (ErrRoundBudget -> 422).
	MaxRounds int `json:"max_rounds,omitempty"`
	// DeadlineMS caps wall-clock time (ErrDeadline -> 504). Zero takes the
	// server's default; values above the server cap are clamped to it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Adversary subjects the run to a network perturbation profile: either
	// a shipped profile referenced by name alone ({"name": "drop10"}) or an
	// inline repro.AdversaryProfile (rates, delay bound, crash and
	// edge-event schedules). An unknown name or a malformed profile is a
	// 400; adversary-induced damage comes back in each phase's dropped and
	// duplicated fields.
	Adversary *repro.AdversaryProfile `json:"adversary,omitempty"`
}

// PhaseJSON is one pipeline stage of the response bill. Dropped and
// Duplicated are the adversary's honestly billed damage; both stay zero —
// and absent from the JSON — on flawless runs.
type PhaseJSON struct {
	Name       string  `json:"name"`
	Rounds     int     `json:"rounds"`
	Messages   int64   `json:"messages"`
	Dilation   float64 `json:"dilation,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
	Duplicated int64   `json:"duplicated,omitempty"`
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	Scheme           string      `json:"scheme"`
	GraphNodes       int         `json:"graph_nodes"`
	GraphEdges       int         `json:"graph_edges"`
	GraphFingerprint string      `json:"graph_fingerprint"`
	Rounds           int         `json:"rounds"`
	Messages         int64       `json:"messages"`
	Phases           []PhaseJSON `json:"phases"`
	SpannerEdges     int         `json:"spanner_edges,omitempty"`
	StretchUsed      int         `json:"stretch_used,omitempty"`
	// SpannerCached reports whether this run reused a cached stage-1
	// spanner ("sampler(cached)" on the bill) instead of rebuilding it.
	SpannerCached bool `json:"spanner_cached"`
	// OutputsFNV fingerprints the node outputs (FNV-1a over their printed
	// forms) so clients can compare runs for fidelity without shipping O(n)
	// outputs; Outputs itself is present only when include_outputs is set.
	OutputsFNV string `json:"outputs_fnv"`
	Outputs    []any  `json:"outputs,omitempty"`
	ElapsedMS  int64  `json:"elapsed_ms"`
	ShardID    int    `json:"shard"`
}

// SchemeJSON is one GET /v1/schemes entry.
type SchemeJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// errBadRequest marks client errors (malformed graph/algorithm/options) so
// the handler can answer 400 instead of 500.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// buildGraph materializes the spec, enforcing the server's node budget.
func buildGraph(spec GraphSpec, maxNodes int) (*graph.Graph, error) {
	if len(spec.Edges) > 0 || spec.Nodes > 0 {
		if spec.Family != "" {
			return nil, badRequestf("graph: family %q and inline edges are mutually exclusive", spec.Family)
		}
		return buildInline(spec, maxNodes)
	}
	return buildFamily(spec, maxNodes)
}

// buildInline assembles a graph from an explicit edge list.
func buildInline(spec GraphSpec, maxNodes int) (*graph.Graph, error) {
	n := spec.Nodes
	for _, e := range spec.Edges {
		if e[0] >= n {
			n = e[0] + 1
		}
		if e[1] >= n {
			n = e[1] + 1
		}
	}
	if n < 2 {
		return nil, badRequestf("graph: inline graph needs at least 2 nodes")
	}
	if n > maxNodes {
		return nil, badRequestf("graph: %d nodes exceeds the server cap of %d", n, maxNodes)
	}
	g := graph.New(n)
	for i, e := range spec.Edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 {
			return nil, badRequestf("graph: edge %d (%d,%d) has a negative endpoint", i, u, v)
		}
		if u == v {
			return nil, badRequestf("graph: edge %d (%d,%d) is a self-loop", i, u, v)
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return g, nil
}

// familySpec normalizes the request into a gen.Spec: defaults applied
// (n=64, deg=8), structural node counts resolved the way the pre-registry
// server did (grid/torus sides clamped, hypercube dimension rounded), and
// the server's node budget enforced. The normalized spec — not the raw
// request — is the cache identity, so requests that denote the same graph
// share one cache entry.
func familySpec(spec GraphSpec, maxNodes int) (gen.Spec, error) {
	family := spec.Family
	if family == "" {
		family = "complete"
	}
	if family == "edgelist" {
		return gen.Spec{}, badRequestf("graph: edgelist is CLI-only; POST inline nodes/edges instead")
	}
	n := spec.N
	if n <= 0 {
		n = 64
	}
	if n > maxNodes {
		return gen.Spec{}, badRequestf("graph: n=%d exceeds the server cap of %d", n, maxNodes)
	}
	deg := spec.Deg
	if deg <= 0 {
		deg = 8
	}
	out := gen.Spec{Family: family, N: n, Seed: spec.Seed}
	switch family {
	case "gnp":
		out.P = spec.P
		if spec.P == 0 {
			out.Degree = deg
		}
	case "regular", "pa", "expander":
		out.Degree = deg
	case "gnm":
		out.M = spec.M
	case "grid", "torus":
		minSide := 2
		if family == "torus" {
			minSide = 3 // below 3 the wraparound duplicates edges
		}
		rows, cols := spec.Rows, spec.Cols
		if rows == 0 && cols == 0 {
			side := int(math.Sqrt(float64(n)))
			if side < minSide {
				side = minSide
			}
			rows, cols = side, side
		}
		if rows > 0 && cols > 0 && rows*cols > maxNodes {
			return gen.Spec{}, badRequestf("graph: %dx%d exceeds the server cap of %d nodes", rows, cols, maxNodes)
		}
		out.N, out.Rows, out.Cols = 0, rows, cols
	case "hypercube":
		d := int(math.Round(math.Log2(float64(n))))
		if d < 1 {
			d = 1
		}
		out.N = 1 << d
	}
	return out, nil
}

// buildFamily runs the named deterministic generator via the gen registry.
func buildFamily(spec GraphSpec, maxNodes int) (*graph.Graph, error) {
	s, err := familySpec(spec, maxNodes)
	if err != nil {
		return nil, err
	}
	g, err := gen.Build(s)
	if err != nil {
		return nil, badRequestf("graph: %v", err)
	}
	return g, nil
}

// specKey canonicalizes a generated-graph spec for the server's graph
// cache: the normalized gen.Spec's Key. Inline graphs return "" (uncached:
// arbitrary payloads would let clients grow the cache with garbage keys),
// as do invalid specs (buildFamily rejects them before caching matters).
func specKey(spec GraphSpec, maxNodes int) string {
	if len(spec.Edges) > 0 || spec.Nodes > 0 {
		return ""
	}
	s, err := familySpec(spec, maxNodes)
	if err != nil {
		return ""
	}
	return s.Key()
}

// buildSpec resolves the algorithm selection, clamping t to maxT.
func buildSpec(a AlgoSpec, n, maxT int) (repro.AlgorithmSpec, error) {
	t := a.T
	if t < 0 || t > maxT {
		return repro.AlgorithmSpec{}, badRequestf("algorithm: t=%d outside [0, %d]", a.T, maxT)
	}
	switch a.Name {
	case "", "maxid":
		if t == 0 {
			t = 4
		}
		return algorithms.MaxID(t), nil
	case "mis":
		if t == 0 {
			t = min(algorithms.MISRounds(n), maxT)
		}
		return algorithms.MIS(t), nil
	case "coloring":
		if t == 0 {
			t = min(algorithms.ColoringRounds(n), maxT)
		}
		return algorithms.Coloring(t), nil
	case "bfs":
		if t == 0 {
			t = 4
		}
		if a.Source < 0 || a.Source >= n {
			return repro.AlgorithmSpec{}, badRequestf("algorithm: bfs source %d outside [0, %d)", a.Source, n)
		}
		return algorithms.BFS(graph.NodeID(a.Source), t), nil
	default:
		return repro.AlgorithmSpec{}, badRequestf("algorithm: unknown name %q (maxid|mis|coloring|bfs)", a.Name)
	}
}

// extras translates the request's overrides into per-run engine options.
// The deadline is always set: defaultDeadline when the client names none,
// clamped to maxDeadline otherwise — no request runs unbounded. Adversary
// resolution happens here too: a name-only profile is looked up in the
// shipped registry, an inline profile is validated as-is, and either
// failure is a 400.
func (o RunOptions) extras(defaultDeadline, maxDeadline time.Duration) ([]repro.Option, error) {
	out := []repro.Option{repro.WithSeed(o.Seed)}
	if o.Gamma != 0 {
		out = append(out, repro.WithGamma(o.Gamma))
	}
	if o.StageK != 0 {
		out = append(out, repro.WithStageK(o.StageK))
	}
	if o.Bandwidth != 0 {
		out = append(out, repro.WithBandwidth(o.Bandwidth))
	}
	if o.KT1 {
		out = append(out, repro.WithKT1(true))
	}
	if o.MaxRounds != 0 {
		out = append(out, repro.WithMaxRounds(o.MaxRounds))
	}
	if o.Adversary != nil {
		p := *o.Adversary
		if p.Name != "" && p.IsZero() {
			named, ok := repro.NamedAdversary(p.Name)
			if !ok {
				return nil, badRequestf("options: unknown adversary profile %q (shipped: %v)",
					p.Name, repro.AdversaryProfiles())
			}
			p = named
		}
		if err := p.Validate(); err != nil {
			return nil, badRequestf("options: %v", err)
		}
		out = append(out, repro.WithAdversary(p))
	}
	d := time.Duration(o.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = defaultDeadline
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	out = append(out, repro.WithDeadline(d))
	return out, nil
}

// graphCache is a small LRU of generated graphs keyed by canonical spec
// string. It exists for latency (skip regeneration), not correctness —
// generators are deterministic, so a miss rebuilds an identical graph with
// an identical fingerprint.
type graphCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *graphEntry
	byKey map[string]*list.Element
}

type graphEntry struct {
	key string
	g   *graph.Graph
}

func newGraphCache(capacity int) *graphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &graphCache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the cached graph for key, marking it most recently used.
func (c *graphCache) get(key string) (*graph.Graph, bool) {
	if key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*graphEntry).g, true
}

// put inserts key -> g, evicting the least recently used entry past cap.
func (c *graphCache) put(key string, g *graph.Graph) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*graphEntry).g = g
		return
	}
	c.byKey[key] = c.order.PushFront(&graphEntry{key: key, g: g})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.byKey, el.Value.(*graphEntry).key)
	}
}

// listSchemes renders the registry for GET /v1/schemes.
func listSchemes() []SchemeJSON {
	schemes := repro.Schemes()
	out := make([]SchemeJSON, 0, len(schemes))
	for _, s := range schemes {
		out = append(out, SchemeJSON{Name: s.Name(), Description: s.Description()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
