package gen

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Spec is the declarative graph-family descriptor: one value names any
// generated workload graph. It is the shared vocabulary of cmd/simulate's
// flags, the HTTP server's graph spec, cmd/bench's workloads, and Go
// callers — Build resolves it through one registry, so the surfaces cannot
// drift. The zero values of unused parameters are ignored by families that
// do not need them.
type Spec struct {
	// Family is the registry name: one of Families().
	Family string
	// N is the node count. Families with structural node counts normalize
	// it: hypercube rounds to the nearest power of two; grid and torus
	// derive a square side when Rows/Cols are unset.
	N int
	// Degree parameterizes degree-driven families: gnp's average degree
	// (when P is unset), regular's degree, pa's attachment count, and
	// expander's degree.
	Degree float64
	// P is gnp's edge probability; it takes precedence over Degree.
	P float64
	// M is gnm's exact edge count.
	M int
	// Rows and Cols override the square shape of grid and torus.
	Rows, Cols int
	// Seed seeds the family's private RNG stream; deterministic families
	// ignore it.
	Seed uint64
	// Path is the edgelist family's file path.
	Path string
}

// Key returns a canonical string form of the spec: equal keys mean equal
// graphs (generators are deterministic), so the key works as a cache
// identity. Only set fields are printed, in a fixed order.
func (s Spec) Key() string {
	var b strings.Builder
	b.WriteString(s.Family)
	if s.N > 0 {
		fmt.Fprintf(&b, "/n=%d", s.N)
	}
	if s.Degree != 0 {
		fmt.Fprintf(&b, "/deg=%g", s.Degree)
	}
	if s.P != 0 {
		fmt.Fprintf(&b, "/p=%g", s.P)
	}
	if s.M != 0 {
		fmt.Fprintf(&b, "/m=%d", s.M)
	}
	if s.Rows != 0 || s.Cols != 0 {
		fmt.Fprintf(&b, "/rows=%d/cols=%d", s.Rows, s.Cols)
	}
	if s.Seed != 0 {
		fmt.Fprintf(&b, "/seed=%d", s.Seed)
	}
	if s.Path != "" {
		fmt.Fprintf(&b, "/path=%s", s.Path)
	}
	return b.String()
}

// Family describes one registered graph family.
type Family struct {
	// Name is the registry key used in Spec.Family.
	Name string
	// Description is a one-line human-readable summary (flag help, API
	// listings).
	Description string
	// Seeded reports whether the family consumes Spec.Seed.
	Seeded bool

	build func(s Spec, rng *xrand.RNG) (*graph.Graph, error)
}

// registry holds every buildable family. Families validate their parameters
// and return errors (not panics): a Spec is external input — CLI flags, HTTP
// bodies — and a bad one must surface as a 400, not a crash.
var registry = map[string]Family{
	"complete": {
		Name: "complete", Description: "complete graph K_n",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) { return Complete(s.N), nil },
	},
	"cycle": {
		Name: "cycle", Description: "n-cycle",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			if s.N == 2 {
				// Cycle(2) doubles its one edge: a multigraph, which the
				// spanner-based schemes reject.
				return nil, fmt.Errorf("gen: cycle needs n != 2 for a simple graph")
			}
			return Cycle(s.N), nil
		},
	},
	"path": {
		Name: "path", Description: "path on n nodes",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) { return Path(s.N), nil },
	},
	"star": {
		Name: "star", Description: "star: hub plus n-1 leaves",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) { return Star(s.N), nil },
	},
	"grid": {
		Name: "grid", Description: "rows x cols grid (square side derived from n when unset)",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			rows, cols, err := s.dims(1)
			if err != nil {
				return nil, err
			}
			return Grid(rows, cols), nil
		},
	},
	"torus": {
		Name: "torus", Description: "rows x cols torus, wraparound grid (rows, cols >= 3)",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			rows, cols, err := s.dims(3)
			if err != nil {
				return nil, err
			}
			return Torus(rows, cols), nil
		},
	},
	"hypercube": {
		Name: "hypercube", Description: "d-dimensional hypercube on 2^d nodes (d = round(log2 n))",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			if s.N < 1 {
				return nil, fmt.Errorf("gen: hypercube needs n >= 1, got %d", s.N)
			}
			return Hypercube(int(math.Round(math.Log2(float64(s.N))))), nil
		},
	},
	"barbell": {
		Name: "barbell", Description: "two n/2-cliques joined by a 4-node path",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			if s.N < 6 {
				return nil, fmt.Errorf("gen: barbell needs n >= 6, got %d", s.N)
			}
			return Barbell(s.N/2, 4), nil
		},
	},
	"gnp": {
		Name: "gnp", Description: "Erdős–Rényi G(n,p), patched connected (p from P or Degree/(n-1))",
		Seeded: true,
		build: func(s Spec, rng *xrand.RNG) (*graph.Graph, error) {
			p := s.P
			if p == 0 {
				if s.N < 2 {
					return nil, fmt.Errorf("gen: gnp needs n >= 2 to derive p from degree, got n=%d", s.N)
				}
				p = s.Degree / float64(s.N-1)
			}
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("gen: gnp probability %g outside [0,1]", p)
			}
			return Connectify(GNP(s.N, p, rng), rng), nil
		},
	},
	"gnm": {
		Name: "gnm", Description: "uniform graph with exactly m edges, patched connected",
		Seeded: true,
		build: func(s Spec, rng *xrand.RNG) (*graph.Graph, error) {
			if s.M < 0 || s.M > s.N*(s.N-1)/2 {
				return nil, fmt.Errorf("gen: gnm(%d,%d) needs 0 <= m <= n(n-1)/2", s.N, s.M)
			}
			return Connectify(GNM(s.N, s.M, rng), rng), nil
		},
	},
	"tree": {
		Name: "tree", Description: "uniformly random recursive tree",
		Seeded: true,
		build:  func(s Spec, rng *xrand.RNG) (*graph.Graph, error) { return RandomTree(s.N, rng), nil },
	},
	"regular": {
		Name: "regular", Description: "random simple d-regular graph (pairing model, stub matching past its retries), patched connected",
		Seeded: true,
		build: func(s Spec, rng *xrand.RNG) (*graph.Graph, error) {
			d := int(s.Degree)
			if d < 1 || d >= s.N || s.N*d%2 != 0 {
				return nil, fmt.Errorf("gen: regular needs 1 <= deg < n with n*deg even, got n=%d deg=%d", s.N, d)
			}
			return Connectify(RandomRegular(s.N, d, rng), rng), nil
		},
	},
	"pa": {
		Name: "pa", Description: "Barabási–Albert preferential attachment (Degree = attachments per node)",
		Seeded: true,
		build: func(s Spec, rng *xrand.RNG) (*graph.Graph, error) {
			m := int(s.Degree)
			if m < 1 {
				m = 1
			}
			if s.N < m+1 {
				return nil, fmt.Errorf("gen: pa needs n >= deg+1, got n=%d deg=%d", s.N, m)
			}
			return PreferentialAttachment(s.N, m, rng), nil
		},
	},
	"expander": {
		Name: "expander", Description: "random simple d-regular expander: Hamiltonian base cycle plus stub matching",
		Seeded: true,
		build: func(s Spec, rng *xrand.RNG) (*graph.Graph, error) {
			d := int(s.Degree)
			if d == 0 {
				d = 4
			}
			if s.N < 3 || d < 2 {
				return nil, fmt.Errorf("gen: expander needs n >= 3 and deg >= 2, got n=%d deg=%d", s.N, d)
			}
			if d%2 == 1 && s.N%2 == 1 {
				return nil, fmt.Errorf("gen: expander with odd degree %d needs even n, got n=%d", d, s.N)
			}
			if d >= s.N {
				return nil, fmt.Errorf("gen: expander needs deg < n for a simple graph, got n=%d deg=%d", s.N, d)
			}
			return Expander(s.N, d, rng), nil
		},
	},
	"edgelist": {
		Name: "edgelist", Description: "real-world graph loaded from a whitespace edge-list file (Path)",
		build: func(s Spec, _ *xrand.RNG) (*graph.Graph, error) {
			if s.Path == "" {
				return nil, fmt.Errorf("gen: edgelist needs a file path")
			}
			return LoadEdgeListFile(s.Path)
		},
	},
}

// dims resolves a grid-like family's shape: explicit Rows/Cols when set,
// otherwise a square side derived from N, with a minimum side constraint.
func (s Spec) dims(minSide int) (rows, cols int, err error) {
	rows, cols = s.Rows, s.Cols
	if rows == 0 && cols == 0 {
		side := int(math.Sqrt(float64(s.N)))
		rows, cols = side, side
	}
	if rows < minSide || cols < minSide {
		return 0, 0, fmt.Errorf("gen: %s needs rows, cols >= %d, got %dx%d", s.Family, minSide, rows, cols)
	}
	return rows, cols, nil
}

// Families lists every registered family, sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames lists the registered family names, sorted (flag help text).
func FamilyNames() []string {
	fams := Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// Build materializes the spec through the family registry. The graph is
// deterministic in the spec: the family draws randomness from a private
// stream seeded by Spec.Seed exactly as the historical constructors did
// (rng := xrand.New(seed) per call), so specs and direct constructor calls
// produce bit-identical graphs.
func Build(spec Spec) (*graph.Graph, error) {
	f, ok := registry[spec.Family]
	if !ok {
		return nil, fmt.Errorf("gen: unknown family %q (have %s)", spec.Family, strings.Join(FamilyNames(), ", "))
	}
	if spec.N < 0 {
		return nil, fmt.Errorf("gen: negative node count %d", spec.N)
	}
	return f.build(spec, xrand.New(spec.Seed))
}
