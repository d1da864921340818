package gen

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestBuildMatchesConstructors pins the redesign's compatibility contract:
// a Spec builds the bit-identical graph (same fingerprint, hence same edge
// IDs in the same insertion order) as the historical constructor call it
// replaces, including RNG consumption order for seeded families. Rows
// with a literal fingerprint pin the random-regular and expander builds
// themselves, so a change to their pairing or stub-matching RNG order
// shows even though the constructors above share that code.
func TestBuildMatchesConstructors(t *testing.T) {
	cases := []struct {
		spec Spec
		want uint64
	}{
		{Spec{Family: "complete", N: 30}, Complete(30).Fingerprint()},
		{Spec{Family: "cycle", N: 17}, Cycle(17).Fingerprint()},
		{Spec{Family: "path", N: 9}, Path(9).Fingerprint()},
		{Spec{Family: "star", N: 12}, Star(12).Fingerprint()},
		{Spec{Family: "grid", N: 30}, Grid(5, 5).Fingerprint()},
		{Spec{Family: "grid", Rows: 3, Cols: 7}, Grid(3, 7).Fingerprint()},
		{Spec{Family: "torus", Rows: 4, Cols: 5}, Torus(4, 5).Fingerprint()},
		{Spec{Family: "hypercube", N: 64}, Hypercube(6).Fingerprint()},
		{Spec{Family: "barbell", N: 20}, Barbell(10, 4).Fingerprint()},
		{Spec{Family: "gnp", N: 64, P: 0.08, Seed: 1}, ConnectedGNP(64, 0.08, xrand.New(1)).Fingerprint()},
		{
			Spec{Family: "gnp", N: 120, Degree: 6, Seed: 7},
			func() uint64 {
				rng := xrand.New(7)
				return Connectify(GNP(120, 6/float64(119), rng), rng).Fingerprint()
			}(),
		},
		{
			Spec{Family: "gnm", N: 40, M: 70, Seed: 3},
			func() uint64 {
				rng := xrand.New(3)
				return Connectify(GNM(40, 70, rng), rng).Fingerprint()
			}(),
		},
		{Spec{Family: "tree", N: 50, Seed: 9}, RandomTree(50, xrand.New(9)).Fingerprint()},
		{
			Spec{Family: "regular", N: 40, Degree: 4, Seed: 2},
			func() uint64 {
				rng := xrand.New(2)
				return Connectify(RandomRegular(40, 4, rng), rng).Fingerprint()
			}(),
		},
		// Builds that succeed within the pairing retries, and expanders
		// (one of them repaired by stub matching), as the graphs built
		// before the regular family gained its repair.
		{Spec{Family: "regular", N: 40, Degree: 4, Seed: 2}, 0x6e4eb9939f49da8d},
		{Spec{Family: "regular", N: 300, Degree: 4, Seed: 1}, 0x313aa14d9165714a},
		{Spec{Family: "expander", N: 40, Degree: 4, Seed: 8}, 0xf6dedf0957d14d0d},
		{Spec{Family: "expander", N: 300, Degree: 16, Seed: 1}, 0x737d6b1ec6eaccb2},
		// Degree 6 on 4096 nodes exhausts the pairing retries, so the
		// stub-matching repair builds it.
		{Spec{Family: "regular", N: 4096, Degree: 6, Seed: 2}, 0x7d954e76b9cf3309},
		{Spec{Family: "pa", N: 50, Degree: 3, Seed: 5}, PreferentialAttachment(50, 3, xrand.New(5)).Fingerprint()},
		{Spec{Family: "expander", N: 40, Degree: 4, Seed: 8}, Expander(40, 4, xrand.New(8)).Fingerprint()},
	}
	for _, c := range cases {
		g, err := Build(c.spec)
		if err != nil {
			t.Fatalf("Build(%+v): %v", c.spec, err)
		}
		if got := g.Fingerprint(); got != c.want {
			t.Errorf("Build(%+v) fingerprint %x, want %x", c.spec, got, c.want)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Build(%+v): %v", c.spec, err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Spec{
		{Family: "nope", N: 10},
		{Family: "barbell", N: 4},
		{Family: "torus", N: 4}, // derived side 2 < 3
		{Family: "cycle", N: 2}, // a doubled edge, not a simple graph
		{Family: "regular", N: 10, Degree: 11},
		{Family: "regular", N: 5, Degree: 3}, // odd n*d
		{Family: "pa", N: 3, Degree: 8},
		{Family: "gnp", N: 10, P: 1.5},
		{Family: "gnm", N: 5, M: 100},
		{Family: "expander", N: 9, Degree: 3}, // odd degree, odd n
		{Family: "edgelist"},                  // no path
		{Family: "complete", N: -1},
	}
	for _, s := range bad {
		if _, err := Build(s); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", s)
		}
	}
}

func TestFamiliesSortedAndComplete(t *testing.T) {
	names := FamilyNames()
	if !strings.Contains(strings.Join(names, ","), "gnp") {
		t.Fatalf("registry lost gnp: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("family names not sorted: %v", names)
		}
	}
	for _, f := range Families() {
		if f.Description == "" {
			t.Errorf("family %s has no description", f.Name)
		}
		if f.Name == "edgelist" {
			continue // it loads its graph from a file
		}
		// cmd/simulate's default degree: every generated family builds it.
		s := Spec{Family: f.Name, N: 300, Degree: 16, Seed: 1}
		g, err := Build(s)
		if err != nil {
			t.Errorf("Build(%+v): %v", s, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Build(%+v): %v", s, err)
		}
	}
}

func TestSpecKeyInjectiveOnSetFields(t *testing.T) {
	specs := []Spec{
		{Family: "gnp", N: 64, Degree: 8},
		{Family: "gnp", N: 64, Degree: 8, Seed: 1},
		{Family: "gnp", N: 64, P: 0.5},
		{Family: "grid", Rows: 4, Cols: 6},
		{Family: "grid", Rows: 6, Cols: 4},
		{Family: "gnm", N: 64, M: 100},
		{Family: "edgelist", Path: "x.txt"},
	}
	seen := map[string]bool{}
	for _, s := range specs {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}

func TestExpanderShape(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		g, err := Build(Spec{Family: "expander", N: 64, Degree: float64(d), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("expander d=%d disconnected", d)
		}
		// Simplicity is load-bearing: the distributed sampler refuses
		// multigraphs, so the family must never emit parallel edges.
		if !g.IsSimple() {
			t.Fatalf("expander d=%d is not simple", d)
		}
		if g.NumEdges() != 64*d/2 {
			t.Fatalf("expander d=%d has %d edges, want %d", d, g.NumEdges(), 64*d/2)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if got := g.Degree(graph.NodeID(v)); got != d {
				t.Fatalf("expander d=%d: node %d has degree %d", d, v, got)
			}
		}
		// The whole point: diameter far below a cycle's. A random 64-node
		// 4-regular circulant union has diameter ~log n; allow slack.
		if d >= 4 {
			if diam := g.Diameter(); diam > 12 {
				t.Fatalf("expander d=%d diameter %d, want <= 12", d, diam)
			}
		}
	}
}
