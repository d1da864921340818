package repro_test

// Golden seed-equivalence tests. Every registered scheme and both spanner
// constructions run on a pinned graph and seed, and the full result — cost
// ledger and every node output, or the certificate and edge set — is
// compared byte for byte against a committed golden file, so refactors
// cannot silently drift behaviour. Regenerate with:
//
//	go test -run Golden -update-golden .

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/golden")

// goldenGraph is the pinned input: construction is fully deterministic, so
// the same graph is rebuilt in every run of the suite.
func goldenGraph() *repro.Graph {
	return gen.ConnectedGNP(36, 0.12, xrand.New(77))
}

// renderResult serializes a simulation result into the stable line format
// the golden files use.
func renderResult(res *repro.SimulationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s rounds=%d messages=%d stretch=%d spannerEdges=%d\n",
		res.Scheme, res.Rounds, res.Messages, res.StretchUsed, res.SpannerEdges)
	for _, ph := range res.Phases {
		fmt.Fprintf(&b, "phase %s rounds=%d messages=%d", ph.Name, ph.Rounds, ph.Messages)
		if ph.Dilation != 0 {
			fmt.Fprintf(&b, " dilation=%.4f", ph.Dilation)
		}
		// Only adversarial runs have damage to attribute; flawless runs keep
		// their historical golden lines byte for byte.
		if ph.Dropped != 0 {
			fmt.Fprintf(&b, " dropped=%d", ph.Dropped)
		}
		if ph.Duplicated != 0 {
			fmt.Fprintf(&b, " duplicated=%d", ph.Duplicated)
		}
		fmt.Fprintf(&b, "\n")
	}
	for v, out := range res.Outputs {
		fmt.Fprintf(&b, "node %d %v\n", v, out)
	}
	return b.String()
}

// renderSpanner serializes a built spanner: certificate, costs, and the
// sorted edge set.
func renderSpanner(sp *repro.Spanner) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stretchBound=%d rounds=%d messages=%d edges=%d\n",
		sp.StretchBound, sp.Rounds, sp.Messages, len(sp.Edges))
	ids := make([]repro.EdgeID, 0, len(sp.Edges))
	for id := range sp.Edges {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "edge %d\n", id)
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden output.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestSpannerGolden pins the centralized reference Sampler (core.Build) and
// the distributed protocol behind Engine.BuildSpanner, both at the paper
// defaults K=2, H=4, against committed golden output at a fixed
// (graph, seed).
func TestSpannerGolden(t *testing.T) {
	g := goldenGraph()
	const seed = 5

	t.Run("spanner-centralized", func(t *testing.T) {
		res, err := core.Build(g, core.Default(2, 4), seed)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "spanner-centralized", renderSpanner(&repro.Spanner{Edges: res.S, StretchBound: res.StretchBound()}))
	})
	t.Run("spanner-distributed", func(t *testing.T) {
		sp, err := repro.NewEngine(repro.WithSeed(seed)).BuildSpanner(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "spanner-distributed", renderSpanner(sp))
	})
}

// TestSchemeGolden pins every *registered* scheme against committed golden
// output at a fixed (graph, seed): full cost ledger (including the CONGEST
// scheme's round dilation) and every node output. A newly registered scheme
// fails this test until its golden file is generated with -update-golden —
// which is exactly the CI drift guard's contract: bit-level behaviour of the
// registry cannot change silently.
func TestSchemeGolden(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	const seed = 5
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			eng := repro.NewEngine(
				repro.WithSeed(seed),
				repro.WithGamma(1),
				repro.WithStageK(2),
			)
			res, err := eng.RunScheme(context.Background(), s, g, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "scheme-"+s.Name(), renderResult(res))
		})
	}
}

// TestGoldenFilesHaveAWriter is the reverse of the drift guard: every file
// under testdata/golden must be one a golden test above writes, so a file
// left behind by a removed scheme or profile fails instead of lingering.
func TestGoldenFilesHaveAWriter(t *testing.T) {
	want := map[string]bool{
		"spanner-centralized.golden": true,
		"spanner-distributed.golden": true,
	}
	for _, name := range repro.SchemeNames() {
		want["scheme-"+name+".golden"] = true
	}
	for _, profile := range repro.AdversaryProfiles() {
		for _, scheme := range adversaryGoldenSchemes {
			want["adversary-"+profile+"-"+scheme+".golden"] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("testdata/golden/%s has no golden test that writes it", e.Name())
		}
	}
}
