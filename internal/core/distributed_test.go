package core

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func buildDist(t *testing.T, g *graph.Graph, p Params, seed uint64) *DistResult {
	t.Helper()
	res, err := BuildDistributed(context.Background(), g, p, seed, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func verifyDist(t *testing.T, g *graph.Graph, res *DistResult) graph.StretchReport {
	t.Helper()
	_, rep, err := graph.VerifySpanner(g, res.S, res.StretchBound())
	if err != nil {
		t.Fatalf("distributed spanner invalid: %v", err)
	}
	return rep
}

func TestDistributedTinyGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"single": graph.New(1),
		"pair":   gen.Path(2),
		"tri":    gen.Cycle(3),
		"star":   gen.Star(6),
		"k5":     gen.Complete(5),
	} {
		res := buildDist(t, g, Default(1, 1), 3)
		if g.NumEdges() > 0 {
			verifyDist(t, g, res)
		}
		if !res.Run.Halted {
			t.Fatalf("%s: did not halt", name)
		}
	}
}

func TestDistributedMatchesScheduleRounds(t *testing.T) {
	g := gen.ConnectedGNP(100, 0.1, xrand.New(1))
	p := Default(2, 2)
	res := buildDist(t, g, p, 7)
	if res.Run.Rounds != res.ScheduleRounds {
		t.Fatalf("rounds = %d, schedule = %d", res.Run.Rounds, res.ScheduleRounds)
	}
	// The schedule length is the Theorem 11 round complexity: O(3^K · H).
	if res.ScheduleRounds > 40*pow3(p.K)*p.H {
		t.Fatalf("schedule %d rounds is out of the O(3^k h) ballpark", res.ScheduleRounds)
	}
}

func TestDistributedSpannerValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k, h int
	}{
		{"gnp-k1", gen.ConnectedGNP(200, 0.06, xrand.New(2)), 1, 2},
		{"gnp-k2", gen.ConnectedGNP(200, 0.06, xrand.New(2)), 2, 2},
		{"grid", gen.Grid(10, 10), 2, 1},
		{"hypercube", gen.Hypercube(7), 2, 2},
		{"complete", gen.Complete(80), 2, 2},
		{"barbell", gen.Barbell(15, 4), 1, 2},
		{"pa", gen.PreferentialAttachment(150, 3, xrand.New(4)), 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := buildDist(t, tc.g, Default(tc.k, tc.h), 11)
			verifyDist(t, tc.g, res)
		})
	}
}

// TestDistributedSEqualsFDecided checks that S, assembled from the
// endpoints' knowledge, is exactly the union of the F-sets the cluster roots
// decided.
func TestDistributedSEqualsFDecided(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.08, xrand.New(5))
	res := buildDist(t, g, Default(2, 2), 13)
	decided := make(map[graph.EdgeID]bool)
	for _, nd := range res.nodes {
		for _, e := range nd.fDecided {
			decided[e] = true
		}
	}
	if len(res.S) != len(decided) {
		t.Fatalf("|S| = %d but the roots decided %d edges", len(res.S), len(decided))
	}
	for e := range res.S {
		if !decided[e] {
			t.Fatalf("edge %d known to endpoints but never decided by a root", e)
		}
	}
}

// TestDistributedClusterTreesConsistent checks the cluster trees the
// new-cluster floods leave behind: every non-root node's parent edge is in
// its tree, every root names itself as its cluster's root, and every tree
// edge is in both endpoints' trees, whose cluster roots agree.
func TestDistributedClusterTreesConsistent(t *testing.T) {
	dense := Default(2, 7)
	dense.C = 0.5
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    Params
		seed uint64
	}{
		{"torus36", gen.Torus(36, 36), Default(2, 7), 7},
		{"complete112", gen.Complete(112), dense, 5},
		{"gnp-k2", gen.ConnectedGNP(300, 0.05, xrand.New(3)), Default(2, 2), 11},
		{"gnp-k3", gen.ConnectedGNP(400, 0.03, xrand.New(4)), Default(3, 2), 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := buildDist(t, tc.g, tc.p, tc.seed)
			for v, nd := range res.nodes {
				if nd.isRoot {
					if nd.clusterRoot != graph.NodeID(v) {
						t.Fatalf("root %d names %d as its cluster root", v, nd.clusterRoot)
					}
				} else if !slices.Contains(nd.tree, nd.parent) {
					t.Fatalf("node %d: parent edge %d not in its tree %v", v, nd.parent, nd.tree)
				}
				for _, e := range nd.tree {
					ge, ok := tc.g.EdgeByID(e)
					if !ok || (ge.U != graph.NodeID(v) && ge.V != graph.NodeID(v)) {
						t.Fatalf("node %d: tree edge %d is not incident", v, e)
					}
					w := ge.U
					if w == graph.NodeID(v) {
						w = ge.V
					}
					far := res.nodes[w]
					if !slices.Contains(far.tree, e) {
						t.Fatalf("tree edge %d is in node %d's tree but not node %d's", e, v, w)
					}
					if far.clusterRoot != nd.clusterRoot {
						t.Fatalf("tree edge %d joins clusters %d and %d", e, nd.clusterRoot, far.clusterRoot)
					}
				}
			}
		})
	}
}

func TestDistributedBothEndpointsKnow(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(6))
	res := buildDist(t, g, Default(1, 2), 17)
	for e := range res.S {
		ge, _ := g.EdgeByID(e)
		knows := 0
		for _, v := range []graph.NodeID{ge.U, ge.V} {
			if res.nodes[v].inS[e] {
				knows++
			}
		}
		if knows != 2 {
			t.Fatalf("edge %d known to %d of 2 endpoints", e, knows)
		}
	}
	// And no node claims a non-incident or non-spanner edge.
	for v, nd := range res.nodes {
		for e := range nd.inS {
			if !res.S[e] {
				t.Fatalf("node %d claims unknown spanner edge %d", v, e)
			}
			ge, _ := g.EdgeByID(e)
			if ge.U != graph.NodeID(v) && ge.V != graph.NodeID(v) {
				t.Fatalf("node %d claims non-incident edge %d", v, e)
			}
		}
	}
}

func TestDistributedEnginesAgree(t *testing.T) {
	g := gen.ConnectedGNP(100, 0.08, xrand.New(7))
	p := Default(2, 2)
	seq, err := BuildDistributed(context.Background(), g, p, 21, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	con, err := BuildDistributed(context.Background(), g, p, 21, local.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.S) != len(con.S) {
		t.Fatalf("engines disagree on |S|: %d vs %d", len(seq.S), len(con.S))
	}
	for e := range seq.S {
		if !con.S[e] {
			t.Fatal("engines disagree on spanner membership")
		}
	}
	if seq.Run.Messages != con.Run.Messages {
		t.Fatalf("engines disagree on messages: %d vs %d", seq.Run.Messages, con.Run.Messages)
	}
}

func TestDistributedDeterministic(t *testing.T) {
	g := gen.Grid(8, 8)
	a := buildDist(t, g, Default(2, 2), 5)
	b := buildDist(t, g, Default(2, 2), 5)
	if len(a.S) != len(b.S) || a.Run.Messages != b.Run.Messages {
		t.Fatal("distributed build not deterministic")
	}
}

func TestDistributedRejectsMultigraph(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if _, err := BuildDistributed(context.Background(), g, Default(1, 1), 1, local.Config{}); err == nil {
		t.Fatal("multigraph accepted")
	}
}

func TestDistributedRejectsAdversary(t *testing.T) {
	// A lossy network breaks the protocol's query/reply pairing; the
	// Sampler must refuse the adversary up front instead of panicking
	// mid-run on a reply that never arrived.
	profile, ok := adversary.Named("drop10")
	if !ok {
		t.Fatal("drop10 profile missing")
	}
	g := gen.ConnectedGNP(60, 0.1, xrand.New(1))
	cfg := local.Config{Adversary: adversary.Compile(profile, 1)}
	if _, err := BuildDistributed(context.Background(), g, Default(2, 4), 1, cfg); err == nil {
		t.Fatal("adversary accepted")
	}
}

func TestDistributedRejectsDisablePeeling(t *testing.T) {
	// The protocol always peels (a query reply carries the whole boundary),
	// so the centralized-only ablation knob must fail loudly, not be ignored.
	p := Default(1, 1)
	p.DisablePeeling = true
	if _, err := BuildDistributed(context.Background(), gen.Cycle(5), p, 1, local.Config{}); err == nil {
		t.Fatal("DisablePeeling accepted")
	}
}

func TestDistributedMessageAccounting(t *testing.T) {
	// The per-kind tally lives in each node's state and is summed after the
	// run, so it must cover every message the engine billed and be the same
	// whether the nodes stepped on one goroutine or many.
	g := gen.ConnectedGNP(200, 0.1, xrand.New(8))
	var want Traffic
	for _, workers := range []int{0, 2, -1} {
		res, err := BuildDistributed(context.Background(), g, Default(2, 2), 9, local.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tr := res.Traffic
		if byKind := tr.Query + tr.Reply + tr.Tree + tr.Accept + tr.Probe + tr.Join; byKind != res.Run.Messages {
			t.Fatalf("workers=%d: traffic sums to %d but runtime counted %d messages", workers, byKind, res.Run.Messages)
		}
		if tr.Query == 0 || tr.Tree == 0 {
			t.Fatalf("workers=%d: expected nonzero query and tree traffic: %+v", workers, tr)
		}
		// Every query gets exactly one reply.
		if tr.Query != tr.Reply {
			t.Fatalf("workers=%d: queries %d != replies %d", workers, tr.Query, tr.Reply)
		}
		if workers == 0 {
			want = tr
		} else if tr != want {
			t.Fatalf("workers=%d: traffic %+v differs from the sequential engine's %+v", workers, tr, want)
		}
	}
}

func TestDistributedSendsFewerMessagesThanEdgesOnDenseGraph(t *testing.T) {
	// The free-lunch headline: message complexity o(m) on dense graphs. At
	// experiment scale the polylog factors need n in the several hundreds
	// before the crossover appears (experiments E4/E11 in
	// internal/experiments chart the full curve); K_500 with h=8 sits
	// comfortably past it.
	g := gen.Complete(500) // m = 124750
	p := Default(2, 8)
	p.C = 0.5
	res := buildDist(t, g, p, 3)
	verifyDist(t, g, res)
	m := int64(g.NumEdges())
	if res.Run.Messages >= m {
		t.Fatalf("distributed Sampler sent %d messages on a graph with %d edges; want o(m)",
			res.Run.Messages, m)
	}
}

func TestDistributedMessageExponent(t *testing.T) {
	// Messages should scale like n^{1+δ+1/h} (up to log factors), far below
	// n^2 on complete graphs. Check the measured exponent between two sizes.
	p := Default(2, 4)
	sizes := []int{120, 240}
	var msgs [2]float64
	for i, n := range sizes {
		res := buildDist(t, gen.Complete(n), p, 7)
		msgs[i] = float64(res.Run.Messages)
	}
	got := math.Log(msgs[1]/msgs[0]) / math.Log(float64(sizes[1])/float64(sizes[0]))
	if got > 1.9 {
		t.Fatalf("measured message exponent %.2f looks like Theta(m)=n^2, want ~%.2f",
			got, p.PredictedMessageExponent())
	}
}

func TestDistributedAgainstCentralizedQuality(t *testing.T) {
	// The two implementations should produce spanners of comparable size on
	// the same graph (not identical — RNG consumption differs).
	g := gen.ConnectedGNP(300, 0.08, xrand.New(10))
	p := Default(2, 2)
	cent := buildOn(t, g, p, 31)
	dist := buildDist(t, g, p, 31)
	cs, ds := float64(len(cent.S)), float64(len(dist.S))
	if ds > 3*cs || cs > 3*ds {
		t.Fatalf("size mismatch: centralized %v vs distributed %v", cs, ds)
	}
}

func TestScheduleWellFormed(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for h := 1; h <= 3; h++ {
			s := buildSchedule(Default(k, h))
			prevEnd := 0
			for _, ph := range s.phases {
				if ph.start != prevEnd {
					t.Fatalf("k=%d h=%d: gap before %v", k, h, ph)
				}
				if ph.dur < 1 {
					t.Fatalf("zero-duration phase %v", ph)
				}
				prevEnd = ph.start + ph.dur
			}
			if prevEnd != s.total {
				t.Fatalf("schedule total mismatch")
			}
			// Round complexity shape: O(3^k · h).
			if s.total > 50*pow3(k)*h {
				t.Fatalf("k=%d h=%d: %d rounds exceeds O(3^k h) shape", k, h, s.total)
			}
		}
	}
}

func TestScheduleAtPanicsBeyondEnd(t *testing.T) {
	s := buildSchedule(Default(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic past schedule end")
		}
	}()
	s.at(s.total, 0)
}

func BenchmarkBuildDistributedK2(b *testing.B) {
	g := gen.ConnectedGNP(500, 0.05, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDistributed(context.Background(), g, Default(2, 2), uint64(i), local.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDistributedWordComplexityExceedsMessages(t *testing.T) {
	// Query replies carry whole boundary sets, so word counts must strictly
	// dominate message counts — and on dense graphs sit at Ω(m) even while
	// messages are o(m) (experiment E13 charts this).
	g := gen.Complete(200)
	p := Default(2, 4)
	p.C = 0.5
	res := buildDist(t, g, p, 3)
	if res.Run.PayloadUnits <= res.Run.Messages {
		t.Fatalf("payload units %d <= messages %d", res.Run.PayloadUnits, res.Run.Messages)
	}
	if res.Run.PayloadUnits < int64(g.NumEdges()) {
		t.Fatalf("payload units %d below m=%d: boundary accounting broken", res.Run.PayloadUnits, g.NumEdges())
	}
}

func TestDistributedLogNSlackRobust(t *testing.T) {
	// Model assumption (i): nodes know only an O(1)-approximate upper bound
	// on log n. With slack the protocol must still emit a valid spanner —
	// just a denser one (thresholds grow with the overestimate).
	g := gen.ConnectedGNP(150, 0.1, xrand.New(12))
	p := Default(1, 2)
	exact, err := BuildDistributed(context.Background(), g, p, 5, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	slacked, err := BuildDistributed(context.Background(), g, p, 5, local.Config{LogNSlack: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*DistResult{"exact": exact, "slack": slacked} {
		if _, _, err := graph.VerifySpanner(g, res.S, res.StretchBound()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(slacked.S) < len(exact.S) {
		t.Fatalf("overestimating n should not shrink the spanner: %d < %d",
			len(slacked.S), len(exact.S))
	}
}

func TestDistributedPropertyRandomGraphs(t *testing.T) {
	// Protocol-level property test: random graphs, seeds, and parameters
	// must always yield a valid spanner; the state machine's internal
	// assertions (convergecast completion, boundary consistency, fail-safe
	// postconditions) panic on any violation.
	check := func(seed uint64, nRaw, kRaw, hRaw uint8) bool {
		n := int(nRaw%50) + 4
		k := int(kRaw%2) + 1
		h := int(hRaw%2) + 1
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.2, rng), rng)
		res, err := BuildDistributed(context.Background(), g, Default(k, h), seed^0x5A5A, local.Config{})
		if err != nil {
			t.Log(err)
			return false
		}
		_, _, err = graph.VerifySpanner(g, res.S, res.StretchBound())
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedBillPin pins the distributed Sampler's whole bill —
// messages, rounds, payload words, the per-kind split, |S| and the number of
// fail-safe rescues — on two regimes at both engines. On the torus a root draws far more samples than
// its pool holds; on the complete graph with C = 0.5 the pool dwarfs the
// draws. No golden records payload units, so this is the test that catches
// a change to what a trial broadcast is charged.
func TestDistributedBillPin(t *testing.T) {
	dense := Default(2, 7)
	dense.C = 0.5
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		p        Params
		seed     uint64
		messages int64
		rounds   int
		units    int64
		traffic  Traffic
		s        int
		failSafe int
	}{
		{"torus36", gen.Torus(36, 36), Default(2, 7), 7, 81711, 524, 1281375,
			Traffic{Query: 9402, Reply: 9402, Tree: 39650, Accept: 7562, Probe: 14848, Join: 847}, 2592, 0},
		{"complete112", gen.Complete(112), dense, 5, 17329, 524, 3341724,
			Traffic{Query: 3561, Reply: 3561, Tree: 4921, Accept: 1912, Probe: 3276, Join: 98}, 1674, 2},
	} {
		for _, workers := range []int{0, 2} {
			res, err := BuildDistributed(context.Background(), tc.g, tc.p, tc.seed, local.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := [...]int64{res.Run.Messages, int64(res.Run.Rounds), res.Run.PayloadUnits, int64(len(res.S)), int64(res.FailSafeNodes)}
			want := [...]int64{tc.messages, int64(tc.rounds), tc.units, int64(tc.s), int64(tc.failSafe)}
			if got != want {
				t.Errorf("%s/workers=%d: (messages, rounds, units, |S|, fail-safes) = %v, want %v", tc.name, workers, got, want)
			}
			if res.Traffic != tc.traffic {
				t.Errorf("%s/workers=%d: traffic = %+v, want %+v", tc.name, workers, res.Traffic, tc.traffic)
			}
		}
	}
}
