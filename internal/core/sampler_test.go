package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Default(1, 1), true},
		{Default(3, 8), true},
		{Params{K: 0, H: 1, C: 1}, false},
		{Params{K: 1, H: 0, C: 1}, false},
		{Params{K: 1, H: 1, C: 0}, false},
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	p := Default(1, 2)
	if p.Delta() != 1.0/3 {
		t.Fatalf("delta = %v", p.Delta())
	}
	if p.Epsilon() != 0.5 {
		t.Fatalf("epsilon = %v", p.Epsilon())
	}
	if p.StretchBound() != 5 {
		t.Fatalf("stretch bound = %d", p.StretchBound())
	}
	p2 := Default(2, 4)
	if p2.Delta() != 1.0/7 {
		t.Fatalf("delta(k=2) = %v", p2.Delta())
	}
	if p2.StretchBound() != 17 {
		t.Fatalf("stretch bound(k=2) = %d", p2.StretchBound())
	}
	if got := p2.PredictedSizeExponent(); math.Abs(got-(1+1.0/7)) > 1e-12 {
		t.Fatalf("size exponent = %v", got)
	}
	if got := p2.PredictedMessageExponent(); math.Abs(got-(1+1.0/7+0.25)) > 1e-12 {
		t.Fatalf("msg exponent = %v", got)
	}
}

// TestLevelQuantitiesPinned pins the Sampler's per-level knobs — threshold
// and per-trial sample count at C = 1 and C = 0.5, and the center-marking
// probability — for K ∈ {1,2,3}, H ∈ {2,4,8}, n ∈ {2,100,4096,65536} and every
// level j ∈ [0, K]. The spanner goldens cover two parameter points; a change
// in how the formulas are evaluated (operand order, a folded constant) that
// moves one integer anywhere in this grid shows here.
func TestLevelQuantitiesPinned(t *testing.T) {
	cases := []struct {
		k, h, n, j int
		th1, s1    int // threshold and samplesPerTrial at C = 1
		th05, s05  int // the same at C = 0.5
		centerProb float64
	}{
		{1, 2, 2, 0, 2, 2, 1, 1, 0.7937005259840999},
		{1, 2, 2, 1, 2, 3, 1, 1, 0.6299605249474366},
		{1, 2, 100, 0, 31, 309, 16, 78, 0.21544346900318836},
		{1, 2, 100, 1, 144, 1432, 72, 358, 0.0464158883361278},
		{1, 2, 4096, 0, 192, 12288, 96, 3072, 0.06250000000000004},
		{1, 2, 4096, 1, 3072, 196608, 1536, 49152, 0.00390625},
		{1, 2, 65536, 0, 646, 165141, 323, 41286, 0.024803141437003125},
		{1, 2, 65536, 1, 26008, 6658043, 13004, 1664511, 0.0006151958251439812},
		{1, 4, 2, 0, 2, 2, 1, 1, 0.7937005259840999},
		{1, 4, 2, 1, 2, 2, 1, 1, 0.6299605249474366},
		{1, 4, 100, 0, 31, 98, 16, 25, 0.21544346900318836},
		{1, 4, 100, 1, 144, 453, 72, 114, 0.0464158883361278},
		{1, 4, 4096, 0, 192, 1536, 96, 384, 0.06250000000000004},
		{1, 4, 4096, 1, 3072, 24576, 1536, 6144, 0.00390625},
		{1, 4, 65536, 0, 646, 10322, 323, 2581, 0.024803141437003125},
		{1, 4, 65536, 1, 26008, 416128, 13004, 104032, 0.0006151958251439812},
		{1, 8, 2, 0, 2, 2, 1, 1, 0.7937005259840999},
		{1, 8, 2, 1, 2, 2, 1, 1, 0.6299605249474366},
		{1, 8, 100, 0, 31, 55, 16, 14, 0.21544346900318836},
		{1, 8, 100, 1, 144, 255, 72, 64, 0.0464158883361278},
		{1, 8, 4096, 0, 192, 544, 96, 136, 0.06250000000000004},
		{1, 8, 4096, 1, 3072, 8689, 1536, 2173, 0.00390625},
		{1, 8, 65536, 0, 646, 2581, 323, 646, 0.024803141437003125},
		{1, 8, 65536, 1, 26008, 104032, 13004, 26008, 0.0006151958251439812},
		{2, 2, 2, 0, 2, 2, 1, 1, 0.9057236642639067},
		{2, 2, 2, 1, 2, 2, 1, 1, 0.820335356007638},
		{2, 2, 2, 2, 2, 3, 1, 1, 0.6729500963161781},
		{2, 2, 100, 0, 13, 129, 7, 33, 0.5179474679231212},
		{2, 2, 100, 1, 25, 248, 13, 62, 0.2682695795279726},
		{2, 2, 100, 2, 93, 924, 47, 231, 0.07196856730011522},
		{2, 2, 4096, 0, 40, 2521, 20, 631, 0.3047534135511189},
		{2, 2, 4096, 1, 130, 8270, 65, 2068, 0.0928746430710593},
		{2, 2, 4096, 2, 1392, 89037, 696, 22260, 0.008625699325576658},
		{2, 2, 65536, 0, 79, 19973, 40, 4994, 0.20508383900190952},
		{2, 2, 65536, 1, 381, 97387, 191, 24347, 0.042059381019761144},
		{2, 2, 65536, 2, 9045, 2315444, 4523, 578861, 0.0017689915317654432},
		{2, 4, 2, 0, 2, 2, 1, 1, 0.9057236642639067},
		{2, 4, 2, 1, 2, 2, 1, 1, 0.820335356007638},
		{2, 4, 2, 2, 2, 2, 1, 1, 0.6729500963161781},
		{2, 4, 100, 0, 13, 41, 7, 11, 0.5179474679231212},
		{2, 4, 100, 1, 25, 79, 13, 20, 0.2682695795279726},
		{2, 4, 100, 2, 93, 292, 47, 73, 0.07196856730011522},
		{2, 4, 4096, 0, 40, 316, 20, 79, 0.3047534135511189},
		{2, 4, 4096, 1, 130, 1034, 65, 259, 0.0928746430710593},
		{2, 4, 4096, 2, 1392, 11130, 696, 2783, 0.008625699325576658},
		{2, 4, 65536, 0, 79, 1249, 40, 313, 0.20508383900190952},
		{2, 4, 65536, 1, 381, 6087, 191, 1522, 0.042059381019761144},
		{2, 4, 65536, 2, 9045, 144716, 4523, 36179, 0.0017689915317654432},
		{2, 8, 2, 0, 2, 2, 1, 1, 0.9057236642639067},
		{2, 8, 2, 1, 2, 2, 1, 1, 0.820335356007638},
		{2, 8, 2, 2, 2, 2, 1, 1, 0.6729500963161781},
		{2, 8, 100, 0, 13, 23, 7, 6, 0.5179474679231212},
		{2, 8, 100, 1, 25, 45, 13, 12, 0.2682695795279726},
		{2, 8, 100, 2, 93, 165, 47, 42, 0.07196856730011522},
		{2, 8, 4096, 0, 40, 112, 20, 28, 0.3047534135511189},
		{2, 8, 4096, 1, 130, 366, 65, 92, 0.0928746430710593},
		{2, 8, 4096, 2, 1392, 3935, 696, 984, 0.008625699325576658},
		{2, 8, 65536, 0, 79, 313, 40, 79, 0.20508383900190952},
		{2, 8, 65536, 1, 381, 1522, 191, 381, 0.042059381019761144},
		{2, 8, 65536, 2, 9045, 36179, 4523, 9045, 0.0017689915317654432},
		{3, 2, 2, 0, 2, 2, 1, 1, 0.9548416039104165},
		{3, 2, 2, 1, 2, 2, 1, 1, 0.9117224885582169},
		{3, 2, 2, 2, 2, 2, 1, 1, 0.8312378961427878},
		{3, 2, 2, 3, 2, 3, 1, 1, 0.6909564399838881},
		{3, 2, 100, 0, 10, 91, 5, 23, 0.7356422544596413},
		{3, 2, 100, 1, 13, 123, 7, 31, 0.5411695265464637},
		{3, 2, 100, 2, 23, 227, 12, 57, 0.2928644564625236},
		{3, 2, 100, 3, 78, 775, 39, 194, 0.08576958985908943},
		{3, 2, 4096, 0, 21, 1338, 11, 335, 0.5743491774985175},
		{3, 2, 4096, 1, 37, 2329, 19, 583, 0.3298769776932236},
		{3, 2, 4096, 2, 111, 7058, 56, 1765, 0.10881882041201553},
		{3, 2, 4096, 3, 1014, 64857, 507, 16215, 0.011841535675862479},
		{3, 2, 65536, 0, 34, 8580, 17, 2145, 0.47742080195520825},
		{3, 2, 65536, 1, 71, 17971, 36, 4493, 0.22793062213955423},
		{3, 2, 65536, 2, 308, 78842, 154, 19711, 0.05195236850892425},
		{3, 2, 65536, 3, 5929, 1517572, 2965, 379393, 0.002699048593687063},
		{3, 4, 2, 0, 2, 2, 1, 1, 0.9548416039104165},
		{3, 4, 2, 1, 2, 2, 1, 1, 0.9117224885582169},
		{3, 4, 2, 2, 2, 2, 1, 1, 0.8312378961427878},
		{3, 4, 2, 3, 2, 2, 1, 1, 0.6909564399838881},
		{3, 4, 100, 0, 10, 29, 5, 8, 0.7356422544596413},
		{3, 4, 100, 1, 13, 39, 7, 10, 0.5411695265464637},
		{3, 4, 100, 2, 23, 72, 12, 18, 0.2928644564625236},
		{3, 4, 100, 3, 78, 245, 39, 62, 0.08576958985908943},
		{3, 4, 4096, 0, 21, 168, 11, 42, 0.5743491774985175},
		{3, 4, 4096, 1, 37, 292, 19, 73, 0.3298769776932236},
		{3, 4, 4096, 2, 111, 883, 56, 221, 0.10881882041201553},
		{3, 4, 4096, 3, 1014, 8108, 507, 2027, 0.011841535675862479},
		{3, 4, 65536, 0, 34, 537, 17, 135, 0.47742080195520825},
		{3, 4, 65536, 1, 71, 1124, 36, 281, 0.22793062213955423},
		{3, 4, 65536, 2, 308, 4928, 154, 1232, 0.05195236850892425},
		{3, 4, 65536, 3, 5929, 94849, 2965, 23713, 0.002699048593687063},
		{3, 8, 2, 0, 2, 2, 1, 1, 0.9548416039104165},
		{3, 8, 2, 1, 2, 2, 1, 1, 0.9117224885582169},
		{3, 8, 2, 2, 2, 2, 1, 1, 0.8312378961427878},
		{3, 8, 2, 3, 2, 2, 1, 1, 0.6909564399838881},
		{3, 8, 100, 0, 10, 17, 5, 5, 0.7356422544596413},
		{3, 8, 100, 1, 13, 22, 7, 6, 0.5411695265464637},
		{3, 8, 100, 2, 23, 41, 12, 11, 0.2928644564625236},
		{3, 8, 100, 3, 78, 138, 39, 35, 0.08576958985908943},
		{3, 8, 4096, 0, 21, 60, 11, 15, 0.5743491774985175},
		{3, 8, 4096, 1, 37, 103, 19, 26, 0.3298769776932236},
		{3, 8, 4096, 2, 111, 312, 56, 78, 0.10881882041201553},
		{3, 8, 4096, 3, 1014, 2867, 507, 717, 0.011841535675862479},
		{3, 8, 65536, 0, 34, 135, 17, 34, 0.47742080195520825},
		{3, 8, 65536, 1, 71, 281, 36, 71, 0.22793062213955423},
		{3, 8, 65536, 2, 308, 1232, 154, 308, 0.05195236850892425},
		{3, 8, 65536, 3, 5929, 23713, 2965, 5929, 0.002699048593687063},
	}
	for _, c := range cases {
		p1, p05 := Default(c.k, c.h), Default(c.k, c.h)
		p05.C = 0.5
		got := [4]int{p1.threshold(c.j, c.n), p1.samplesPerTrial(c.j, c.n), p05.threshold(c.j, c.n), p05.samplesPerTrial(c.j, c.n)}
		if want := [4]int{c.th1, c.s1, c.th05, c.s05}; got != want {
			t.Errorf("K=%d H=%d n=%d j=%d: (threshold, samples) at C=1, C=0.5 = %v, want %v", c.k, c.h, c.n, c.j, got, want)
		}
		if pc := p1.centerProb(c.j, c.n); pc != c.centerProb {
			t.Errorf("K=%d H=%d n=%d j=%d: centerProb = %v, want %v", c.k, c.h, c.n, c.j, pc, c.centerProb)
		}
	}
}

func TestCenterProbMonotone(t *testing.T) {
	p := Default(3, 4)
	n := 10000
	prev := 1.0
	for j := 0; j < 3; j++ {
		pj := p.centerProb(j, n)
		if pj <= 0 || pj >= 1 {
			t.Fatalf("p_%d = %v out of (0,1)", j, pj)
		}
		if pj >= prev {
			t.Fatalf("p_%d = %v not decreasing", j, pj)
		}
		prev = pj
	}
}

func TestThresholdGrowsWithLevel(t *testing.T) {
	p := Default(3, 4)
	n := 10000
	prev := 0
	for j := 0; j <= 3; j++ {
		th := p.threshold(j, n)
		if th <= prev {
			t.Fatalf("threshold_%d = %d not increasing (prev %d)", j, th, prev)
		}
		prev = th
	}
}

func buildOn(t *testing.T, g *graph.Graph, p Params, seed uint64) *Result {
	t.Helper()
	res, err := Build(g, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func verify(t *testing.T, g *graph.Graph, res *Result) graph.StretchReport {
	t.Helper()
	if err := res.ValidateHierarchy(g); err != nil {
		t.Fatalf("hierarchy invalid: %v", err)
	}
	_, rep, err := graph.VerifySpanner(g, res.S, res.StretchBound())
	if err != nil {
		t.Fatalf("spanner invalid: %v", err)
	}
	return rep
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, Default(1, 1), 1); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Build(gen.Cycle(5), Params{}, 1); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestBuildOnTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Path(2), gen.Cycle(3), gen.Star(5), gen.Complete(4)} {
		res := buildOn(t, g, Default(1, 1), 7)
		verify(t, g, res)
	}
}

func TestBuildSingleNodeAndEmpty(t *testing.T) {
	res := buildOn(t, graph.New(1), Default(1, 2), 1)
	if len(res.S) != 0 {
		t.Fatal("single node produced edges")
	}
	res = buildOn(t, graph.New(0), Default(1, 2), 1)
	if len(res.S) != 0 {
		t.Fatal("empty graph produced edges")
	}
}

func TestBuildGNPAllKs(t *testing.T) {
	g := gen.ConnectedGNP(400, 0.08, xrand.New(3))
	for k := 1; k <= 3; k++ {
		for _, h := range []int{1, 3} {
			res := buildOn(t, g, Default(k, h), uint64(10*k+h))
			rep := verify(t, g, res)
			if rep.MaxEdgeStretch > res.StretchBound() {
				t.Fatalf("k=%d h=%d stretch %d > bound %d", k, h, rep.MaxEdgeStretch, res.StretchBound())
			}
			if len(res.Levels) != k+1 {
				t.Fatalf("k=%d: %d levels", k, len(res.Levels))
			}
		}
	}
}

func TestBuildStructuredGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":      gen.Grid(12, 12),
		"torus":     gen.Torus(8, 8),
		"hypercube": gen.Hypercube(7),
		"barbell":   gen.Barbell(20, 6),
		"complete":  gen.Complete(60),
		"pa":        gen.PreferentialAttachment(300, 3, xrand.New(9)),
	}
	for name, g := range graphs {
		res := buildOn(t, g, Default(2, 2), 11)
		rep := verify(t, g, res)
		if rep.Edges > g.NumEdges() {
			t.Fatalf("%s: spanner larger than graph", name)
		}
	}
}

func TestSpannerSparsifiesDenseGraph(t *testing.T) {
	// On a complete graph the spanner must be much smaller than m.
	g := gen.Complete(400) // m = 79800
	res := buildOn(t, g, Default(2, 2), 5)
	verify(t, g, res)
	if len(res.S)*4 > g.NumEdges() {
		t.Fatalf("spanner has %d of %d edges; expected strong sparsification", len(res.S), g.NumEdges())
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.ConnectedGNP(200, 0.05, xrand.New(1))
	a := buildOn(t, g, Default(2, 3), 42)
	b := buildOn(t, g, Default(2, 3), 42)
	if len(a.S) != len(b.S) {
		t.Fatalf("sizes differ: %d vs %d", len(a.S), len(b.S))
	}
	if !slices.Equal(a.S, b.S) {
		t.Fatal("edge sets differ for identical seeds")
	}
	c := buildOn(t, g, Default(2, 3), 43)
	diff := 0
	for _, e := range a.S {
		if _, ok := slices.BinarySearch(c.S, e); !ok {
			diff++
		}
	}
	if diff == 0 && len(a.S) == len(c.S) {
		t.Log("warning: different seeds produced identical spanners (possible but unlikely)")
	}
}

func TestHierarchyPopulationShrinks(t *testing.T) {
	g := gen.ConnectedGNP(1000, 0.05, xrand.New(2))
	res := buildOn(t, g, Default(2, 2), 3)
	for j := 1; j < len(res.Levels); j++ {
		if res.Levels[j].G.NumNodes() >= res.Levels[j-1].G.NumNodes() {
			t.Fatalf("level %d did not shrink: %d -> %d", j,
				res.Levels[j-1].G.NumNodes(), res.Levels[j].G.NumNodes())
		}
	}
}

func TestLemma4Concentration(t *testing.T) {
	// n_j should stay within [n·p̂_{j-1}/2, 3n·p̂_{j-1}/2] whp. We allow a
	// slightly wider factor-2 margin since our n is modest.
	g := gen.ConnectedGNP(3000, 0.02, xrand.New(4))
	p := Default(2, 2)
	res := buildOn(t, g, p, 9)
	n := float64(g.NumNodes())
	for j := 1; j < len(res.Levels); j++ {
		phat := 1.0
		for i := 0; i < j; i++ {
			phat *= p.centerProb(i, g.NumNodes())
		}
		nj := float64(res.Levels[j].G.NumNodes())
		lo, hi := n*phat/4, n*phat*3
		if nj < lo || nj > hi {
			t.Fatalf("level %d population %v outside [%v, %v] (Lemma 4 band x2)", j, nj, lo, hi)
		}
	}
}

func TestLightHeavyDichotomy(t *testing.T) {
	g := gen.ConnectedGNP(500, 0.1, xrand.New(5))
	res := buildOn(t, g, Default(2, 3), 6)
	for _, lvl := range res.Levels {
		for v := range lvl.Light {
			if lvl.Light[v] && lvl.Heavy[v] {
				t.Fatalf("level %d node %d both light and heavy", lvl.J, v)
			}
		}
	}
	// Final level: all light (guaranteed by fail-safe, Lemma 6 whp).
	last := res.Levels[len(res.Levels)-1]
	for v, light := range last.Light {
		if !light {
			t.Fatalf("final-level node %d not light", v)
		}
	}
}

func TestMultigraphInputHandled(t *testing.T) {
	// Sampler's key idea is handling multiplicities; feed it a multigraph
	// directly (as would arise mid-hierarchy).
	base := gen.Cycle(30)
	g := gen.Multi(base, func(e graph.Edge) int { return 1 + int(e.ID%5)*10 })
	res := buildOn(t, g, Default(1, 2), 13)
	verify(t, g, res)
	// Spanner should not collect parallel duplicates beyond one per queried
	// neighbor pair... duplicates are possible across levels but the count
	// must stay near the simple edge count, far below the multigraph size.
	if len(res.S) > 3*base.NumEdges() {
		t.Fatalf("spanner kept %d of %d multigraph edges", len(res.S), g.NumEdges())
	}
}

func TestPeelingLimitsSamplesOnSkewedMultiplicities(t *testing.T) {
	// One neighbor owns 99% of the edges. Peeling should still discover the
	// other neighbors quickly; without peeling the skewed neighbor would
	// swallow nearly every sample (the ablation experiment quantifies this).
	g := graph.New(12)
	hub := graph.NodeID(0)
	for i := 0; i < 1000; i++ {
		g.AddEdge(hub, 1) // massive multiplicity toward node 1
	}
	for v := graph.NodeID(2); v < 12; v++ {
		g.AddEdge(hub, v)
	}
	res := buildOn(t, g, Default(1, 4), 3)
	verify(t, g, res)
	// Node 0 must have discovered all 11 distinct neighbors (it is light at
	// some level or the fail-safe fired; either way F covers them).
	found := map[graph.NodeID]bool{}
	for _, e := range res.S {
		ge, _ := g.EdgeByID(e)
		if ge.U == hub || ge.V == hub {
			found[ge.Other(hub)] = true
		}
	}
	if len(found) != 11 {
		t.Fatalf("hub discovered %d of 11 neighbors", len(found))
	}
}

func TestTraceRenders(t *testing.T) {
	g := gen.Grid(4, 4)
	res := buildOn(t, g, Default(1, 1), 1)
	s := res.Trace()
	if len(s) == 0 {
		t.Fatal("empty trace")
	}
}

// Property test: for random connected graphs and parameter draws, the
// spanner is always valid with bounded stretch (fail-safe on).
func TestSpannerAlwaysValidProperty(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw, hRaw uint8) bool {
		n := int(nRaw%60) + 5
		k := int(kRaw%3) + 1
		h := int(hRaw%3) + 1
		rng := xrand.New(seed)
		g := gen.Connectify(gen.GNP(n, 0.15, rng), rng)
		res, err := Build(g, Default(k, h), seed^0xABCD)
		if err != nil {
			return false
		}
		if err := res.ValidateHierarchy(g); err != nil {
			t.Logf("hierarchy: %v", err)
			return false
		}
		_, _, err = graph.VerifySpanner(g, res.S, res.StretchBound())
		if err != nil {
			t.Logf("spanner: %v", err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildK2(b *testing.B) {
	g := gen.ConnectedGNP(2000, 0.05, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Default(2, 3), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// shuffledIDGraph rebuilds a connected GNP graph with its edge IDs permuted
// (AddEdgeWithID keeps insertion order), so every node's incident list is in
// neither ID nor any other sorted order.
func shuffledIDGraph(n int, p float64, seed uint64) *graph.Graph {
	base := gen.ConnectedGNP(n, p, xrand.New(seed))
	perm := xrand.New(seed + 1).Perm(base.NumEdges())
	g := graph.New(n)
	for i, e := range base.Edges() {
		if err := g.AddEdgeWithID(graph.EdgeID(perm[i]), e.U, e.V); err != nil {
			panic(err)
		}
	}
	return g
}

// spannerDigest is an FNV-1a digest of S's edge IDs in S's order.
func spannerDigest(s []graph.EdgeID) uint64 {
	h := fnv.New64a()
	for _, e := range s {
		_ = binary.Write(h, binary.LittleEndian, int64(e))
	}
	return h.Sum64()
}

// requireAscending fails t unless the spanner edge set s is strictly
// ascending.
func requireAscending(t *testing.T, s []graph.EdgeID) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("S is not strictly ascending: %d then %d", s[i-1], s[i])
		}
	}
}

// TestCentralizedSamplerPin pins the centralized Sampler where the spanner
// goldens cannot see it: on a graph whose incident lists are not in ID
// order, and on a multigraph with peeling disabled (the E10 ablation path).
// Every trial draws from X_v in the caller's incident order, so a pool that
// reorders its edges (by sorting them, say) moves the draws and fails here.
func TestCentralizedSamplerPin(t *testing.T) {
	type levelPin struct {
		trials, samples int64
		edgesAdded      int
		failSafe        int
	}
	// C = 0.25 keeps thresholds low enough that both runs prune and rescue
	// nodes through the fail-safe.
	p := Default(2, 2)
	p.C = 0.25
	noPeel := p
	noPeel.DisablePeeling = true
	cases := []struct {
		name   string
		g      *graph.Graph
		p      Params
		size   int
		digest uint64
		levels []levelPin
	}{
		{
			name:   "shuffled-ids",
			g:      shuffledIDGraph(120, 0.3, 5),
			p:      p,
			size:   1021,
			digest: 0x850c92bac3da184b,
			levels: []levelPin{{120, 1258, 501, 2}, {67, 1326, 384, 2}, {39, 2847, 136, 0}},
		},
		{
			name:   "multigraph-no-peeling",
			g:      gen.Multi(gen.ConnectedGNP(40, 0.2, xrand.New(8)), func(e graph.Edge) int { return 1 + int(e.ID%4) }),
			p:      noPeel,
			size:   225,
			digest: 0x2aa318fb192067e3,
			levels: []levelPin{{46, 226, 126, 1}, {32, 445, 88, 9}, {20, 423, 11, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := buildOn(t, tc.g, tc.p, 21)
			verify(t, tc.g, res)
			requireAscending(t, res.S)
			var levels []levelPin
			for _, lvl := range res.Levels {
				levels = append(levels, levelPin{lvl.Trials, lvl.Samples, lvl.EdgesAdded, lvl.FailSafe})
			}
			if len(res.S) != tc.size || spannerDigest(res.S) != tc.digest || !slices.Equal(levels, tc.levels) {
				t.Fatalf("|S| = %d, digest %#x, levels (trials, samples, edges added, fail-safe) %v; want %d, %#x, %v",
					len(res.S), spannerDigest(res.S), levels, tc.size, tc.digest, tc.levels)
			}
		})
	}
}

// TestValidateHierarchyNamesSmallestForeignEdge checks that the error for a
// spanner edge missing from the input graph is reproducible: it names the
// smallest such edge, whatever order the foreign edges are added in.
func TestValidateHierarchyNamesSmallestForeignEdge(t *testing.T) {
	g := gen.Path(4)
	res := buildOn(t, g, Default(1, 2), 1)
	for _, e := range []graph.EdgeID{90, 70, 80} {
		res.S = graph.InsertEdgeID(res.S, e)
	}
	err := res.ValidateHierarchy(g)
	if err == nil || err.Error() != "core: spanner edge 70 not in input graph" {
		t.Fatalf("ValidateHierarchy = %v, want it to name edge 70", err)
	}
}
