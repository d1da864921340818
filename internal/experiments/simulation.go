package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/globalcompute"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/simulate"
	"repro/internal/spanner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// mustConstruction unwraps a stage-2 construction built at a valid k.
func mustConstruction(c spanner.Construction, err error) spanner.Construction {
	if err != nil {
		panic(err)
	}
	return c
}

// E5Baseline contrasts the distributed Sampler with distributed Baswana–Sen
// (the Ω(m)-message family the paper improves on): on a dense graph, Sampler
// must send fewer messages, while Baswana–Sen's messages track m.
func E5Baseline(quick bool) Report {
	rep := Report{
		ID:    "E5",
		Title: "Sampler vs Baswana–Sen message cost (Section 1.2 contrast)",
		Claim: "classic spanner constructions send Θ(m) messages; Sampler sends o(m)",
		Pass:  true,
	}
	n := 500
	if quick {
		n = 250
	}
	p := core.Default(2, 8)
	p.C = 0.5
	bsc := mustConstruction(spanner.BaswanaSenConstruction(2))
	var rows [][]string
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", gen.Complete(n)},
		{"gnp-dense", gnpWithDegree(n, float64(n)/2, 3)},
	} {
		m := int64(tc.g.NumEdges())
		samp, err := core.BuildDistributed(tc.g, p, 7, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		_, bs, err := simulate.Direct(context.Background(), tc.g, bsc.Spec, 7, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			tc.name, fmt.Sprint(m),
			fmt.Sprint(samp.Run.Messages), stats.F(float64(samp.Run.Messages) / float64(m)),
			fmt.Sprint(bs.Messages), stats.F(float64(bs.Messages) / float64(m)),
			fmt.Sprint(samp.Run.Rounds), fmt.Sprint(bs.Rounds),
		})
		if samp.Run.Messages >= bs.Messages {
			rep.Pass = false
			rep.Notes = append(rep.Notes, tc.name+": Sampler did not beat Baswana–Sen on messages")
		}
		if bs.Messages < 2*m {
			rep.Pass = false
			rep.Notes = append(rep.Notes, tc.name+": Baswana–Sen below the Θ(m) floor?")
		}
	}
	rep.Table = stats.Table(
		[]string{"graph", "m", "sampler-msgs", "/m", "bs-msgs", "/m", "sampler-rounds", "bs-rounds"}, rows)
	rep.Notes = append(rep.Notes, "Baswana–Sen wins on rounds — the paper's point is removing the message bottleneck without a *round blow-up in t* when simulating algorithms")
	return rep
}

// E6Hierarchy checks Lemma 4 (level populations concentrate in
// [n·p̂/2, 3n·p̂/2]) and Lemma 6 (every node ends light or heavy; final level
// all light) across seeds.
func E6Hierarchy(quick bool) Report {
	rep := Report{
		ID:    "E6",
		Title: "hierarchy concentration (Lemmas 4 and 6)",
		Claim: "n_j in [n·p̂_{j-1}/2, 3n·p̂_{j-1}/2] whp; nodes end light or heavy; level-k all light",
		Pass:  true,
	}
	n := 3000
	seeds := 5
	if quick {
		n, seeds = 1000, 2
	}
	p := core.Default(2, 2)
	g := gnpWithDegree(n, 20, 9)
	var rows [][]string
	for seed := 0; seed < seeds; seed++ {
		res, err := core.Build(g, p, uint64(seed))
		if err != nil {
			panic(err)
		}
		for j := 1; j < len(res.Levels); j++ {
			phat := 1.0
			for i := 0; i < j; i++ {
				phat *= math.Pow(float64(n), -math.Pow(2, float64(i))*p.Delta())
			}
			nj := res.Levels[j].G.NumNodes()
			lo, hi := float64(n)*phat/2, 3*float64(n)*phat/2
			in := float64(nj) >= lo && float64(nj) <= hi
			rows = append(rows, []string{
				fmt.Sprint(seed), fmt.Sprint(j), fmt.Sprint(nj),
				fmt.Sprintf("[%.0f, %.0f]", lo, hi), fmt.Sprint(in),
				fmt.Sprint(res.Levels[j].FailSafe),
			})
			if !in {
				rep.Pass = false
			}
		}
		last := res.Levels[len(res.Levels)-1]
		for v := range last.Light {
			if !last.Light[v] {
				rep.Pass = false
				rep.Notes = append(rep.Notes, "final-level node not light")
			}
		}
		if res.FailSafeNodes > n/100 {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("fail-safe fired %d times (> 1%% of nodes)", res.FailSafeNodes))
		}
	}
	rep.Table = stats.Table([]string{"seed", "level", "n_j", "Lemma4 band", "inside", "failsafe"}, rows)
	return rep
}

// E7Scheme1 runs Theorem 3's first scheme end to end against the two
// baselines. Two claims are separable:
//
//   - messages: on dense graphs the whole scheme-1 pipeline (spanner +
//     collection) costs fewer messages than direct flooding's Θ(t·m);
//   - rounds: the scheme's collection takes exactly α·t rounds regardless
//     of n, while gossip's cover time grows with n (its O(t·log n + log²n)
//     signature) and worsens with low conductance. At laptop scale the
//     constant α = 2·3^k−1 exceeds log n, so gossip's absolute round count
//     can still be smaller — the *growth shapes* are what the theory
//     predicts and what we check.
func E7Scheme1(quick bool) Report {
	rep := Report{
		ID:    "E7",
		Title: "message-reduction scheme 1 vs baselines (Theorem 3)",
		Claim: "simulate a t-round algorithm in O(t) n-independent rounds with o(t·m) messages; gossip rounds grow with n and conductance",
		Pass:  true,
	}
	const tr = 4
	spec := algorithms.MaxID(tr)
	p := core.Default(2, 8)
	p.C = 0.5
	seed := uint64(31)

	// Message side: dense graph.
	nDense := 400
	if quick {
		nDense = 250
	}
	dense := gen.Complete(nDense)
	direct, err := simulate.Collect(context.Background(), dense, dense, tr, seed, local.Config{Workers: -1})
	if err != nil {
		panic(err)
	}
	s1, err := simulate.Scheme1Src(context.Background(), dense, spec, p, local.Config{Seed: seed, Workers: -1}, progressHooks("E7"), nil)
	if err != nil {
		panic(err)
	}
	var rows [][]string
	rows = append(rows, []string{"msgs:complete", fmt.Sprint(dense.NumEdges()),
		"direct", fmt.Sprint(direct.Run.Messages), "scheme1", fmt.Sprint(s1.TotalMessages())})
	if s1.TotalMessages() >= direct.Run.Messages {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "scheme1 failed to beat direct flooding on the dense graph")
	}
	// Fidelity spot check.
	want, _, err := simulate.Direct(context.Background(), dense, spec, seed, local.Config{})
	if err != nil {
		panic(err)
	}
	for _, v := range []graph.NodeID{0, graph.NodeID(nDense / 2), graph.NodeID(nDense - 1)} {
		got, err := s1.Coll.Replay(spec, v)
		if err != nil {
			panic(err)
		}
		if got != want[v] {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("fidelity violated at node %d", v))
		}
	}

	// Round side: sweep n; gossip cover time must grow, scheme collection
	// rounds must not.
	sweep := []int{100, 200, 400}
	if quick {
		sweep = []int{80, 160, 320}
	}
	var gossipCovers, collectRounds []int
	for _, n := range sweep {
		g := gnpWithDegree(n, 12, uint64(n))
		_, cover, gmsgs, err := simulate.GossipCollectEarly(context.Background(), g, tr, 2000, seed, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		sw, err := simulate.Scheme1Src(context.Background(), g, spec, p, local.Config{Seed: seed, Workers: -1}, progressHooks("E7"), nil)
		if err != nil {
			panic(err)
		}
		collect := sw.Phases[1].Rounds
		gossipCovers = append(gossipCovers, cover)
		collectRounds = append(collectRounds, collect)
		rows = append(rows, []string{fmt.Sprintf("rounds:n=%d", n), fmt.Sprint(g.NumEdges()),
			"gossip-cover", fmt.Sprint(cover), "s1-collect", fmt.Sprint(collect)})
		_ = gmsgs
	}
	if gossipCovers[len(gossipCovers)-1] <= gossipCovers[0] {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "gossip cover time failed to grow with n")
	}
	for _, c := range collectRounds[1:] {
		if c != collectRounds[0] {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "scheme collection rounds depend on n")
		}
	}

	// Conductance side: barbell vs complete at equal n.
	nB := 200
	if quick {
		nB = 120
	}
	bar := gen.Barbell(nB/2, 4)
	komp := gen.Complete(bar.NumNodes())
	_, coverBar, _, err := simulate.GossipCollectEarly(context.Background(), bar, tr, 2000, seed, local.Config{Workers: -1})
	if err != nil {
		panic(err)
	}
	_, coverK, _, err := simulate.GossipCollectEarly(context.Background(), komp, tr, 2000, seed, local.Config{Workers: -1})
	if err != nil {
		panic(err)
	}
	rows = append(rows, []string{"conductance", fmt.Sprint(bar.NumNodes()),
		"gossip-barbell", fmt.Sprint(coverBar), "gossip-complete", fmt.Sprint(coverK)})
	if coverBar <= coverK {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "gossip showed no conductance sensitivity")
	}

	rep.Table = stats.Table([]string{"measurement", "m", "a", "value", "b", "value"}, rows)
	rep.Notes = append(rep.Notes,
		"scheme-1 total rounds include the one-off spanner construction; the recurring per-simulation cost is the collection's α·t rounds, constant in n",
		"at this scale α=17 exceeds log n, so gossip's absolute rounds can be lower; the claim under test is the growth shape (constant vs growing in n)")
	return rep
}

// E8TwoStage runs Theorem 3's second scheme: Sampler's spanner simulates
// Baswana–Sen message-free, and the resulting better spanner carries the
// final collection.
func E8TwoStage(quick bool) Report {
	rep := Report{
		ID:    "E8",
		Title: "two-stage message reduction (Theorem 3, second bullet)",
		Claim: "the stage-2 spanner is built without its Ω(m) messages and has better stretch, shrinking the per-t collection cost",
		Pass:  true,
	}
	n := 300
	if quick {
		n = 150
	}
	g := gnpWithDegree(n, float64(n)/5, 11)
	const tr, bsK = 4, 2
	seed := uint64(41)
	spec := algorithms.MaxID(tr)
	cfg := local.Config{Seed: seed, Workers: -1}
	s2, err := simulate.Scheme2WithSrc(context.Background(), g, spec, simulate.Scheme1Params(1), mustConstruction(spanner.BaswanaSenConstruction(bsK)), cfg, progressHooks("E8"), nil)
	if err != nil {
		panic(err)
	}
	s1, err := simulate.Scheme1Src(context.Background(), g, spec, simulate.Scheme1Params(1), cfg, progressHooks("E8"), nil)
	if err != nil {
		panic(err)
	}
	var rows [][]string
	for _, ph := range s2.Phases {
		rows = append(rows, []string{"scheme2", ph.Name, fmt.Sprint(ph.Rounds), fmt.Sprint(ph.Messages)})
	}
	for _, ph := range s1.Phases {
		rows = append(rows, []string{"scheme1", ph.Name, fmt.Sprint(ph.Rounds), fmt.Sprint(ph.Messages)})
	}
	rep.Table = stats.Table([]string{"scheme", "phase", "rounds", "messages"}, rows)

	// Stage-2 spanner must be a valid (2k'−1)-spanner, and its stretch beats
	// the stage-1 spanner's certified stretch.
	if _, _, err := graph.VerifySpanner(g, s2.FinalSpanner, s2.StretchUsed); err != nil {
		rep.Pass = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("stage-2 spanner invalid: %v", err))
	}
	if s2.StretchUsed >= s1.StretchUsed {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "stage-2 stretch not better than stage-1")
	}
	// Final-collection round cost: α2·t < α1·t.
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"final collection floods %d rounds (α'=%d) instead of %d (α=%d): stretch improvement pays off for every future t",
		s2.StretchUsed*tr, s2.StretchUsed, s1.StretchUsed*tr, s1.StretchUsed))
	// Fidelity spot check.
	want, _, err := simulate.Direct(context.Background(), g, spec, seed, local.Config{})
	if err != nil {
		panic(err)
	}
	got, err := s2.Coll.Replay(spec, 0)
	if err != nil {
		panic(err)
	}
	if got != want[0] {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "fidelity violated")
	}
	return rep
}

// E10PeelingAblation quantifies the paper's Section 1.3 key idea: without
// iterative peeling of parallel edges, a neighbor owning most of a node's
// edge multiset swallows the sampling budget, and neighbor discovery stalls.
// The workload makes the regime explicit: every node has one neighbor of
// multiplicity M far above the per-trial sample count, exactly the bias
// cluster contraction produces in the virtual graphs G_j.
func E10PeelingAblation(quick bool) Report {
	rep := Report{
		ID:    "E10",
		Title: "iterative peeling ablation (Section 1.3)",
		Claim: "peeling parallel edges of discovered neighbors keeps the sample budget effective under skewed multiplicities",
		Pass:  true,
	}
	n, mult := 50, 5000
	if quick {
		n, mult = 40, 2500
	}
	base := gen.Complete(n)
	// Ring-mate edges get the skewed multiplicity.
	mg := gen.Multi(base, func(e graph.Edge) int {
		if int(e.V) == (int(e.U)+1)%n {
			return mult
		}
		return 1
	})
	// Threshold above the distinct-neighbor count forces every node to go
	// for light (discover everyone) — the regime where discovery speed is
	// what matters.
	p := core.Default(1, 4)
	p.C = 2.5
	var rows [][]string
	var sPeel, sNo int64
	var fsPeel, fsNo int
	for _, disable := range []bool{false, true} {
		p.DisablePeeling = disable
		res, err := core.Build(mg, p, 17)
		if err != nil {
			panic(err)
		}
		name := "peel"
		if disable {
			name = "no-peel"
			sNo, fsNo = res.TotalSamples, res.FailSafeNodes
		} else {
			sPeel, fsPeel = res.TotalSamples, res.FailSafeNodes
		}
		_, sr, err := graph.VerifySpanner(mg, res.S, res.StretchBound())
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			name, fmt.Sprint(res.TotalSamples), fmt.Sprint(res.FailSafeNodes),
			fmt.Sprint(len(res.S)), fmt.Sprint(sr.MaxEdgeStretch),
		})
	}
	rep.Table = stats.Table([]string{"variant", "samples(≈msgs)", "failsafe", "|S|", "stretch"}, rows)
	if sNo < 2*sPeel {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "disabling peeling did not at least double the sampling cost")
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("no-peel needs %.1fx the samples of peel", float64(sNo)/float64(sPeel)))
	}
	if fsNo <= fsPeel {
		rep.Notes = append(rep.Notes, "note: fail-safe pressure did not increase (acceptable if sampling alone shows the gap)")
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("fail-safe rescued %d nodes without peeling vs %d with", fsNo, fsPeel))
	}
	return rep
}

// E11Crossover charts the free-lunch region: for fixed n, the Sampler's
// message cost stays flat as density grows, crossing below m.
func E11Crossover(quick bool) Report {
	rep := Report{
		ID:    "E11",
		Title: "free-lunch crossover vs density",
		Claim: "Sampler messages are (almost) independent of m; direct Θ(m) cost overtakes it at moderate density",
		Pass:  true,
	}
	// The crossover needs n in the several hundreds before the polylog
	// constants fade (see E4), so both modes run at n=500 and quick mode
	// trims the density sweep.
	n := 500
	fracs := []float64{0.02, 0.08, 0.25, 0.6, 1.0}
	if quick {
		fracs = []float64{0.08, 0.4, 1.0}
	}
	p := core.Default(2, 8)
	p.C = 0.5
	maxM := n * (n - 1) / 2
	var rows [][]string
	prevRatio := math.Inf(1)
	crossed := false
	for _, frac := range fracs {
		m := int(frac * float64(maxM))
		var g *graph.Graph
		if frac == 1.0 {
			g = gen.Complete(n)
		} else {
			g = gen.Connectify(gen.GNM(n, m, xrand.New(uint64(m))), xrand.New(uint64(m)))
		}
		res, err := core.BuildDistributed(g, p, 19, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		ratio := float64(res.Run.Messages) / float64(g.NumEdges())
		rows = append(rows, []string{
			fmt.Sprint(g.NumEdges()), fmt.Sprint(res.Run.Messages), stats.F(ratio),
		})
		if ratio >= prevRatio {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "msgs/m failed to decrease with density")
		}
		if ratio < 1 {
			crossed = true
		}
		prevRatio = ratio
	}
	if !crossed {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "never crossed below m at this scale")
	}
	rep.Table = stats.Table([]string{"m", "sampler-msgs", "msgs/m"}, rows)
	return rep
}

// E12GlobalCompute reproduces the paper's Section 7 concluding remark:
// with an o(m)-message spanner construction, any global function can be
// computed in O(diameter) rounds and o(m) messages. We aggregate a maximum
// over all node inputs on a dense graph, over the spanner vs directly.
func E12GlobalCompute(quick bool) Report {
	rep := Report{
		ID:    "E12",
		Title: "global aggregation over the spanner (Section 7 remark)",
		Claim: "global functions computable in O(diameter) rounds with o(m) messages",
		Pass:  true,
	}
	n := 500
	if quick {
		n = 300
	}
	g := gen.Complete(n)
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((i*31)%997 + 1)
	}
	p := core.Default(2, 8)
	p.C = 0.5
	direct, err := globalcompute.Direct(context.Background(), g, inputs, globalcompute.Max, 1, local.Config{Workers: -1})
	if err != nil {
		panic(err)
	}
	span, err := globalcompute.OverSpanner(context.Background(), g, inputs, globalcompute.Max, 1, p, 21, local.Config{Workers: -1})
	if err != nil {
		panic(err)
	}
	want := inputs[0]
	for _, v := range inputs[1:] {
		if v > want {
			want = v
		}
	}
	for v := range direct.Values {
		if direct.Values[v] != want || span.Values[v] != want {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "wrong aggregate")
			break
		}
	}
	rows := [][]string{
		{"direct", fmt.Sprint(g.NumEdges()), fmt.Sprint(direct.TotalMessages()), fmt.Sprint(direct.TotalRounds())},
		{"spanner", fmt.Sprint(span.HostEdges), fmt.Sprint(span.TotalMessages()), fmt.Sprint(span.TotalRounds())},
	}
	rep.Table = stats.Table([]string{"pipeline", "host-edges", "messages", "rounds"}, rows)
	if span.TotalMessages() >= direct.TotalMessages() {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "spanner pipeline did not reduce messages")
	}
	rep.Notes = append(rep.Notes, "spanner messages include the one-off construction; rounds grow by the stretch factor on the wave phase")
	return rep
}

// E13BitComplexity measures what the LOCAL model's free message size is
// buying: the distributed Sampler's *message* count is o(m), but its query
// replies carry whole boundary sets, so its *word* count (payload units,
// one unit per edge/node ID) behaves like Θ(m) — an honest accounting of
// where the paper's "free lunch" is free (messages, rounds) and where it is
// not (bits; the paper never claims it is). CONGEST-minded readers should
// look here first.
func E13BitComplexity(quick bool) Report {
	rep := Report{
		ID:    "E13",
		Title: "message vs word complexity of the distributed Sampler",
		Claim: "messages are o(m) while payload words stay Ω(m): the lunch is free in messages and rounds, not bits",
		Pass:  true,
	}
	sizes := []int{200, 400, 800}
	if quick {
		sizes = []int{150, 300}
	}
	p := core.Default(2, 8)
	p.C = 0.5
	var rows [][]string
	var prevMsgRatio = math.Inf(1)
	for _, n := range sizes {
		g := gen.Complete(n)
		res, err := core.BuildDistributed(g, p, 1, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		m := float64(g.NumEdges())
		msgRatio := float64(res.Run.Messages) / m
		wordRatio := float64(res.Run.PayloadUnits) / m
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(res.Run.Messages), stats.F(msgRatio),
			fmt.Sprint(res.Run.PayloadUnits), stats.F(wordRatio),
		})
		if msgRatio >= prevMsgRatio {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "message ratio failed to decrease")
		}
		prevMsgRatio = msgRatio
		if wordRatio < 1 {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "words dropped below m — boundary accounting looks broken")
		}
	}
	rep.Table = stats.Table([]string{"n", "m", "msgs", "msgs/m", "words", "words/m"}, rows)
	rep.Notes = append(rep.Notes,
		"a unit is one O(log n)-bit word (edge ID, node ID, flag); boundary sets in query replies dominate the word count",
		"this is expected: under CONGEST KT0 even global tasks need Ω(m) messages [KPPRT15]; the paper's point is the LOCAL model's message count")
	return rep
}

// E14SpannerQuality prices the message-efficiency: at a matched stretch
// bound, how much larger is Sampler's spanner than the classic greedy
// spanner's and the distributed Baswana–Sen protocol's (run directly)?
func E14SpannerQuality(quick bool) Report {
	rep := Report{
		ID:    "E14",
		Title: "spanner quality at matched stretch",
		Claim: "message-efficiency costs a constant-factor size premium, not an asymptotic one",
		Pass:  true,
	}
	n := 400
	if quick {
		n = 200
	}
	var rows [][]string
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", gen.Complete(n)},
		{"gnp-dense", gnpWithDegree(n, float64(n)/4, 5)},
	} {
		g := tc.g
		// Sampler at k=1: stretch bound 5. Match greedy and BS at stretch 5
		// (k'=3: 2k'−1 = 5).
		p := core.Default(1, 4)
		p.C = 0.5
		samp, err := core.Build(g, p, 3)
		if err != nil {
			panic(err)
		}
		bsOuts, _, err := simulate.Direct(context.Background(), g, mustConstruction(spanner.BaswanaSenConstruction(3)).Spec, 3, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		bs := spanner.Edges(bsOuts)
		greedy, err := spanner.Greedy(g, 3)
		if err != nil {
			panic(err)
		}
		_, srS, err := graph.VerifySpanner(g, samp.S, 5)
		if err != nil {
			panic(err)
		}
		_, srB, err := graph.VerifySpanner(g, bs, 5)
		if err != nil {
			panic(err)
		}
		_, srG, err := graph.VerifySpanner(g, greedy.S, 5)
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			tc.name, fmt.Sprint(g.NumEdges()),
			fmt.Sprintf("%d (max %d)", len(samp.S), srS.MaxEdgeStretch),
			fmt.Sprintf("%d (max %d)", len(bs), srB.MaxEdgeStretch),
			fmt.Sprintf("%d (max %d)", len(greedy.S), srG.MaxEdgeStretch),
			stats.F(float64(len(samp.S)) / float64(len(greedy.S))),
		})
		if len(samp.S) > 60*len(greedy.S) {
			rep.Pass = false
			rep.Notes = append(rep.Notes, tc.name+": Sampler's size premium over greedy exceeds any reasonable constant")
		}
	}
	rep.Table = stats.Table([]string{"graph", "m", "sampler@5", "baswana-sen@5", "greedy@5", "sampler/greedy"}, rows)
	rep.Notes = append(rep.Notes, "greedy is the centralized quality yardstick (no message-efficient analogue); the premium pays for o(m) messages")
	return rep
}

// E15ElkinNeimanStage reproduces the paper's Section 7 improvement remark:
// swapping the simulated off-the-shelf construction from Baswana–Sen (O(k²)
// rounds) to Elkin–Neiman (k+O(1) rounds) shrinks the two-stage scheme's
// middle phase, at the same stage-2 stretch.
func E15ElkinNeimanStage(quick bool) Report {
	rep := Report{
		ID:    "E15",
		Title: "two-stage scheme with Elkin–Neiman (Section 7 improvement)",
		Claim: "the Elkin–Neiman stage costs fewer middle-phase rounds than Baswana–Sen at equal stretch",
		Pass:  true,
	}
	n := 300
	if quick {
		n = 150
	}
	g := gnpWithDegree(n, float64(n)/5, 21)
	const tr, k2 = 4, 2
	seed := uint64(51)
	spec := algorithms.MaxID(tr)
	p := simulate.Scheme1Params(1)

	cfg := local.Config{Seed: seed, Workers: -1}
	bsc := mustConstruction(spanner.BaswanaSenConstruction(k2))
	enc := mustConstruction(spanner.ElkinNeimanConstruction(k2))
	bs, err := simulate.Scheme2WithSrc(context.Background(), g, spec, p, bsc, cfg, progressHooks("E15"), nil)
	if err != nil {
		panic(err)
	}
	en, err := simulate.Scheme2WithSrc(context.Background(), g, spec, p, enc, cfg, progressHooks("E15"), nil)
	if err != nil {
		panic(err)
	}
	var rows [][]string
	for _, tc := range []struct {
		name string
		r    *simulate.SchemeResult
	}{{"baswana-sen", bs}, {"elkin-neiman", en}} {
		for _, ph := range tc.r.Phases {
			rows = append(rows, []string{tc.name, ph.Name, fmt.Sprint(ph.Rounds), fmt.Sprint(ph.Messages)})
		}
		rows = append(rows, []string{tc.name, "H' size", fmt.Sprint(len(tc.r.FinalSpanner)), "stretch " + fmt.Sprint(tc.r.StretchUsed)})
		if _, _, err := graph.VerifySpanner(g, tc.r.FinalSpanner, tc.r.StretchUsed); err != nil {
			rep.Pass = false
			rep.Notes = append(rep.Notes, tc.name+": invalid stage-2 spanner: "+err.Error())
		}
	}
	rep.Table = stats.Table([]string{"stage-2", "phase", "rounds", "messages"}, rows)
	if en.Phases[1].Rounds >= bs.Phases[1].Rounds {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "EN stage did not save rounds")
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"middle phase: EN %d rounds vs BS %d (budgets %d vs %d times the stage-1 stretch)",
			en.Phases[1].Rounds, bs.Phases[1].Rounds, enc.T, bsc.T))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("messages: %s %d, collect %d (EN) vs %s %d, collect %d (BS)",
		en.Phases[1].Name, en.Phases[1].Messages, en.Phases[2].Messages,
		bs.Phases[1].Name, bs.Phases[1].Messages, bs.Phases[2].Messages))
	// Fidelity spot check for the EN pipeline.
	want, _, err := simulate.Direct(context.Background(), g, spec, seed, local.Config{})
	if err != nil {
		panic(err)
	}
	got, err := en.Coll.Replay(spec, 0)
	if err != nil {
		panic(err)
	}
	if got != want[0] {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "fidelity violated")
	}
	return rep
}
