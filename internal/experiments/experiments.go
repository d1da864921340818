// Package experiments regenerates the paper's evaluation. The paper is a
// theory paper — its "tables and figures" are the quantitative claims of its
// theorems — so each experiment measures one claim and checks its *shape*
// (who wins, approximate exponents, bounds never violated), not absolute
// constants. All is the index; cmd/experiments runs them and prints the
// tables.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	// Claim is the paper statement under test.
	Claim string
	// Table is the rendered measurement table.
	Table string
	// Notes carry derived quantities (fits, ratios) and caveats.
	Notes []string
	// Pass records whether the claim's shape held.
	Pass bool
}

func (r Report) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	s := fmt.Sprintf("== %s: %s [%s]\n   claim: %s\n%s", r.ID, r.Title, status, r.Claim, r.Table)
	for _, n := range r.Notes {
		s += "   note: " + n + "\n"
	}
	return s
}

// Experiment is a named, runnable experiment. Quick mode shrinks workloads
// to bench scale.
type Experiment struct {
	ID  string
	Run func(quick bool) Report
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1SpannerSize},
		{"E2", E2Stretch},
		{"E3", E3Rounds},
		{"E4", E4Messages},
		{"E5", E5Baseline},
		{"E6", E6Hierarchy},
		{"E7", E7Scheme1},
		{"E8", E8TwoStage},
		{"E10", E10PeelingAblation},
		{"E11", E11Crossover},
		{"E12", E12GlobalCompute},
		{"E13", E13BitComplexity},
		{"E14", E14SpannerQuality},
		{"E15", E15ElkinNeimanStage},
		{"E16", E16RegistryFidelity},
		{"E17", E17DegradationUnderAdversity},
	}
}

// gnpWithDegree builds a connected G(n,p) with expected average degree deg.
func gnpWithDegree(n int, deg float64, seed uint64) *graph.Graph {
	p := deg / float64(n-1)
	return gen.ConnectedGNP(n, p, xrand.New(seed))
}

// E1SpannerSize measures Theorem 2's size bound |S| = Õ(n^{1+δ}),
// δ = 1/(2^{k+1}−1): the fitted exponent of |S| against n must track 1+δ
// and decrease in k. The workload's degree grows as 4·n^{1/3} so the bound
// binds (on sparser graphs the spanner is trivially the whole graph and the
// bound is vacuous).
func E1SpannerSize(quick bool) Report {
	sizes := []int{1000, 2000, 4000, 8000}
	if quick {
		sizes = []int{500, 1000, 2000}
	}
	ks := []int{1, 2, 3}
	rep := Report{
		ID:    "E1",
		Title: "spanner size scaling (Theorem 2)",
		Claim: "|S| = Õ(n^{1+1/(2^{k+1}-1)}); size exponent decreases with k",
		Pass:  true,
	}
	var rows [][]string
	prevFit := math.Inf(1)
	for _, k := range ks {
		p := core.Default(k, 4)
		p.C = 0.25
		var xs, ys []float64
		for _, n := range sizes {
			g := gnpWithDegree(n, 4*math.Cbrt(float64(n)), uint64(n))
			res, err := core.Build(g, p, uint64(17*k+n))
			if err != nil {
				panic(err)
			}
			xs = append(xs, float64(n))
			ys = append(ys, float64(len(res.S)))
			rows = append(rows, []string{
				fmt.Sprint(k), fmt.Sprint(n), fmt.Sprint(g.NumEdges()),
				fmt.Sprint(len(res.S)),
				stats.F(float64(len(res.S)) / math.Pow(float64(n), p.PredictedSizeExponent())),
			})
		}
		fit, _ := stats.FitPowerLaw(xs, ys)
		pred := p.PredictedSizeExponent()
		rows = append(rows, []string{fmt.Sprint(k), "fit", "-", stats.F(fit), "pred " + stats.F(pred)})
		rep.Notes = append(rep.Notes, fmt.Sprintf("k=%d: fitted exponent %.3f vs predicted %.3f (Õ hides log factors)", k, fit, pred))
		if math.Abs(fit-pred) > 0.25 {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("k=%d exponent off by more than 0.25", k))
		}
		if fit >= prevFit {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "size exponent failed to decrease with k")
		}
		prevFit = fit
	}
	rep.Table = stats.Table([]string{"k", "n", "m", "|S|", "|S|/n^(1+d)"}, rows)
	return rep
}

// E2Stretch measures Theorem 9: the spanner's stretch never exceeds
// 2·3^k − 1, across graph families.
func E2Stretch(quick bool) Report {
	rep := Report{
		ID:    "E2",
		Title: "stretch bound (Theorem 9)",
		Claim: "H is a (2·3^k - 1)-spanner: max_{(u,v) in E} dist_H(u,v) <= 2·3^k - 1",
		Pass:  true,
	}
	n := 600
	if quick {
		n = 200
	}
	workloads := map[string]*graph.Graph{
		"gnp":       gnpWithDegree(n, 12, 1),
		"grid":      gen.Grid(isqrt(n), isqrt(n)),
		"hypercube": gen.Hypercube(9),
		"community": gen.Community(6, n/6, math.Min(1, 24/float64(n/6)), 0.002, xrand.New(2)),
		"complete":  gen.Complete(n / 2), // dense: the spanner actually prunes here
	}
	if quick {
		workloads["hypercube"] = gen.Hypercube(7)
	}
	var rows [][]string
	for _, k := range []int{1, 2, 3} {
		for name, g := range workloads {
			p := core.Default(k, 2)
			p.C = 0.5
			res, err := core.Build(g, p, uint64(100+k))
			if err != nil {
				panic(err)
			}
			_, sr, err := graph.VerifySpanner(g, res.S, res.StretchBound())
			if err != nil {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("k=%d %s: %v", k, name, err))
				continue
			}
			rows = append(rows, []string{
				fmt.Sprint(k), name, fmt.Sprint(res.StretchBound()),
				fmt.Sprint(sr.MaxEdgeStretch), stats.F(sr.MeanEdgeStretch),
				fmt.Sprintf("%d/%d", len(res.S), g.NumEdges()),
			})
			if sr.MaxEdgeStretch > res.StretchBound() {
				rep.Pass = false
			}
		}
	}
	rep.Table = stats.Table([]string{"k", "graph", "bound", "max", "mean", "|S|/m"}, rows)
	rep.Notes = append(rep.Notes, "measured stretch sits far below the worst-case bound, as expected")
	return rep
}

// E3Rounds measures Theorem 11's round complexity: the distributed Sampler
// runs on a fixed schedule of O(3^k·h) rounds, independent of n and m.
func E3Rounds(quick bool) Report {
	rep := Report{
		ID:    "E3",
		Title: "round complexity (Theorem 11)",
		Claim: "distributed Sampler takes O(3^k·h) rounds, independent of n",
		Pass:  true,
	}
	ns := []int{200, 400}
	if quick {
		ns = []int{150}
	}
	var rows [][]string
	for _, k := range []int{1, 2} {
		for _, h := range []int{1, 2, 4} {
			var lastRounds int
			roundsByN := map[int]int{}
			for _, n := range ns {
				g := gnpWithDegree(n, 10, uint64(n))
				res, err := core.BuildDistributed(g, core.Default(k, h), 5, local.Config{Workers: -1})
				if err != nil {
					panic(err)
				}
				roundsByN[n] = res.Run.Rounds
				lastRounds = res.Run.Rounds
				if res.Run.Rounds != res.ScheduleRounds {
					rep.Pass = false
				}
			}
			for _, n := range ns[1:] {
				if roundsByN[n] != roundsByN[ns[0]] {
					rep.Pass = false
					rep.Notes = append(rep.Notes, "rounds depend on n")
				}
			}
			shape := float64(lastRounds) / (math.Pow(3, float64(k)) * float64(h))
			rows = append(rows, []string{
				fmt.Sprint(k), fmt.Sprint(h), fmt.Sprint(lastRounds), stats.F(shape),
			})
			if lastRounds > 45*int(math.Pow(3, float64(k)))*h {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("k=%d h=%d: %d rounds outside O(3^k h) shape", k, h, lastRounds))
			}
		}
	}
	rep.Table = stats.Table([]string{"k", "h", "rounds", "rounds/(3^k·h)"}, rows)
	rep.Notes = append(rep.Notes, "rounds are a deterministic schedule: same value for every n (checked)")
	return rep
}

// E4Messages measures Theorem 11's message complexity on complete graphs:
// Õ(n^{1+δ+1/h}), i.e. o(m) — the headline.
func E4Messages(quick bool) Report {
	rep := Report{
		ID:    "E4",
		Title: "message complexity (Theorem 11)",
		Claim: "distributed Sampler sends Õ(n^{1+δ+1/h}) messages — o(m) on dense graphs",
		Pass:  true,
	}
	sizes := []int{200, 400, 800}
	if quick {
		sizes = []int{150, 300}
	}
	p := core.Default(2, 8)
	p.C = 0.5
	var rows [][]string
	var xs, ys []float64
	prevRatio := math.Inf(1)
	for _, n := range sizes {
		g := gen.Complete(n)
		res, err := core.BuildDistributed(g, p, 1, local.Config{Workers: -1})
		if err != nil {
			panic(err)
		}
		m := float64(g.NumEdges())
		ratio := float64(res.Run.Messages) / m
		xs = append(xs, float64(n))
		ys = append(ys, float64(res.Run.Messages))
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(g.NumEdges()), fmt.Sprint(res.Run.Messages),
			stats.F(ratio),
			fmt.Sprint(res.Traffic.Query),
			fmt.Sprint(res.Traffic.Tree),
		})
		if ratio >= prevRatio {
			rep.Pass = false
			rep.Notes = append(rep.Notes, "messages/m failed to decrease with n")
		}
		prevRatio = ratio
	}
	fit, _ := stats.FitPowerLaw(xs, ys)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("fitted message exponent %.2f vs predicted %.2f (and far from Θ(m)=n^2)",
			fit, p.PredictedMessageExponent()))
	if fit > 1.8 {
		rep.Pass = false
	}
	rep.Table = stats.Table([]string{"n", "m", "msgs", "msgs/m", "queries", "tree"}, rows)
	return rep
}

func isqrt(n int) int { return int(math.Sqrt(float64(n))) }
