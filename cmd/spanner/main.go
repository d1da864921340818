// Command spanner builds a spanner with algorithm Sampler on a generated
// graph and reports size, measured stretch, and (in distributed mode) round,
// message and payload-word costs.
//
// Usage:
//
//	spanner -graph gnp -n 500 -deg 20 -k 2 -h 4 -c 0.5 -seed 1 -distributed
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func main() {
	log.SetFlags(0)
	var (
		kind        = flag.String("graph", "gnp", "graph family: "+strings.Join(gen.FamilyNames(), "|")+"|community")
		n           = flag.Int("n", 500, "node count (rounded per family)")
		deg         = flag.Float64("deg", 16, "average degree for gnp")
		k           = flag.Int("k", 2, "Sampler level parameter (stretch 2·3^k−1)")
		h           = flag.Int("h", 4, "Sampler trial parameter")
		c           = flag.Float64("c", 1, "confidence constant")
		seed        = flag.Uint64("seed", 1, "random seed")
		distributed = flag.Bool("distributed", false, "run the LOCAL-model protocol")
		repeat      = flag.Int("repeat", 1, "build this many times through one engine (distributed mode); repeats hit the spanner cache")
		trace       = flag.Bool("trace", false, "print the level-by-level hierarchy trace")
	)
	flag.Parse()

	// Ctrl-C cancels the distributed protocol mid-round.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	g := makeGraph(*kind, *n, *deg, *seed)
	fmt.Printf("graph: %s  n=%d m=%d\n", *kind, g.NumNodes(), g.NumEdges())

	p := core.Default(*k, *h)
	p.C = *c
	if *distributed && *repeat > 1 {
		// Repeated builds through one engine demonstrate the amortized
		// construction: the first build runs the protocol, the rest are
		// cache hits resolved without a single sampler round.
		var phase string
		eng := repro.NewEngine(
			repro.WithSeed(*seed),
			repro.WithConcurrency(-1),
			repro.WithSpannerParams(*k, *h, *c),
			repro.WithObserver(repro.ObserverFuncs{
				OnPhase: func(cost repro.PhaseCost) { phase = cost.Name },
			}),
		)
		var last *repro.Spanner
		for i := 0; i < *repeat; i++ {
			start := time.Now()
			sp, err := eng.BuildSpanner(ctx, g)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("build %d: %-15s |S|=%d stretch<=%d rounds=%d messages=%d wall=%s\n",
				i+1, phase, len(sp.Edges), sp.StretchBound, sp.Rounds, sp.Messages,
				time.Since(start).Round(time.Microsecond))
			last = sp
		}
		// Same guard as the single-build path: the (cached) spanner must
		// verify against its certificate.
		report(g, last.Edges, last.StretchBound)
		return
	}
	if *distributed {
		res, err := core.BuildDistributedCtx(ctx, g, p, *seed, local.Config{Workers: -1})
		if err != nil {
			log.Fatal(err)
		}
		report(g, res.S, res.StretchBound())
		fmt.Printf("rounds: %d  messages: %d (%.2f per edge)\n",
			res.Run.Rounds, res.Run.Messages, float64(res.Run.Messages)/float64(g.NumEdges()))
		fmt.Printf("words: %d\n", res.Run.PayloadUnits)
		tr := res.Traffic
		for _, kind := range []struct {
			name string
			n    int64
		}{
			{"sampler.query", tr.Query}, {"sampler.reply", tr.Reply}, {"sampler.tree", tr.Tree},
			{"sampler.probe", tr.Probe}, {"sampler.accept", tr.Accept}, {"sampler.join", tr.Join},
		} {
			fmt.Printf("  %-16s %d\n", kind.name, kind.n)
		}
		return
	}
	res, err := core.Build(g, p, *seed)
	if err != nil {
		log.Fatal(err)
	}
	report(g, res.S, res.StretchBound())
	fmt.Printf("sampling cost (query-message proxy): %d\n", res.TotalSamples)
	if res.FailSafeNodes > 0 {
		fmt.Printf("fail-safe rescued %d nodes\n", res.FailSafeNodes)
	}
	if *trace {
		fmt.Print(res.Trace())
	}
}

func report(g *graph.Graph, s map[graph.EdgeID]bool, bound int) {
	_, rep, err := graph.VerifySpanner(g, s, bound)
	if err != nil {
		log.Fatalf("spanner verification failed: %v", err)
	}
	fmt.Printf("spanner: |S|=%d (%.1f%% of m)  stretch bound %d  measured max %d mean %.2f\n",
		rep.Edges, 100*float64(rep.Edges)/float64(g.NumEdges()), bound,
		rep.MaxEdgeStretch, rep.MeanEdgeStretch)
}

func makeGraph(kind string, n int, deg float64, seed uint64) *graph.Graph {
	// community composes two gen helpers with a CLI-specific shape, so it
	// stays outside the Spec registry; everything else routes through Build.
	if kind == "community" {
		b := 6
		rng := xrand.New(seed)
		return gen.Community(b, n/b, math.Min(1, 4*deg/float64(n/b)), 0.002, rng)
	}
	spec := gen.Spec{Family: kind, N: n, Seed: seed}
	switch kind {
	case "gnp":
		spec.Degree = deg
	case "pa":
		spec.Degree = 3
	}
	g, err := gen.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
