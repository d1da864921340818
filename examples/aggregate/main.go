// Aggregate: the paper's Section 7 remark in action. Computes a global
// minimum over all node inputs on a dense graph twice — by flooding the
// graph itself, and over a Sampler spanner — and compares the bills.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"repro"
	"repro/internal/globalcompute"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func main() {
	const n, seed = 400, 23
	g := gen.ConnectedGNP(n, 0.5, xrand.New(seed))
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((i*2654435761)%100000 + 1)
	}
	diam := g.Diameter()
	fmt.Printf("graph: n=%d m=%d diameter=%d; computing global min of node inputs\n\n",
		n, g.NumEdges(), diam)

	ctx := context.Background()
	cfg := local.Config{Workers: -1}
	minOf := func(a, b int64) int64 { return min(a, b) }
	direct, directRun, err := globalcompute.Converge(ctx, g, inputs, minOf, diam, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct (flood G):   %8d messages  %4d rounds\n",
		directRun.Messages, directRun.Rounds)

	// The spanner comes from the engine, which builds and caches it exactly
	// as for every scheme; the wave deadline over it stretches G's diameter
	// by the certified stretch factor.
	eng := repro.NewEngine(repro.WithSeed(seed), repro.WithConcurrency(-1), repro.WithSpannerParams(2, 8, 0.5))
	sp, err := eng.BuildSpanner(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	h, err := sp.Subgraph(g)
	if err != nil {
		log.Fatal(err)
	}
	span, spanRun, err := globalcompute.Converge(ctx, h, inputs, minOf, diam*sp.StretchBound, cfg)
	if err != nil {
		log.Fatal(err)
	}
	spanMsgs := sp.Messages + spanRun.Messages
	fmt.Printf("spanner (Sec. 7):   %8d messages  %4d rounds  (spanner %d msgs + aggregation %d over %d edges)\n",
		spanMsgs, sp.Rounds+spanRun.Rounds, sp.Messages, spanRun.Messages, h.NumEdges())

	want := slices.Min(inputs)
	for v := range direct {
		if direct[v] != want || span[v] != want {
			log.Fatalf("node %d computed a wrong aggregate", v)
		}
	}
	fmt.Printf("\nall %d nodes agree on min=%d under both pipelines (%.2fx message ratio)\n",
		n, want, float64(spanMsgs)/float64(directRun.Messages))
}
