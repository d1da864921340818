// Aggregate: the paper's Section 7 remark in action. Computes a global
// minimum over all node inputs on a dense graph twice — by flooding the
// graph itself, and over a Sampler spanner — and compares the bills.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
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

	direct, err := globalcompute.Direct(context.Background(), g, inputs, globalcompute.Min, diam, local.Config{Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct (flood G):   %8d messages  %4d rounds\n",
		direct.TotalMessages(), direct.TotalRounds())

	p := core.Default(2, 8)
	p.C = 0.5
	span, err := globalcompute.OverSpanner(context.Background(), g, inputs, globalcompute.Min, diam, p, seed, local.Config{Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanner (Sec. 7):   %8d messages  %4d rounds  (spanner %d msgs + aggregation %d over %d edges)\n",
		span.TotalMessages(), span.TotalRounds(),
		span.SpannerRun.Messages, span.Run.Messages, span.HostEdges)

	want := inputs[0]
	for _, v := range inputs[1:] {
		if v < want {
			want = v
		}
	}
	for v := range direct.Values {
		if direct.Values[v] != want || span.Values[v] != want {
			log.Fatalf("node %d computed a wrong aggregate", v)
		}
	}
	fmt.Printf("\nall %d nodes agree on min=%d under both pipelines (%.2fx message ratio)\n",
		n, want, float64(span.TotalMessages())/float64(direct.TotalMessages()))
}
