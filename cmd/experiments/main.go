// Command experiments regenerates the paper's evaluation: it runs every
// experiment in internal/experiments and prints its measurement table and
// PASS/FAIL verdict.
//
// Usage:
//
//	experiments [-quick] [-progress] [-run E4,E7] [-longrun N]
//
// With -progress, experiments that drive simulation pipelines stream their
// per-phase costs live through the observer hook instead of staying silent
// until the table prints.
//
// With -longrun N the suite is skipped and a single fixed N-round gossip
// schedule (broadcast.Gossip with no ball index, so it never stops early)
// runs with a streaming MetricsSink attached. Every run is O(1) memory in
// executed rounds, so the sink's JSON snapshot, the run's only per-round
// record, is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
)

func main() {
	quick := flag.Bool("quick", false, "run bench-scale configurations")
	progress := flag.Bool("progress", false, "stream live per-phase pipeline progress")
	only := flag.String("run", "", "comma-separated experiment IDs (default all)")
	longrun := flag.Int("longrun", 0, "run one N-round gossip schedule and print its MetricsSink snapshot, instead of the suite")
	flag.Parse()

	if *longrun > 0 {
		runLong(*longrun)
		return
	}

	if *progress {
		experiments.Progress = func(format string, args ...any) {
			fmt.Printf("   | "+format+"\n", args...)
		}
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	failed := 0
	for _, ex := range experiments.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		start := time.Now()
		rep := ex.Run(*quick)
		fmt.Println(rep)
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
		if !rep.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed their shape checks\n", failed)
		os.Exit(1)
	}
}

// runLong is the long-run mode: a gossip schedule of the requested length
// on a fixed sparse graph, observed only through the bounded metrics sink.
// It gives a CLI probe for the regime the sink was built for: schedules
// whose per-round counts would be too many to keep.
func runLong(rounds int) {
	g, err := gen.Build(gen.Spec{Family: "gnp", N: 64, P: 0.08, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sink := repro.NewMetricsSink(0)
	cfg := local.Config{Seed: 1, Workers: -1,
		OnRound: func(r int, m int64) { sink.RoundCompleted("gossip", r, m) }}
	start := time.Now()
	res, _, err := broadcast.Gossip(context.Background(), g, make([][]graph.EdgeID, g.NumNodes()), nil, rounds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sink.PhaseCompleted(repro.PhaseCost{Name: "gossip", Rounds: res.Run.Rounds, Messages: res.Run.Messages})
	fmt.Printf("long run: gossip schedule of %d rounds on n=%d m=%d (%.1fs)\n",
		rounds, g.NumNodes(), g.NumEdges(), time.Since(start).Seconds())
	blob, err := json.MarshalIndent(sink.Snapshot(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics snapshot:\n%s\n", blob)
}
