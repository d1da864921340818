// Command simulate runs a t-round LOCAL algorithm on a generated graph
// under any execution scheme in the registry — direct execution, the
// paper's message-reduction schemes 1/2 (Baswana–Sen) / 2en (Elkin–Neiman),
// or the push–pull gossip baseline — verifies that simulated outputs match
// direct execution bit for bit, and prints the cost ledger.
//
// Schemes are addressed by registry name, so a newly registered scheme is
// runnable here without touching this file:
//
//	simulate -graph complete -n 400 -alg maxid -t 4 -scheme scheme2en -gamma 2
//
// Interrupting a run (Ctrl-C) cancels the engine's context; the simulation
// aborts mid-round.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/graph/gen"
)

func main() {
	log.SetFlags(0)
	var (
		kind      = flag.String("graph", "complete", "graph family: "+strings.Join(gen.FamilyNames(), "|"))
		n         = flag.Int("n", 300, "node count")
		deg       = flag.Float64("deg", 16, "average degree (gnp/regular/pa/expander)")
		graphPath = flag.String("graphpath", "", "edge-list file for -graph edgelist")
		alg       = flag.String("alg", "maxid", "algorithm: maxid|mis|coloring|bfs")
		t         = flag.Int("t", 4, "round budget for maxid/bfs (mis/coloring use their whp budgets)")
		scheme    = flag.String("scheme", "scheme1", "execution scheme: "+strings.Join(repro.SchemeNames(), "|"))
		gamma     = flag.Int("gamma", 1, "Sampler level parameter for the schemes")
		stageK    = flag.Int("stagek", 2, "stage-2 stretch parameter for scheme2/scheme2en")
		bandwidth = flag.Int("bandwidth", 0, "CONGEST word cap per edge per round for scheme1-congest (0 = ceil(log2 n))")
		seed      = flag.Uint64("seed", 1, "random seed")
		advName   = flag.String("adversary", "", "adversary profile: "+strings.Join(repro.AdversaryProfiles(), "|")+" (empty = flawless network)")
		repeat    = flag.Int("repeat", 1, "run the scheme this many times on one engine; repeats reuse the cached stage-1 spanner")
		progress  = flag.Bool("progress", false, "stream live per-round progress from the observer")
		nocache   = flag.Bool("nocache", false, "disable the engine's stage-1 spanner cache")
		metrics   = flag.Bool("metrics", false, "stream rounds into a bounded MetricsSink and print its JSON snapshot after the runs")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	g, err := gen.Build(gen.Spec{Family: *kind, N: *n, Degree: *deg, Seed: *seed, Path: *graphPath})
	if err != nil {
		log.Fatal(err)
	}
	spec := makeSpec(*alg, *t, g.NumNodes())
	fmt.Printf("graph: %s n=%d m=%d   algorithm: %s t=%d   scheme: %s\n",
		*kind, g.NumNodes(), g.NumEdges(), spec.Name, spec.T, *scheme)

	opts := []repro.Option{
		repro.WithSeed(*seed),
		repro.WithConcurrency(-1),
		repro.WithGamma(*gamma),
		repro.WithStageK(*stageK),
		repro.WithObserver(progressObserver(*progress)),
	}
	if *bandwidth != 0 {
		// Negative values flow through so the engine's validation rejects
		// them loudly instead of silently falling back to the auto cap.
		opts = append(opts, repro.WithBandwidth(*bandwidth))
	}
	adversarial := *advName != ""
	if adversarial {
		profile, ok := repro.NamedAdversary(*advName)
		if !ok {
			log.Fatalf("unknown adversary profile %q (shipped: %s)", *advName, strings.Join(repro.AdversaryProfiles(), ", "))
		}
		opts = append(opts, repro.WithAdversary(profile))
		fmt.Printf("adversary: %s\n", profile.Name)
	}
	if *nocache {
		opts = append(opts, repro.WithNoCache())
	}
	var sink *repro.MetricsSink
	if *metrics {
		sink = repro.NewMetricsSink(0)
		opts = append(opts, repro.WithObserver(sink))
	}
	eng := repro.NewEngine(opts...)

	direct, err := eng.Run(ctx, "direct", g, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("direct: rounds=%d messages=%d\n", direct.Rounds, direct.Messages)
	if *scheme == "direct" {
		printMetrics(sink)
		return
	}

	// Repeated runs on the one engine demonstrate the paper's amortization:
	// after the first run the cached stage-1 spanner is reused, so the
	// ledger shows "sampler(cached)" at zero cost and only the collection
	// phases remain on the bill.
	var total int64
	for i := 0; i < *repeat; i++ {
		res, err := eng.Run(ctx, *scheme, g, spec)
		if err != nil {
			fatal(err)
		}
		total += res.Messages
		if *repeat > 1 {
			fmt.Printf("run %d ", i+1)
		}
		fmt.Printf("%s: rounds=%d messages=%d (%.2fx direct)\n",
			res.Scheme, res.Rounds, res.Messages, float64(res.Messages)/float64(direct.Messages))
		for _, ph := range res.Phases {
			fmt.Printf("  %-16s rounds=%-6d messages=%d", ph.Name, ph.Rounds, ph.Messages)
			if ph.Dilation != 0 {
				fmt.Printf(" (congest dilation %.2fx)", ph.Dilation)
			}
			if ph.Dropped != 0 || ph.Duplicated != 0 {
				fmt.Printf(" (adversary dropped %d, duplicated %d)", ph.Dropped, ph.Duplicated)
			}
			fmt.Println()
		}
		if res.SpannerEdges > 0 {
			fmt.Printf("  carrier spanner: %d edges, stretch bound %d\n", res.SpannerEdges, res.StretchUsed)
		}

		// Fidelity: on a flawless network every node's simulated output must
		// equal direct execution's — any mismatch is a bug. Under an
		// adversary the free-lunch guarantee is void by design, so the
		// mismatch count is reported as a degradation measurement instead.
		match := 0
		for v := range direct.Outputs {
			if res.Outputs[v] == direct.Outputs[v] {
				match++
			} else if !adversarial {
				log.Fatalf("FIDELITY VIOLATION at node %d: simulated %v, direct %v",
					v, res.Outputs[v], direct.Outputs[v])
			}
		}
		if adversarial {
			fmt.Printf("fidelity: %d/%d node outputs match the (equally adversarial) direct run (%.1f%%)\n",
				match, len(direct.Outputs), 100*float64(match)/float64(len(direct.Outputs)))
		} else {
			fmt.Printf("fidelity: all %d node outputs match direct execution exactly\n", len(direct.Outputs))
		}
	}
	if *repeat > 1 {
		fmt.Printf("amortized: %d runs, %.1f messages/run (%.2fx direct per run)\n",
			*repeat, float64(total)/float64(*repeat),
			float64(total)/float64(*repeat)/float64(direct.Messages))
	}
	printMetrics(sink)
}

// printMetrics dumps the sink's bounded aggregates — per-phase totals,
// log-bucketed per-round message histograms, and the tail ring of most
// recent rounds — as JSON. A nil sink (no -metrics) prints nothing.
func printMetrics(sink *repro.MetricsSink) {
	if sink == nil {
		return
	}
	blob, err := json.MarshalIndent(sink.Snapshot(), "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("metrics snapshot:\n%s\n", blob)
}

// fatal distinguishes user cancellation from real failures.
func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		log.Fatal("cancelled (simulation aborted mid-round)")
	}
	log.Fatal(err)
}

// progressObserver prints the cost ledger as it streams in: every phase
// completion, and (with live set) a round ticker.
func progressObserver(live bool) repro.Observer {
	return repro.ObserverFuncs{
		OnRound: func(phase string, round int, messages int64) {
			if live && round%16 == 0 {
				fmt.Printf("  ... %-12s round %-6d %d messages\n", phase, round, messages)
			}
		},
		OnPhase: func(c repro.PhaseCost) {
			if live {
				fmt.Printf("  phase %-12s done: rounds=%-6d messages=%d\n", c.Name, c.Rounds, c.Messages)
			}
		},
	}
}

func makeSpec(alg string, t, n int) algorithms.Spec {
	switch alg {
	case "maxid":
		return algorithms.MaxID(t)
	case "mis":
		return algorithms.MIS(algorithms.MISRounds(n))
	case "coloring":
		return algorithms.Coloring(algorithms.ColoringRounds(n))
	case "bfs":
		return algorithms.BFS(0, t)
	default:
		log.Fatalf("unknown algorithm %q", alg)
		return algorithms.Spec{}
	}
}
