package repro_test

// Godoc examples for the public Engine/Scheme facade. Each is
// deterministic (fixed seeds) so `go test` verifies the printed output.

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// ExampleEngine_BuildSpanner builds a spanner with the distributed Sampler
// under an option-configured engine and verifies its stretch certificate.
func ExampleEngine_BuildSpanner() {
	g := gen.ConnectedGNP(200, 0.1, xrand.New(7))
	eng := repro.NewEngine(
		repro.WithSeed(42),
		repro.WithSpannerParams(2, 4, 0),
	)
	sp, err := eng.BuildSpanner(context.Background(), g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	maxStretch, err := sp.Verify(g)
	fmt.Println("certified:", err == nil)
	fmt.Println("bound respected:", maxStretch <= sp.StretchBound)
	fmt.Println("sparser than input:", len(sp.Edges) <= g.NumEdges())
	fmt.Println("paid messages:", sp.Messages > 0)
	// Output:
	// certified: true
	// bound respected: true
	// sparser than input: true
	// paid messages: true
}

// ExampleEngine_Run simulates a 3-round algorithm through the paper's first
// message-reduction scheme, addressed by its registry name, and checks
// fidelity against direct execution.
func ExampleEngine_Run() {
	g := gen.ConnectedGNP(80, 0.1, xrand.New(3))
	spec := repro.MaxID(3)
	ctx := context.Background()
	eng := repro.NewEngine(repro.WithSeed(9), repro.WithGamma(1))

	direct, err := eng.Run(ctx, "direct", g, spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sim, err := eng.Run(ctx, "scheme1", g, spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	identical := true
	for v := range direct.Outputs {
		if direct.Outputs[v] != sim.Outputs[v] {
			identical = false
		}
	}
	fmt.Println("outputs identical:", identical)
	fmt.Println("pipeline phases:", len(sim.Phases))
	// Output:
	// outputs identical: true
	// pipeline phases: 2
}

// ExampleLookup resolves a scheme from the registry — here the Elkin–Neiman
// two-stage pipeline — and runs it with an observer streaming the phase
// ledger as it completes.
func ExampleLookup() {
	g := gen.ConnectedGNP(60, 0.12, xrand.New(5))
	scheme, err := repro.Lookup("scheme2en")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scheme:", scheme.Name())

	eng := repro.NewEngine(
		repro.WithSeed(15),
		repro.WithGamma(1),
		repro.WithStageK(2),
		repro.WithObserver(repro.ObserverFuncs{
			OnPhase: func(c repro.PhaseCost) { fmt.Println("phase done:", c.Name) },
		}),
	)
	res, err := eng.RunScheme(context.Background(), scheme, g, repro.MaxID(2))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("stretch of carrier spanner:", res.StretchUsed)
	// Output:
	// scheme: scheme2en
	// phase done: sampler
	// phase done: simulate-en
	// phase done: collect
	// stretch of carrier spanner: 3
}

// ExampleSchemes enumerates the registry — the same loop drivers and
// benchmarks use, so new schemes show up everywhere without new call sites.
func ExampleSchemes() {
	for _, s := range repro.Schemes() {
		fmt.Println(s.Name())
	}
	// Output:
	// direct
	// globalcompute
	// gossip
	// gossip-converge
	// scheme1
	// scheme1-congest
	// scheme2
	// scheme2en
}
