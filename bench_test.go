package repro_test

// One benchmark per experiment in internal/experiments (experiments.All is
// the index). Each runs the experiment's quick configuration and fails if
// the paper-shape check does not hold, so `go test -bench=.` doubles as a
// full reproduction pass at bench scale. The full-size tables come from
// cmd/experiments.

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/simulate"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var ex experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			ex = e
		}
	}
	if ex.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep := ex.Run(true)
		if !rep.Pass {
			b.Fatalf("experiment %s failed its shape check:\n%s", id, rep)
		}
	}
}

func BenchmarkE1SpannerSize(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Stretch(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3Rounds(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4Messages(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5Baseline(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6Hierarchy(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7Scheme1(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8TwoStage(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE10PeelingAblation(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Crossover(b *testing.B)       { benchExperiment(b, "E11") }

// BenchmarkSchemes enumerates the scheme registry: every registered
// execution strategy runs the same workload under one engine, with the
// message cost surfaced as a custom metric by a registered observer — no
// hardcoded call sites, so a newly registered scheme is benchmarked for
// free. The spanner cache is disabled so each iteration prices the full
// pipeline; BenchmarkSchemesAmortized measures the cached steady state.
func BenchmarkSchemes(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			var msgs int64
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithConcurrency(-1),
				repro.WithNoCache(),
				repro.WithObserver(repro.ObserverFuncs{
					OnPhase: func(c repro.PhaseCost) { msgs += c.Messages },
				}),
			)
			for i := 0; i < b.N; i++ {
				msgs = 0
				if _, err := eng.RunScheme(context.Background(), s, g, spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkSchemesUnderDrop prices the adversary layer: the same workload
// as BenchmarkSchemes under the shipped drop10 profile (10% message loss),
// with the honest bill and the adversary's share surfaced as custom
// metrics. The scheme slice is the profile-tolerant subset — schemes whose
// convergecast stages legitimately fail under loss are pinned by the
// golden suite instead.
func BenchmarkSchemesUnderDrop(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	profile, ok := repro.NamedAdversary("drop10")
	if !ok {
		b.Fatal("drop10 profile missing from the registry")
	}
	for _, name := range []string{"direct", "scheme1", "scheme2", "gossip"} {
		b.Run(name, func(b *testing.B) {
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithConcurrency(-1),
				repro.WithNoCache(),
				repro.WithAdversary(profile),
			)
			var msgs, dropped int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(context.Background(), name, g, spec)
				if err != nil {
					b.Fatal(err)
				}
				msgs, dropped = res.Messages, 0
				for _, ph := range res.Phases {
					dropped += ph.Dropped
				}
			}
			b.ReportMetric(float64(msgs), "msgs/op")
			b.ReportMetric(float64(dropped), "dropped/op")
		})
	}
}

// BenchmarkSchemesAmortized demonstrates the amortization curve the paper
// predicts for repeated runs: for every sampler-based scheme, "cold"
// reconstructs the stage-1 spanner each iteration (WithNoCache) while
// "warm" reuses one engine whose cache was primed before the timer — the
// paper's intended experiment-sweep usage, where only the collection phases
// remain on the per-run bill.
func BenchmarkSchemesAmortized(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		name := s.Name()
		if name == "direct" || name == "gossip" || name == "gossip-converge" {
			continue // no stage-1 construction to amortize
		}
		for _, mode := range []string{"cold", "warm"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				opts := []repro.Option{
					repro.WithSeed(5),
					repro.WithConcurrency(-1),
				}
				if mode == "cold" {
					opts = append(opts, repro.WithNoCache())
				}
				eng := repro.NewEngine(opts...)
				var msgs int64
				run := func() {
					res, err := eng.RunScheme(context.Background(), s, g, spec)
					if err != nil {
						b.Fatal(err)
					}
					msgs = res.Messages
				}
				if mode == "warm" {
					run() // prime the cache outside the timer
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(msgs), "msgs/op")
			})
		}
	}
}

// BenchmarkLongGossipMemory demonstrates that a run's memory does not grow
// with its rounds on a long gossip schedule (the regime the streaming
// metrics sink exists for): run with -benchmem and compare the two round
// scales. A run keeps only totals, so a 10x longer schedule costs the
// same B/op and allocs/op, while rounds and messages grow with it.
func BenchmarkLongGossipMemory(b *testing.B) {
	g := gen.ConnectedGNP(24, 0.2, xrand.New(6))
	payloads := make([][]repro.EdgeID, g.NumNodes())
	for _, rounds := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := broadcast.Gossip(context.Background(), g, payloads, nil, rounds, local.Config{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if res.Run.Rounds != rounds+1 {
					b.Fatalf("executed %d rounds, want %d", res.Run.Rounds, rounds+1)
				}
			}
		})
	}
}

// Micro-benchmarks of the building blocks, with message costs surfaced as
// custom metrics.

func BenchmarkSamplerCentralized(b *testing.B) {
	g := gen.ConnectedGNP(2000, 0.02, xrand.New(1))
	b.ResetTimer()
	var samples int64
	for i := 0; i < b.N; i++ {
		res, err := core.Build(g, core.Default(2, 4), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		samples = res.TotalSamples
	}
	b.ReportMetric(float64(samples), "samples/op")
}

func BenchmarkSamplerDistributed(b *testing.B) {
	g := gen.ConnectedGNP(600, 0.05, xrand.New(2))
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.BuildDistributed(context.Background(), g, core.Default(2, 4), uint64(i), local.Config{Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkSamplerDistributedTorus is the sparse regime the GNP benchmark
// above misses: on a 36×36 torus with the facade's scheme1 parameters a
// root draws far more samples per trial than its pool holds.
func BenchmarkSamplerDistributedTorus(b *testing.B) {
	g := gen.Torus(36, 36)
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.BuildDistributed(context.Background(), g, simulate.Scheme1Params(1), uint64(i), local.Config{Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkSamplerDistributedComplete is the dense cold regime the torus
// row misses: on K_512 the replies carry large cluster boundaries, and
// peeling them out of X_v is the root's main cost. It runs the sequential
// engine, so the row measures the protocol, not the scheduler.
func BenchmarkSamplerDistributedComplete(b *testing.B) {
	g := gen.Complete(512)
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.BuildDistributed(context.Background(), g, simulate.Scheme1Params(1), uint64(i), local.Config{})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

func BenchmarkLocalEngineSequential(b *testing.B) {
	benchLocalEngine(b, 0)
}

func BenchmarkLocalEngineConcurrent(b *testing.B) {
	benchLocalEngine(b, -1)
}

// The engine benchmarks always report allocations: they are the perf
// trajectory's hot-path series (BENCH_10.json) and the subject of CI's
// allocation-regression gate (cmd/bench -ceiling).
func benchLocalEngine(b *testing.B, workers int) {
	b.Helper()
	g := gen.ConnectedGNP(2000, 0.01, xrand.New(3))
	spec := repro.MaxID(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := simulate.Direct(context.Background(), g, spec, uint64(i), local.Config{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectOnSpanner(b *testing.B) {
	g := gen.Complete(300)
	sp, err := core.Build(g, core.Default(2, 4), 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := g.SubgraphByEdges(sp.S)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		coll, err := simulate.Collect(context.Background(), g, h, sp.StretchBound()*2, uint64(i), local.Config{Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		msgs = coll.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

func BenchmarkReplay(b *testing.B) {
	g := gen.ConnectedGNP(300, 0.05, xrand.New(4))
	spec := repro.MaxID(3)
	coll, err := simulate.Collect(context.Background(), g, g, spec.T, 7, local.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.Replay(spec, repro.NodeID(i%g.NumNodes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayAll replays every node of BenchmarkReplay's collection in
// one sequential sweep: the facade's replay phase at WithConcurrency(0).
// Three rounds span most of this GNP: 282 of its 300 nodes hear their whole
// component, a closed heard set, so the sweep times one shared run of the
// component for those and a light-cone replay for each of the other 18.
// Its allocs/op is a CI allocation gate (cmd/bench -ceiling): a return to
// one replay per node, or to per-replay engine setup, multiplies it.
func BenchmarkReplayAll(b *testing.B) {
	g := gen.ConnectedGNP(300, 0.05, xrand.New(4))
	spec := repro.MaxID(3)
	coll, err := simulate.Collect(context.Background(), g, g, spec.T, 7, local.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.ReplayAllN(context.Background(), spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayAllSparse is the replay sweep in the paper's regime, t
// much smaller than the diameter: every node of a GNP(1024, avg deg 8)
// collection, collected on itself, replays MaxID(3) in one sequential
// sweep. Most of each replay graph lies outside the ball's light cone, so
// this is where per-node step horizons pay off. No heard set is closed, so
// every node replays its light cone: this is the light-cone sweep's
// benchmark and CI allocation gate, and the control for shared replay,
// which must not cost it anything.
func BenchmarkReplayAllSparse(b *testing.B) {
	g := gen.ConnectedGNP(1024, 8.0/1023, xrand.New(4))
	spec := repro.MaxID(3)
	coll, err := simulate.Collect(context.Background(), g, g, spec.T, 7, local.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.ReplayAllN(context.Background(), spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayAllComplete is the replay sweep in the dense regime: every
// node of K_112, collected on itself, replays MaxID(2) in one sequential
// sweep. Every node hears the whole network, a closed heard set, so the
// sweep runs K_112 once and hands all 112 nodes their outputs from that
// run; the collection pairs its edge owners and labels their components on
// the first sweep only. Its allocs/op is a CI allocation gate: a return to
// one replay per node multiplies it.
func BenchmarkReplayAllComplete(b *testing.B) {
	g := gen.Complete(112)
	spec := repro.MaxID(2)
	coll, err := simulate.Collect(context.Background(), g, g, spec.T, 7, local.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.ReplayAllN(context.Background(), spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12GlobalCompute(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13BitComplexity(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14SpannerQuality(b *testing.B) { benchExperiment(b, "E14") }

func BenchmarkE15ElkinNeimanStage(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16RegistryFidelity(b *testing.B) { benchExperiment(b, "E16") }
