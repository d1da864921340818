package local

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// millionN is the scale target of the CSR core + staged-delivery work: a
// graph whose per-node maps and slice headers would previously have
// dominated memory now costs O(edges) flat arrays.
const millionN = 1 << 20

func buildMillion(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := gen.Build(gen.Spec{Family: "cycle", N: millionN})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// floodProto sends one message per port per round: on the million-node
// cycle that is ~2M messages per round, the "1M nodes, ~1M messages"
// headline workload.
type floodProto struct{}

func (floodProto) Step(env *Env, round int, inbox []Message) {
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, "x")
	}
}

// BenchmarkMillionNodeFloodRound prices one flood round at the million-node
// scale. A single Run executes all b.N rounds, so ns/op is the marginal
// round cost (the one-time graph build and engine setup amortize away) and
// B/op is the per-round steady-state footprint, which the zero-allocation
// delivery contract pins near zero — the O(edges) engine arrays are set-up
// cost, not per-round cost. CI gates both (see cmd/bench -ceiling).
func BenchmarkMillionNodeFloodRound(b *testing.B) {
	g := buildMillion(b)
	b.ReportAllocs()
	// Workers is pinned (not GOMAXPROCS) so allocs/op is identical on every
	// machine — the committed baseline gates it with zero tolerance.
	res, err := Run(g, func(graph.NodeID) Protocol { return floodProto{} },
		Config{Seed: 1, MaxRounds: b.N, NoLedger: true, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Messages)/float64(b.N), "msgs/round")
}

// TestMillionNodeFloodRound is the correctness side of the benchmark: two
// flood rounds at full scale deliver exactly 2 messages per node per round,
// on both engines. Skipped with -short: it allocates the full O(edges)
// engine state.
func TestMillionNodeFloodRound(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run in -short mode")
	}
	g := buildMillion(t)
	for _, workers := range []int{0, -1} {
		res, err := Run(g, func(graph.NodeID) Protocol { return floodProto{} },
			Config{Seed: 1, MaxRounds: 2, NoLedger: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// 2 rounds x 2 ports per node x 2^20 nodes.
		if want := int64(2 * 2 * millionN); res.Messages != want {
			t.Fatalf("workers=%d: %d messages, want %d", workers, res.Messages, want)
		}
	}
}
