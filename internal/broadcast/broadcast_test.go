package broadcast

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// fixedGossip runs the fixed-schedule reference: Gossip with no ball index.
func fixedGossip(t testing.TB, g *graph.Graph, payloads [][]graph.EdgeID, rounds int, cfg local.Config) *Result {
	t.Helper()
	res, cover, err := Gossip(context.Background(), g, payloads, nil, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cover != -1 {
		t.Fatalf("fixed schedule reported cover round %d, want -1", cover)
	}
	return res
}

// The fixed-schedule reference for the early stop: cover rounds found by
// running the fixed schedule clipped at r rounds, billed from its OnRound
// stream. Nodes learn before they send, so the clipped run's Known is the
// full schedule's Known through round r, with or without an adversary.
// Gossip itself stops at its cover round and bills its own run; the tests
// check it against these.

// coverRounds returns, per node, the earliest round r <= rounds by which
// every ball member's rumor had arrived under the fixed schedule, or -1 if
// no such round exists.
func coverRounds(t testing.TB, g *graph.Graph, payloads [][]graph.EdgeID, bi *BallIndex, rounds int, cfg local.Config) []int {
	t.Helper()
	out := make([]int, bi.Nodes())
	for v := range out {
		out[v] = -1
	}
	left := len(out)
	for r := 0; r <= rounds && left > 0; r++ {
		known := fixedGossip(t, g, payloads, r, cfg).Known
		for v := range out {
			if out[v] < 0 && heardBall(bi, graph.NodeID(v), known[v]) {
				out[v] = r
				left--
			}
		}
	}
	return out
}

// heardBall reports whether known holds the rumor of every member of v's
// ball.
func heardBall(bi *BallIndex, v graph.NodeID, known []graph.NodeID) bool {
	for _, u := range bi.Members(v) {
		if _, ok := slices.BinarySearch(known, u); !ok {
			return false
		}
	}
	return true
}

// coverRound returns the earliest round r <= rounds by which every node had
// heard the rumor of every member of its ball under the fixed schedule, or
// -1 if no such round exists.
func coverRound(t testing.TB, g *graph.Graph, payloads [][]graph.EdgeID, bi *BallIndex, rounds int, cfg local.Config) int {
	t.Helper()
	worst := 0
	for _, r := range coverRounds(t, g, payloads, bi, rounds, cfg) {
		if r < 0 {
			return -1
		}
		worst = max(worst, r)
	}
	return worst
}

// onRounds returns cfg with an OnRound hook that appends each round's
// message count to *rounds, in round order: the per-round record a run
// streams instead of keeping.
func onRounds(cfg local.Config, rounds *[]int64) local.Config {
	cfg.OnRound = func(_ int, m int64) { *rounds = append(*rounds, m) }
	return cfg
}

// messagesUpTo sums a per-round stream through round (inclusive). Rounds
// beyond the recorded horizon are ignored.
func messagesUpTo(rounds []int64, round int) int64 {
	var total int64
	for r, c := range rounds {
		if r > round {
			break
		}
		total += c
	}
	return total
}

func TestFloodExactBalls(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.04, xrand.New(1))
	payloads := testPayloads(g.NumNodes())
	for _, tRounds := range []int{0, 1, 3} {
		res, err := Flood(context.Background(), g, payloads, tRounds, local.Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if ball := g.Ball(graph.NodeID(v), tRounds); !slices.Equal(res.Known[v], ball) {
				t.Fatalf("t=%d node %d knows %v, ball is %v", tRounds, v, res.Known[v], ball)
			}
		}
	}
}

func TestFloodMessageCost(t *testing.T) {
	// Flooding for t rounds costs at most 2·t·|E| messages and at least |E|
	// (round 0 sends on every half-edge... each node sends its own rumor).
	g := gen.Grid(8, 8)
	const tr = 4
	res, err := Flood(context.Background(), g, testPayloads(g.NumNodes()), tr, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hi := int64(2 * tr * g.NumEdges())
	if res.Run.Messages > hi {
		t.Fatalf("flood sent %d messages, cap %d", res.Run.Messages, hi)
	}
	if res.Run.Messages < int64(2*g.NumEdges()) {
		t.Fatalf("flood sent %d messages, expected at least one full sweep", res.Run.Messages)
	}
}

func TestFloodOnSpannerCoversBalls(t *testing.T) {
	// Flooding on a stretch-α spanner for α·t rounds must reach a superset
	// of every t-ball of g — the heart of the paper's simulation technique.
	g := gen.ConnectedGNP(150, 0.07, xrand.New(3))
	sp, err := core.Build(g, core.Default(2, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := graph.VerifySpanner(g, sp.S, sp.StretchBound())
	if err != nil {
		t.Fatal(err)
	}
	const tr = 2
	res, err := Flood(context.Background(), h, testPayloads(g.NumNodes()), sp.StretchBound()*tr, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Ball(graph.NodeID(v), tr) {
			if _, ok := slices.BinarySearch(res.Known[v], u); !ok {
				t.Fatalf("node %d missed rumor of %d (distance <= %d)", v, u, tr)
			}
		}
	}
	// And it should cost far fewer messages than flooding g directly when g
	// is dense relative to the spanner.
	direct, err := Flood(context.Background(), g, testPayloads(g.NumNodes()), tr, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spanner flood: %d msgs, direct flood: %d msgs", res.Run.Messages, direct.Run.Messages)
}

func TestFloodValidation(t *testing.T) {
	if _, err := Flood(context.Background(), nil, nil, 1, local.Config{}); err == nil {
		t.Fatal("nil host accepted")
	}
	g := gen.Path(3)
	if _, err := Flood(context.Background(), g, testPayloads(2), 1, local.Config{}); err == nil {
		t.Fatal("short payloads accepted")
	}
	if _, err := Flood(context.Background(), g, testPayloads(3), -1, local.Config{}); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

func TestGossipEventuallyCovers(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.15, xrand.New(4))
	const tr = 2
	payloads := testPayloads(g.NumNodes())
	var stream []int64
	fixedGossip(t, g, payloads, 400, onRounds(local.Config{Seed: 9}, &stream))
	cover := coverRound(t, g, payloads, NewBallIndex(g, tr), 400, local.Config{Seed: 9})
	if cover < 0 {
		t.Fatal("gossip did not cover t-balls within 400 rounds")
	}
	if cover <= tr {
		t.Fatalf("gossip covered in %d rounds; even flooding needs %d", cover, tr)
	}
	msgs := messagesUpTo(stream, cover)
	if msgs <= 0 || msgs > int64(cover+1)*2*int64(g.NumNodes()) {
		t.Fatalf("gossip messages to cover = %d outside (0, 2n(r+1)]", msgs)
	}
}

// TestGossipNoLedgerBillingExact pins that the early stop's bill needs no
// per-round record: on both engines, with and without an OnRound stream,
// the stopped run reports the fixed schedule's cover round and its
// Run.Messages is the fixed schedule's stream prefix through that round,
// and a streamed run's stream is exactly that prefix.
func TestGossipNoLedgerBillingExact(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(9))
	payloads := testPayloads(g.NumNodes())
	const rounds, t2 = 200, 2
	bi := NewBallIndex(g, t2)
	var full []int64
	fixedGossip(t, g, payloads, rounds, onRounds(local.Config{Seed: 4}, &full))
	cover := coverRound(t, g, payloads, bi, rounds, local.Config{Seed: 4})
	if cover < 0 {
		t.Fatalf("gossip did not cover within %d rounds", rounds)
	}
	want := messagesUpTo(full, cover)
	for _, workers := range []int{0, -1} {
		for _, streamed := range []bool{false, true} {
			var stream []int64
			cfg := local.Config{Seed: 4, Workers: workers}
			if streamed {
				cfg = onRounds(cfg, &stream)
			}
			res, got, err := Gossip(context.Background(), g, payloads, bi, rounds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != cover || res.Run.Messages != want {
				t.Fatalf("workers=%d streamed=%v: bill (%d, %d), fixed schedule (%d, %d)",
					workers, streamed, got, res.Run.Messages, cover, want)
			}
			if streamed && !slices.Equal(stream, full[:cover+1]) {
				t.Fatalf("workers=%d: stream %v is not the fixed schedule's prefix %v", workers, stream, full[:cover+1])
			}
		}
	}
}

func TestGossipMessagesPerRoundBounded(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.1, xrand.New(5))
	var stream []int64
	res := fixedGossip(t, g, testPayloads(g.NumNodes()), 50, onRounds(local.Config{Seed: 11}, &stream))
	if len(stream) != res.Run.Rounds {
		t.Fatalf("stream has %d rounds, run executed %d", len(stream), res.Run.Rounds)
	}
	for r, c := range stream {
		if c > 2*int64(g.NumNodes()) {
			t.Fatalf("round %d sent %d messages > 2n", r, c)
		}
	}
}

func TestGossipSlowOnBarbell(t *testing.T) {
	// Low conductance strangles gossip: the single bridge carries rumors
	// across at ~1 per round. This is the round blow-up the paper removes.
	g := gen.Barbell(20, 2) // 42 nodes
	const tr = 3
	cover := coverRound(t, g, testPayloads(g.NumNodes()), NewBallIndex(g, tr), 2000, local.Config{Seed: 13})
	if cover < 0 {
		t.Fatal("gossip never covered")
	}
	if cover < 3*tr {
		t.Fatalf("gossip covered a barbell in %d rounds; expected a clear blow-up over t=%d", cover, tr)
	}
}

func TestCoverRoundNotCovered(t *testing.T) {
	g := gen.Path(5)
	if coverRound(t, g, testPayloads(5), NewBallIndex(g, 2), 0, local.Config{}) != -1 {
		t.Fatal("zero-round gossip cannot cover 2-balls")
	}
}

func TestMessagesUpTo(t *testing.T) {
	run := []int64{5, 7, 11}
	if messagesUpTo(run, 1) != 12 {
		t.Fatal("prefix sum wrong")
	}
	if messagesUpTo(run, 99) != 23 {
		t.Fatal("overflow horizon wrong")
	}
}
