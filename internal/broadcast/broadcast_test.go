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
	res, cover, err := Gossip(context.Background(), g, payloads, nil, 0, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cover != -1 {
		t.Fatalf("fixed schedule reported cover round %d, want -1", cover)
	}
	return res
}

func TestFloodExactBalls(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.04, xrand.New(1))
	payloads := testPayloads(g.NumNodes())
	for _, tRounds := range []int{0, 1, 3} {
		res, err := Flood(context.Background(), g, payloads, nil, tRounds, local.Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrival != nil {
			t.Fatal("flood recorded arrivals; only gossip keeps them")
		}
		for v := 0; v < g.NumNodes(); v++ {
			ball := g.Ball(graph.NodeID(v), tRounds)
			if len(res.Known[v]) != len(ball) {
				t.Fatalf("t=%d node %d knows %d rumors, ball has %d",
					tRounds, v, len(res.Known[v]), len(ball))
			}
			for _, u := range ball {
				if !slices.Equal(res.Known[v][u], payloads[u]) {
					t.Fatalf("payload corrupted: %v", res.Known[v][u])
				}
			}
		}
	}
}

func TestFloodMessageCost(t *testing.T) {
	// Flooding for t rounds costs at most 2·t·|E| messages and at least |E|
	// (round 0 sends on every half-edge... each node sends its own rumor).
	g := gen.Grid(8, 8)
	const tr = 4
	res, err := Flood(context.Background(), g, testPayloads(g.NumNodes()), nil, tr, local.Config{})
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
	res, err := Flood(context.Background(), h, testPayloads(g.NumNodes()), nil, sp.StretchBound()*tr, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Ball(graph.NodeID(v), tr) {
			if _, ok := res.Known[v][u]; !ok {
				t.Fatalf("node %d missed rumor of %d (distance <= %d)", v, u, tr)
			}
		}
	}
	// And it should cost far fewer messages than flooding g directly when g
	// is dense relative to the spanner.
	direct, err := Flood(context.Background(), g, testPayloads(g.NumNodes()), nil, tr, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spanner flood: %d msgs, direct flood: %d msgs", res.Run.Messages, direct.Run.Messages)
}

func TestFloodValidation(t *testing.T) {
	if _, err := Flood(context.Background(), nil, nil, nil, 1, local.Config{}); err == nil {
		t.Fatal("nil host accepted")
	}
	g := gen.Path(3)
	if _, err := Flood(context.Background(), g, testPayloads(2), nil, 1, local.Config{}); err == nil {
		t.Fatal("short payloads accepted")
	}
	if _, err := Flood(context.Background(), g, testPayloads(3), nil, -1, local.Config{}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := Flood(context.Background(), g, testPayloads(3), make([]bool, 2), 1, local.Config{}); err == nil {
		t.Fatal("short seed flags accepted")
	}
}

func TestGossipEventuallyCovers(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.15, xrand.New(4))
	const tr = 2
	res := fixedGossip(t, g, testPayloads(g.NumNodes()), 400, local.Config{Seed: 9})
	cover := NewBallIndex(g, tr).CoverRound(res.Arrival)
	if cover < 0 {
		t.Fatal("gossip did not cover t-balls within 400 rounds")
	}
	if cover <= tr {
		t.Fatalf("gossip covered in %d rounds; even flooding needs %d", cover, tr)
	}
	msgs := MessagesUpTo(res.Run, cover)
	if msgs <= 0 || msgs > int64(cover+1)*2*int64(g.NumNodes()) {
		t.Fatalf("gossip messages to cover = %d outside (0, 2n(r+1)]", msgs)
	}
}

// TestGossipNoLedgerBillingExact pins the compact arrival-round record: with
// the per-round ledger disabled, MessagesThrough must return exactly the
// prefix sums the ledger would have, at every round CoverRound/CoverRounds
// can name, on both engines — and the run must not retain PerRound.
func TestGossipNoLedgerBillingExact(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(9))
	payloads := testPayloads(g.NumNodes())
	const rounds, t2 = 200, 2
	bi := NewBallIndex(g, t2)
	for _, workers := range []int{0, -1} {
		with := fixedGossip(t, g, payloads, rounds, local.Config{Seed: 4, Workers: workers})
		bare := fixedGossip(t, g, payloads, rounds, local.Config{Seed: 4, Workers: workers, NoLedger: true})
		if bare.Run.PerRound != nil {
			t.Fatalf("workers=%d: NoLedger gossip retained %d PerRound entries", workers, len(bare.Run.PerRound))
		}
		if bare.Run.Messages != with.Run.Messages || bare.Run.Rounds != with.Run.Rounds {
			t.Fatalf("workers=%d: totals drifted: %+v vs %+v", workers, bare.Run, with.Run)
		}
		// Every billing deadline any caller can derive — the global cover
		// round and every per-node cover round — must answer identically.
		deadlines := map[int]bool{bi.CoverRound(with.Arrival): true}
		for _, r := range bi.CoverRounds(with.Arrival) {
			deadlines[r] = true
		}
		for r := range deadlines {
			if r < 0 {
				t.Fatalf("workers=%d: gossip did not cover within %d rounds", workers, rounds)
			}
			want := MessagesUpTo(with.Run, r)
			got, err := bare.MessagesThrough(r)
			if err != nil {
				t.Fatalf("workers=%d: MessagesThrough(%d): %v", workers, r, err)
			}
			if got != want {
				t.Fatalf("workers=%d: MessagesThrough(%d) = %d, ledger says %d", workers, r, got, want)
			}
			// The ledgered result must answer through the same API.
			if lg, err := with.MessagesThrough(r); err != nil || lg != want {
				t.Fatalf("workers=%d: ledgered MessagesThrough(%d) = %d, %v", workers, r, lg, err)
			}
		}
		// A round past every arrival has no record: the error is loud, not
		// a silent underbill.
		if _, err := bare.MessagesThrough(rounds - 1); err == nil {
			maxArr := 0
			for _, m := range bare.Arrival {
				for _, r := range m {
					if r > maxArr {
						maxArr = r
					}
				}
			}
			if maxArr < rounds-1 {
				t.Fatalf("workers=%d: MessagesThrough(%d) beyond the last arrival (%d) did not error", workers, rounds-1, maxArr)
			}
		}
	}
}

func TestGossipMessagesPerRoundBounded(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.1, xrand.New(5))
	res := fixedGossip(t, g, testPayloads(g.NumNodes()), 50, local.Config{Seed: 11})
	for r, c := range res.Run.PerRound {
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
	gossip := fixedGossip(t, g, testPayloads(g.NumNodes()), 2000, local.Config{Seed: 13})
	cover := NewBallIndex(g, tr).CoverRound(gossip.Arrival)
	if cover < 0 {
		t.Fatal("gossip never covered")
	}
	if cover < 3*tr {
		t.Fatalf("gossip covered a barbell in %d rounds; expected a clear blow-up over t=%d", cover, tr)
	}
}

func TestCoverRoundNotCovered(t *testing.T) {
	g := gen.Path(5)
	res := fixedGossip(t, g, testPayloads(5), 0, local.Config{})
	if NewBallIndex(g, 2).CoverRound(res.Arrival) != -1 {
		t.Fatal("zero-round gossip cannot cover 2-balls")
	}
}

func TestMessagesUpTo(t *testing.T) {
	run := local.Result{PerRound: []int64{5, 7, 11}}
	if MessagesUpTo(run, 1) != 12 {
		t.Fatal("prefix sum wrong")
	}
	if MessagesUpTo(run, 99) != 23 {
		t.Fatal("overflow horizon wrong")
	}
}
