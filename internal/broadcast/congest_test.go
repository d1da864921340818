package broadcast

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// testPayloads gives node v the two-word port list {v, v+n}.
func testPayloads(n int) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, n)
	for v := 0; v < n; v++ {
		out[v] = []graph.EdgeID{graph.EdgeID(v), graph.EdgeID(v + n)}
	}
	return out
}

// TestFloodBudgetMatchesFlood pins the degenerate case: with bandwidth far
// above any payload, the budgeted flood must reproduce the LOCAL flood
// exactly — same knowledge, same round and message bill, same payload
// units.
func TestFloodBudgetMatchesFlood(t *testing.T) {
	g := gen.ConnectedGNP(50, 0.1, xrand.New(3))
	payloads := testPayloads(g.NumNodes())
	const rounds = 4
	plain, err := Flood(context.Background(), g, payloads, nil, rounds, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := FloodBudget(context.Background(), g, payloads, rounds, 1<<20, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Run.Rounds != plain.Run.Rounds || budgeted.Run.Messages != plain.Run.Messages {
		t.Fatalf("unbounded budget bill (%d rounds, %d msgs) != flood bill (%d, %d)",
			budgeted.Run.Rounds, budgeted.Run.Messages, plain.Run.Rounds, plain.Run.Messages)
	}
	if budgeted.Run.PayloadUnits != plain.Run.PayloadUnits {
		t.Fatalf("payload units %d != %d", budgeted.Run.PayloadUnits, plain.Run.PayloadUnits)
	}
	for v := range plain.Known {
		if len(budgeted.Known[v]) != len(plain.Known[v]) {
			t.Fatalf("node %d knows %d origins, flood knows %d", v, len(budgeted.Known[v]), len(plain.Known[v]))
		}
		for origin := range plain.Known[v] {
			if _, ok := budgeted.Known[v][origin]; !ok {
				t.Fatalf("node %d missed origin %d that the flood delivered", v, origin)
			}
		}
	}
}

// TestFloodBudgetSplitsAndCovers pins the CONGEST behaviour: a one-word cap
// must dilate the schedule (payloads are three words each) while still
// delivering exactly the hop-limited knowledge of the unbudgeted flood.
func TestFloodBudgetSplitsAndCovers(t *testing.T) {
	g := gen.ConnectedGNP(50, 0.1, xrand.New(3))
	payloads := testPayloads(g.NumNodes())
	const rounds = 4
	plain, err := Flood(context.Background(), g, payloads, nil, rounds, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := FloodBudget(context.Background(), g, payloads, rounds, 1, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Run.Rounds <= plain.Run.Rounds {
		t.Fatalf("one-word cap did not dilate: %d rounds vs %d", narrow.Run.Rounds, plain.Run.Rounds)
	}
	for v := range plain.Known {
		if len(narrow.Known[v]) != len(plain.Known[v]) {
			t.Fatalf("node %d: budgeted flood knows %d origins, flood %d — bandwidth changed knowledge",
				v, len(narrow.Known[v]), len(plain.Known[v]))
		}
		for origin := range plain.Known[v] {
			if _, ok := narrow.Known[v][origin]; !ok {
				t.Fatalf("node %d lost origin %d under the one-word cap", v, origin)
			}
		}
	}
}

// TestFloodBudgetRoundIndexConsistency is the filler-round regression test:
// the budgeted flood appends zero-message filler rounds to pad its schedule,
// and every billed round number must stay aligned across the three views of
// the run — the OnRound stream, the PerRound ledger position, and the
// MessagesUpTo prefix sums — with no off-by-one between them.
func TestFloodBudgetRoundIndexConsistency(t *testing.T) {
	// One-word bandwidth with three-word payloads forces splitting (queues
	// drain late), and a path keeps traffic sparse enough that trailing
	// filler rounds are certain to appear.
	g := gen.Path(6)
	payloads := testPayloads(6)
	const rounds, bw = 5, 1
	var seenRounds []int
	var seenMsgs []int64
	res, err := FloodBudget(context.Background(), g, payloads, rounds, bw, local.Config{
		OnRound: func(r int, m int64) {
			seenRounds = append(seenRounds, r)
			seenMsgs = append(seenMsgs, m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seenRounds) != res.Run.Rounds || len(res.Run.PerRound) != res.Run.Rounds {
		t.Fatalf("observer saw %d rounds, ledger has %d, result bills %d",
			len(seenRounds), len(res.Run.PerRound), res.Run.Rounds)
	}
	var cum int64
	for i := range seenRounds {
		if seenRounds[i] != i {
			t.Fatalf("OnRound fired for round %d at position %d", seenRounds[i], i)
		}
		if seenMsgs[i] != res.Run.PerRound[i] {
			t.Fatalf("round %d: observer saw %d messages, ledger slot has %d", i, seenMsgs[i], res.Run.PerRound[i])
		}
		cum += seenMsgs[i]
		if got := MessagesUpTo(res.Run, i); got != cum {
			t.Fatalf("MessagesUpTo(%d) = %d, observer cumulative is %d", i, got, cum)
		}
	}
	if cum != res.Run.Messages {
		t.Fatalf("stream sums to %d messages, result bills %d", cum, res.Run.Messages)
	}
	// The dilated schedule must end in at least one genuine filler round
	// (zero messages) and still bill at least the LOCAL flood's rounds+1.
	if res.Run.Rounds < rounds+1 {
		t.Fatalf("billed %d rounds, below the %d-round LOCAL schedule", res.Run.Rounds, rounds+1)
	}
	if last := res.Run.PerRound[res.Run.Rounds-1]; last != 0 {
		t.Fatalf("final round carried %d messages, want a zero filler round", last)
	}
}

// TestFloodBudgetNoLedger pins the ledger opt-out on the centrally simulated
// CONGEST schedule: PerRound stays nil while the OnRound stream, the round
// count, and all totals are unchanged.
func TestFloodBudgetNoLedger(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(3))
	payloads := testPayloads(g.NumNodes())
	const rounds, bw = 4, 1
	var ledgerStream, bareStream []int64
	with, err := FloodBudget(context.Background(), g, payloads, rounds, bw, local.Config{
		OnRound: func(r int, m int64) { ledgerStream = append(ledgerStream, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := FloodBudget(context.Background(), g, payloads, rounds, bw, local.Config{
		NoLedger: true,
		OnRound:  func(r int, m int64) { bareStream = append(bareStream, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Run.PerRound != nil {
		t.Fatalf("NoLedger run retained %d PerRound entries", len(bare.Run.PerRound))
	}
	if bare.Run.Rounds != with.Run.Rounds || bare.Run.Messages != with.Run.Messages ||
		bare.Run.PayloadUnits != with.Run.PayloadUnits {
		t.Fatalf("totals drifted without the ledger: %+v vs %+v", bare.Run, with.Run)
	}
	if len(bareStream) != len(ledgerStream) {
		t.Fatalf("stream length drifted: %d vs %d", len(bareStream), len(ledgerStream))
	}
	for i := range bareStream {
		if bareStream[i] != ledgerStream[i] {
			t.Fatalf("round %d: stream %d vs %d", i, bareStream[i], ledgerStream[i])
		}
	}
}

// TestFloodBudgetRejectsBadBandwidth covers the argument contract.
func TestFloodBudgetRejectsBadBandwidth(t *testing.T) {
	g := gen.Path(4)
	if _, err := FloodBudget(context.Background(), g, testPayloads(4), 2, 0, local.Config{}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

// TestFloodSeedsSubset pins the selective flood: only seeded origins
// circulate, every node still knows itself, and nil seeds means everyone.
func TestFloodSeedsSubset(t *testing.T) {
	g := gen.Cycle(8)
	payloads := testPayloads(8)
	seeds := make([]bool, 8)
	seeds[0], seeds[4] = true, true
	res, err := Flood(context.Background(), g, payloads, seeds, 8, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		for origin := range res.Known[v] {
			if int(origin) != v && !seeds[origin] {
				t.Fatalf("node %d heard unseeded origin %d", v, origin)
			}
		}
		if _, ok := res.Known[v][graph.NodeID(v)]; !ok {
			t.Fatalf("node %d does not know itself", v)
		}
		for _, origin := range []graph.NodeID{0, 4} {
			if _, ok := res.Known[v][origin]; !ok {
				t.Fatalf("node %d missed seeded origin %d", v, origin)
			}
		}
	}
}
