package broadcast

import (
	"context"
	"slices"
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
	plain, err := Flood(context.Background(), g, payloads, rounds, local.Config{})
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
		if !slices.Equal(budgeted.Known[v], plain.Known[v]) {
			t.Fatalf("node %d knows %v, flood knows %v", v, budgeted.Known[v], plain.Known[v])
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
	plain, err := Flood(context.Background(), g, payloads, rounds, local.Config{})
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
		if !slices.Equal(narrow.Known[v], plain.Known[v]) {
			t.Fatalf("node %d: budgeted flood knows %v, flood %v — bandwidth changed knowledge",
				v, narrow.Known[v], plain.Known[v])
		}
	}
}

// TestFloodBudgetRoundIndexConsistency is the filler-round regression test:
// the budgeted flood appends zero-message filler rounds to pad its schedule,
// and every billed round number must stay aligned across the views of the
// run — the OnRound round argument, the stream position, and the
// messagesUpTo prefix sums — with no off-by-one between them.
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
	if len(seenRounds) != res.Run.Rounds || len(seenMsgs) != res.Run.Rounds {
		t.Fatalf("observer saw %d round numbers and %d counts, result bills %d rounds",
			len(seenRounds), len(seenMsgs), res.Run.Rounds)
	}
	var cum int64
	for i := range seenRounds {
		if seenRounds[i] != i {
			t.Fatalf("OnRound fired for round %d at position %d", seenRounds[i], i)
		}
		cum += seenMsgs[i]
		if got := messagesUpTo(seenMsgs, i); got != cum {
			t.Fatalf("messagesUpTo(%d) = %d, observer cumulative is %d", i, got, cum)
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
	if last := seenMsgs[res.Run.Rounds-1]; last != 0 {
		t.Fatalf("final round carried %d messages, want a zero filler round", last)
	}
}

// TestFloodBudgetNoLedger pins that the centrally simulated CONGEST
// schedule keeps no per-round record of its own: a run with an OnRound
// stream and a bare run bill the same totals, and the stream has one entry
// per billed round and sums to the bill.
func TestFloodBudgetNoLedger(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(3))
	payloads := testPayloads(g.NumNodes())
	const rounds, bw = 4, 1
	var stream []int64
	with, err := FloodBudget(context.Background(), g, payloads, rounds, bw, onRounds(local.Config{}, &stream))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := FloodBudget(context.Background(), g, payloads, rounds, bw, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Run != with.Run {
		t.Fatalf("totals drifted with the stream attached: %+v vs %+v", bare.Run, with.Run)
	}
	if len(stream) != bare.Run.Rounds {
		t.Fatalf("stream has %d rounds, result bills %d", len(stream), bare.Run.Rounds)
	}
	if sum := messagesUpTo(stream, len(stream)); sum != bare.Run.Messages {
		t.Fatalf("stream sums to %d messages, result bills %d", sum, bare.Run.Messages)
	}
}

// TestFloodBudgetRejectsBadBandwidth covers the argument contract.
func TestFloodBudgetRejectsBadBandwidth(t *testing.T) {
	g := gen.Path(4)
	if _, err := FloodBudget(context.Background(), g, testPayloads(4), 2, 0, local.Config{}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}
