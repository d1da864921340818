package broadcast

// Tests for the gossip early-stop machinery: the BallIndex that answers
// cover-round queries without rebuilding balls, the tracker-driven early
// stop of Gossip (a ball index and a cover target) whose executed prefix
// must be bit-identical to the fixed schedule's, and the explicit
// min-semantics between a caller-provided round budget and the broadcast
// protocols' own schedule lengths.

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// TestGossipEarlyStopMatchesFixedSchedule pins the early-stop equivalence:
// the early-stopped run reports exactly the full schedule's cover round,
// bills exactly the same messages through it, records identical arrivals up
// to the stop, and executes only cover+1 rounds — on both engines, with the
// ledger on and off.
func TestGossipEarlyStopMatchesFixedSchedule(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.08, xrand.New(9))
	const tBall = 2
	const schedule = 6000
	payloads := testPayloads(g.NumNodes())
	bi := NewBallIndex(g, tBall)

	full := fixedGossip(t, g, payloads, schedule, local.Config{Seed: 3})
	cover := bi.CoverRound(full.Arrival)
	if cover < 0 {
		t.Fatalf("schedule of %d rounds did not cover the %d-balls", schedule, tBall)
	}
	wantBill := MessagesUpTo(full.Run, cover)

	for _, tc := range []struct {
		name string
		cfg  local.Config
	}{
		{"sequential", local.Config{Seed: 3}},
		{"sequential-noledger", local.Config{Seed: 3, NoLedger: true}},
		{"concurrent", local.Config{Seed: 3, Workers: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			early, got, err := Gossip(context.Background(), g, payloads, bi, g.NumNodes(), schedule, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != cover {
				t.Fatalf("early stop reported cover round %d, full schedule says %d", got, cover)
			}
			if early.Run.Rounds != cover+1 {
				t.Fatalf("early stop executed %d rounds, want cover+1 = %d", early.Run.Rounds, cover+1)
			}
			bill, err := early.MessagesThrough(cover)
			if err != nil {
				t.Fatal(err)
			}
			if bill != wantBill {
				t.Fatalf("early-stopped bill %d != full-schedule bill %d", bill, wantBill)
			}
			// The executed prefix is the same execution: every arrival the
			// early run recorded matches the full run's round exactly.
			for v := range early.Arrival {
				for u, r := range early.Arrival[v] {
					if fr, ok := full.Arrival[v][u]; !ok || fr != r {
						t.Fatalf("node %d origin %d arrived at %d early, %d (ok=%v) full", v, u, r, fr, ok)
					}
				}
			}
		})
	}
}

// TestGossipCoverTargetMatchesSortedCoverRounds pins the fractional cover
// target hybrid's seeding stage rides: the stop round equals the need-th
// smallest per-node cover round of the full run.
func TestGossipCoverTargetMatchesSortedCoverRounds(t *testing.T) {
	g := gen.ConnectedGNP(50, 0.1, xrand.New(21))
	const tBall = 2
	const schedule = 5000
	payloads := testPayloads(g.NumNodes())
	bi := NewBallIndex(g, tBall)

	full := fixedGossip(t, g, payloads, schedule, local.Config{Seed: 8})
	perNode := bi.CoverRounds(full.Arrival)
	need := g.NumNodes() / 2
	// The need-th smallest completion round, computed the pedestrian way.
	want := -1
	for r := 0; r <= schedule; r++ {
		done := 0
		for _, cr := range perNode {
			if cr >= 0 && cr <= r {
				done++
			}
		}
		if done >= need {
			want = r
			break
		}
	}
	if want < 0 {
		t.Fatalf("full schedule never covered %d nodes", need)
	}

	_, got, err := Gossip(context.Background(), g, payloads, bi, need, schedule, local.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("gossip with cover target %d stopped at round %d, want %d", need, got, want)
	}
}

// TestGossipEarlyStopBudgetExhausted: a schedule too short to cover must
// report -1, exactly like CoverRound on the truncated run.
func TestGossipEarlyStopBudgetExhausted(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(5))
	bi := NewBallIndex(g, 3)
	res, cover, err := Gossip(context.Background(), g, testPayloads(g.NumNodes()), bi, g.NumNodes(), 1, local.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cover != -1 {
		t.Fatalf("1-round schedule reported cover %d, want -1", cover)
	}
	if got := bi.CoverRound(res.Arrival); got != -1 {
		t.Fatalf("CoverRound on the truncated run says %d, want -1", got)
	}
}

// TestBallIndexCoverRoundsAllocs is the allocation-regression pin for
// cover-round queries: querying a prebuilt index must not rebuild the balls
// (one BFS plus one slice and one map per node per call).
func TestBallIndexCoverRoundsAllocs(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.06, xrand.New(4))
	res := fixedGossip(t, g, testPayloads(g.NumNodes()), 400, local.Config{Seed: 6})
	bi := NewBallIndex(g, 2)
	allocs := testing.AllocsPerRun(20, func() {
		bi.CoverRounds(res.Arrival)
	})
	// One output slice; rebuilding ball membership would cost >= 2 allocs
	// per node (slice + set) and fail loudly.
	if allocs > 2 {
		t.Fatalf("BallIndex.CoverRounds allocates %.0f times per call, want <= 2", allocs)
	}
	// The global cover round is the latest per-node one (every node covered).
	want := 0
	for v, r := range bi.CoverRounds(res.Arrival) {
		if r < 0 {
			t.Fatalf("node %d not covered within 400 rounds", v)
		}
		want = max(want, r)
	}
	if got := bi.CoverRound(res.Arrival); got != want {
		t.Fatalf("CoverRound = %d, latest per-node cover round is %d", got, want)
	}
}

// TestScheduleBudgetClamp pins the explicit interaction between a
// caller-provided round budget (cfg.MaxRounds) and the broadcast protocols'
// own schedules: the effective schedule is the min of the two, plus the
// final sendless halt round — on both engines, for both Flood and Gossip.
// Historically the protocols silently overwrote the caller's budget.
func TestScheduleBudgetClamp(t *testing.T) {
	g := gen.Grid(6, 6) // diameter 10: a 5-round flood is properly truncated by a budget of 3
	payloads := testPayloads(g.NumNodes())
	cases := []struct {
		name       string
		budget     int // cfg.MaxRounds handed in by the caller
		schedule   int // the protocol's own rounds argument
		wantRounds int // executed rounds: min(budget,schedule)+1
	}{
		{"zero-budget-keeps-schedule", 0, 5, 6},
		{"budget-below-schedule-caps", 3, 5, 4},
		{"budget-equal-schedule", 5, 5, 6},
		{"budget-above-schedule", 100, 5, 6},
	}
	for _, eng := range []struct {
		name string
		cfg  local.Config
	}{
		{"sequential", local.Config{Seed: 1}},
		{"concurrent", local.Config{Seed: 1, Workers: 2}},
	} {
		for _, tc := range cases {
			t.Run(eng.name+"/flood/"+tc.name, func(t *testing.T) {
				cfg := eng.cfg
				cfg.MaxRounds = tc.budget
				res, err := Flood(context.Background(), g, payloads, nil, tc.schedule, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Run.Rounds != tc.wantRounds {
					t.Fatalf("flood executed %d rounds, want %d", res.Run.Rounds, tc.wantRounds)
				}
				// A capped flood is a clean shorter flood: coverage equals
				// the balls of the effective radius, and all nodes halted.
				eff := min(tc.schedule, tc.wantRounds-1)
				for v := 0; v < g.NumNodes(); v++ {
					if want := len(g.Ball(graph.NodeID(v), eff)); len(res.Known[v]) != want {
						t.Fatalf("node %d knows %d rumors, radius-%d ball has %d", v, len(res.Known[v]), eff, want)
					}
				}
				if !res.Run.Halted {
					t.Fatal("capped flood did not halt cleanly")
				}
			})
			t.Run(eng.name+"/gossip/"+tc.name, func(t *testing.T) {
				cfg := eng.cfg
				cfg.MaxRounds = tc.budget
				res := fixedGossip(t, g, payloads, tc.schedule, cfg)
				if res.Run.Rounds != tc.wantRounds {
					t.Fatalf("gossip executed %d rounds, want %d", res.Run.Rounds, tc.wantRounds)
				}
				if !res.Run.Halted {
					t.Fatal("capped gossip did not halt cleanly")
				}
			})
		}
	}
}
