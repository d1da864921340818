package broadcast

// Tests for the gossip early-stop machinery: the tracker-driven early stop
// of Gossip (a ball index), whose executed prefix must be
// bit-identical to the fixed schedule's and whose run is its bill, and the
// explicit min-semantics between a caller-provided round budget and the
// broadcast protocols' own schedule lengths.

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// TestGossipEarlyStopMatchesFixedSchedule pins the early-stop equivalence:
// the early-stopped run reports exactly the full schedule's cover round,
// sends exactly the messages the full schedule sent through it, knows
// exactly what the full schedule knew through it, and executes only
// cover+1 rounds — on both engines. The sequential-noledger case also
// streams its rounds through OnRound, which must be exactly the full
// schedule's stream through the cover round.
func TestGossipEarlyStopMatchesFixedSchedule(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.08, xrand.New(9))
	const tBall = 2
	const schedule = 6000
	payloads := testPayloads(g.NumNodes())
	bi := NewBallIndex(g, tBall)

	var full []int64
	fixedGossip(t, g, payloads, schedule, onRounds(local.Config{Seed: 3}, &full))
	cover := coverRound(t, g, payloads, bi, schedule, local.Config{Seed: 3})
	if cover < 0 {
		t.Fatalf("schedule of %d rounds did not cover the %d-balls", schedule, tBall)
	}
	wantBill := messagesUpTo(full, cover)
	through := fixedGossip(t, g, payloads, cover, local.Config{Seed: 3}).Known

	for _, tc := range []struct {
		name     string
		cfg      local.Config
		streamed bool
	}{
		{"sequential", local.Config{Seed: 3}, false},
		{"sequential-noledger", local.Config{Seed: 3}, true},
		{"concurrent", local.Config{Seed: 3, Workers: 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stream []int64
			cfg := tc.cfg
			if tc.streamed {
				cfg = onRounds(cfg, &stream)
			}
			early, got, err := Gossip(context.Background(), g, payloads, bi, schedule, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.streamed && !slices.Equal(stream, full[:cover+1]) {
				t.Fatalf("early stop streamed %v, full schedule %v through the cover round", stream, full[:cover+1])
			}
			if got != cover {
				t.Fatalf("early stop reported cover round %d, full schedule says %d", got, cover)
			}
			if early.Run.Rounds != cover+1 {
				t.Fatalf("early stop executed %d rounds, want cover+1 = %d", early.Run.Rounds, cover+1)
			}
			if early.Run.Messages != wantBill {
				t.Fatalf("early-stopped bill %d != full-schedule bill %d", early.Run.Messages, wantBill)
			}
			// The executed prefix is the same execution: the early run knows
			// exactly what the fixed schedule knew through the cover round.
			for v := range early.Known {
				if !slices.Equal(early.Known[v], through[v]) {
					t.Fatalf("node %d: early run knows %v, full run %v through the cover round",
						v, early.Known[v], through[v])
				}
			}
		})
	}
}

// TestGossipEarlyStopBudgetExhausted: a schedule too short to cover must
// report -1, exactly like the reference coverRound on the same schedule.
func TestGossipEarlyStopBudgetExhausted(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(5))
	bi := NewBallIndex(g, 3)
	payloads := testPayloads(g.NumNodes())
	_, cover, err := Gossip(context.Background(), g, payloads, bi, 1, local.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cover != -1 {
		t.Fatalf("1-round schedule reported cover %d, want -1", cover)
	}
	if got := coverRound(t, g, payloads, bi, 1, local.Config{Seed: 2}); got != -1 {
		t.Fatalf("coverRound on the 1-round schedule says %d, want -1", got)
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
				res, err := Flood(context.Background(), g, payloads, tc.schedule, cfg)
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
