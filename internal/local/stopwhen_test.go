package local

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// chatterProto sends one message on every port each round and never halts —
// without StopWhen it runs to MaxRounds.
type chatterProto struct{ seen []int64 }

func (p *chatterProto) Step(env *Env, round int, inbox []Message) {
	p.seen = append(p.seen, int64(len(inbox)))
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, round)
	}
}

// TestStopWhenEndsRun pins the StopWhen contract on both engines: the hook
// fires after the round it names has fully executed (ledger fed, OnRound
// delivered), the run ends before the next round, and the executed prefix is
// bit-identical to the unstopped schedule's.
func TestStopWhenEndsRun(t *testing.T) {
	g := gen.Grid(4, 4)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{Seed: 5, MaxRounds: 10}},
		{"concurrent", Config{Seed: 5, MaxRounds: 10, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(stopAt int) (Result, [][]int64) {
				cfg := tc.cfg
				var rounds []int
				cfg.OnRound = func(r int, _ int64) { rounds = append(rounds, r) }
				if stopAt >= 0 {
					cfg.StopWhen = func(r int, _ int64) bool { return r >= stopAt }
				}
				protos := make([]*chatterProto, g.NumNodes())
				res, err := RunCtx(context.Background(), g, func(v graph.NodeID) Protocol {
					p := &chatterProto{}
					protos[v] = p
					return p
				}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if stopAt >= 0 && rounds[len(rounds)-1] != stopAt {
					t.Fatalf("OnRound last saw round %d, want the stop round %d", rounds[len(rounds)-1], stopAt)
				}
				traces := make([][]int64, len(protos))
				for v, p := range protos {
					traces[v] = p.seen
				}
				return res, traces
			}

			full, fullTraces := run(-1)
			if full.Rounds != 10 {
				t.Fatalf("unstopped run executed %d rounds, want MaxRounds=10", full.Rounds)
			}
			stopped, traces := run(3)
			if stopped.Rounds != 4 {
				t.Fatalf("stopped run executed %d rounds, want 4", stopped.Rounds)
			}
			if len(stopped.PerRound) != 4 {
				t.Fatalf("stopped run's ledger has %d rounds, want 4", len(stopped.PerRound))
			}
			for r := range stopped.PerRound {
				if stopped.PerRound[r] != full.PerRound[r] {
					t.Fatalf("round %d: stopped sent %d, full sent %d", r, stopped.PerRound[r], full.PerRound[r])
				}
			}
			for v := range traces {
				for r, c := range traces[v] {
					if fullTraces[v][r] != c {
						t.Fatalf("node %d round %d: inbox %d stopped vs %d full", v, r, c, fullTraces[v][r])
					}
				}
			}
		})
	}
}
