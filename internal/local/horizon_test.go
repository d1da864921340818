package local

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// horizonStep is one step a horizonProbe took: the round and the inbox it
// read, as (edge, payload) pairs in delivery order.
type horizonStep struct {
	Round int
	Inbox []horizonMsg
}

type horizonMsg struct {
	Edge    graph.EdgeID
	Payload uint64
}

// horizonProbe sends a fresh random draw on every port each round, logs
// every step it takes with the inbox it read, and halts at round haltAt
// (never, if haltAt < 0).
type horizonProbe struct {
	haltAt int
	log    []horizonStep
}

func (p *horizonProbe) Step(env *Env, round int, inbox []Message) {
	s := horizonStep{Round: round}
	for _, m := range inbox {
		s.Inbox = append(s.Inbox, horizonMsg{m.Edge, m.Payload.(uint64)})
	}
	p.log = append(p.log, s)
	if round == p.haltAt {
		env.Halt()
		return
	}
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, env.Rand().Uint64())
	}
}

// horizonCase is a graph with random horizons in [0, rounds+1] and random
// halting rounds (a third of the nodes never halt).
type horizonCase struct {
	g       *graph.Graph
	horizon []int32
	haltAt  []int
	rounds  int
}

func newHorizonCase(seed uint64) horizonCase {
	rng := xrand.New(seed)
	g := gen.ConnectedGNP(37, 0.12, rng)
	c := horizonCase{g: g, rounds: 6}
	for v := 0; v < g.NumNodes(); v++ {
		c.horizon = append(c.horizon, int32(rng.Intn(c.rounds+2)))
		halt := -1
		if rng.Intn(3) > 0 {
			halt = rng.Intn(c.rounds + 1)
		}
		c.haltAt = append(c.haltAt, halt)
	}
	return c
}

// run executes the case on rn and returns every node's step log (nil for a
// node never built), the factory calls in order, and the result. The
// OnRound hook checks after every round's delivery that no node retiring
// by the next round holds an inbox message.
func (c horizonCase) run(t *testing.T, rn *Runner, workers int) ([][]horizonStep, []graph.NodeID, Result) {
	t.Helper()
	protos := make([]*horizonProbe, c.g.NumNodes())
	var built []graph.NodeID
	res, err := rn.Run(context.Background(), c.g, func(v graph.NodeID) Protocol {
		built = append(built, v)
		protos[v] = &horizonProbe{haltAt: c.haltAt[v]}
		return protos[v]
	}, Config{
		Seed:      5,
		MaxRounds: c.rounds,
		Workers:   workers,
		Horizon:   c.horizon,
		OnRound: func(round int, _ int64) {
			for v, h := range c.horizon {
				if int(h) <= round+1 && round+1 < c.rounds && len(rn.r.inbox[v]) > 0 {
					t.Errorf("round %d: node %d (horizon %d) was delivered %d messages", round, v, h, len(rn.r.inbox[v]))
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]horizonStep, len(protos))
	for v, p := range protos {
		if p != nil {
			logs[v] = p.log
		}
	}
	return logs, built, res
}

// TestHorizonStepsExactlyBelow pins the horizon contract: a node steps in
// exactly the rounds [0, min(h, halt+1, MaxRounds)), a horizon-0 node's
// factory is never called, a retired node is delivered nothing, sends to a
// node retiring before the next round are not billed, a node whose horizon
// reaches MaxRounds never retires, and the run ends as soon as every node
// has halted or retired.
func TestHorizonStepsExactlyBelow(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := newHorizonCase(seed)
		logs, built, res := c.run(t, new(Runner), 0)

		var wantBuilt []graph.NodeID
		wantRounds := 0
		for v, h := range c.horizon {
			if h > 0 {
				wantBuilt = append(wantBuilt, graph.NodeID(v))
			}
			last := min(int(h), c.rounds)
			if c.haltAt[v] >= 0 {
				last = min(last, c.haltAt[v]+1)
			}
			wantRounds = max(wantRounds, last)
			if h == 0 && logs[v] != nil {
				t.Fatalf("seed %d: horizon-0 node %d was built", seed, v)
			}
			if len(logs[v]) != last {
				t.Fatalf("seed %d: node %d (horizon %d, halt %d) stepped %d rounds, want %d", seed, v, h, c.haltAt[v], len(logs[v]), last)
			}
			for r, s := range logs[v] {
				if s.Round != r {
					t.Fatalf("seed %d: node %d step %d ran round %d", seed, v, r, s.Round)
				}
			}
		}
		if !reflect.DeepEqual(built, wantBuilt) {
			t.Fatalf("seed %d: factory called for %v, want %v", seed, built, wantBuilt)
		}
		if res.Rounds != wantRounds {
			t.Fatalf("seed %d: %d rounds, want %d", seed, res.Rounds, wantRounds)
		}
		// Halted: every node halted in a step it took, or retired: its
		// horizon fell within the executed rounds and below MaxRounds.
		wantHalted := true
		for v, h := range c.horizon {
			halted := c.haltAt[v] >= 0 && len(logs[v]) == c.haltAt[v]+1
			retired := int(h) <= wantRounds && int(h) < c.rounds
			if !halted && !retired {
				wantHalted = false
			}
		}
		if res.Halted != wantHalted {
			t.Fatalf("seed %d: Halted %v after %d of %d rounds, want %v", seed, res.Halted, res.Rounds, c.rounds, wantHalted)
		}

		// Messages: every step sends once per port, and a send is billed
		// unless its receiver retires before the next round.
		var want int64
		for v, log := range logs {
			if len(log) == 0 {
				continue
			}
			halted := c.haltAt[v] >= 0 && len(log) == c.haltAt[v]+1
			for r := range log {
				if halted && r == c.haltAt[v] {
					continue // halting step sends nothing
				}
				for _, h := range c.g.Incident(graph.NodeID(v)) {
					if int(c.horizon[h.Peer]) > r+1 || r+1 == c.rounds {
						want++
					}
				}
			}
		}
		if res.Messages != want {
			t.Fatalf("seed %d: %d messages billed, want %d", seed, res.Messages, want)
		}
	}
}

// TestHorizonEngineEquivalence checks that a horizon run is bit-identical
// on the sequential engine, on pools of every tested size, and on a Runner
// reused across cases and worker counts, which pins nothing afterwards.
func TestHorizonEngineEquivalence(t *testing.T) {
	shared := new(Runner)
	for seed := uint64(1); seed <= 4; seed++ {
		c := newHorizonCase(seed)
		wantLogs, wantBuilt, wantRes := c.run(t, new(Runner), 0)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			for _, rn := range []*Runner{new(Runner), shared} {
				logs, built, res := c.run(t, rn, workers)
				if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(logs, wantLogs) {
					t.Fatalf("seed %d workers=%d: run differs from the fresh sequential run", seed, workers)
				}
				// The pool builds nodes in sequence too: the factory runs
				// during setup, on the coordinating goroutine.
				if !reflect.DeepEqual(built, wantBuilt) {
					t.Fatalf("seed %d workers=%d: factory calls differ", seed, workers)
				}
				if n := heldPayloads(rn); n != 0 {
					t.Fatalf("seed %d workers=%d: Runner holds %d references after the run", seed, workers, n)
				}
			}
		}
	}
}

// TestHorizonConfigErrors pins the configuration checks: a horizon must
// cover every node and cannot be combined with an adversary.
func TestHorizonConfigErrors(t *testing.T) {
	g := gen.Path(4)
	f := func(graph.NodeID) Protocol { return &floodMax{t: 1} }
	if _, err := Run(g, f, Config{Horizon: make([]int32, 3)}); err == nil || !strings.Contains(err.Error(), "Horizon covers 3 of 4 nodes") {
		t.Fatalf("short horizon: got %v", err)
	}
	p, ok := adversary.Named("drop10")
	if !ok {
		t.Fatal("drop10 profile missing")
	}
	adv := compileProfile(t, p, 3)
	if _, err := Run(g, f, Config{Horizon: make([]int32, 4), Adversary: adv}); err == nil || !strings.Contains(err.Error(), "Adversary") {
		t.Fatalf("horizon with adversary: got %v", err)
	}
}
