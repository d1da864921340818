package local

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// floodMax is a tiny LOCAL protocol: every node repeatedly broadcasts the
// largest node ID it has seen; after t rounds each node knows the max ID in
// its t-ball. It exercises Send, inboxes, halting, and determinism.
type floodMax struct {
	t    int
	best graph.NodeID
}

func (p *floodMax) Step(env *Env, round int, inbox []Message) {
	if round == 0 {
		p.best = env.ID()
	}
	for _, m := range inbox {
		if v := m.Payload.(graph.NodeID); v > p.best {
			p.best = v
		}
	}
	if round == p.t {
		env.Halt()
		return
	}
	for _, port := range env.Ports() {
		env.Send(port.Edge, p.best)
	}
	env.Count("floods", int64(env.Degree()))
}

func runFloodMax(t *testing.T, g *graph.Graph, rounds int, cfg Config) ([]graph.NodeID, Result) {
	t.Helper()
	states := make([]*floodMax, g.NumNodes())
	res, err := Run(g, func(v graph.NodeID) Protocol {
		states[v] = &floodMax{t: rounds}
		return states[v]
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]graph.NodeID, len(states))
	for i, s := range states {
		out[i] = s.best
	}
	return out, res
}

func TestFloodMaxCorrect(t *testing.T) {
	g := gen.Cycle(11)
	const tRounds = 3
	got, res := runFloodMax(t, g, tRounds, Config{Seed: 1})
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if res.Rounds != tRounds+1 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, tRounds+1)
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := graph.NodeID(0)
		for _, u := range g.Ball(graph.NodeID(v), tRounds) {
			if u > want {
				want = u
			}
		}
		if got[v] != want {
			t.Fatalf("node %d learned %d, want %d", v, got[v], want)
		}
	}
}

func TestEnginesIdentical(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.04, xrand.New(5))
	for _, rounds := range []int{0, 1, 4} {
		seq, resSeq := runFloodMax(t, g, rounds, Config{Seed: 9})
		con, resCon := runFloodMax(t, g, rounds, Config{Seed: 9, Workers: 8})
		if !reflect.DeepEqual(seq, con) {
			t.Fatalf("t=%d: states differ between engines", rounds)
		}
		if resSeq.Messages != resCon.Messages || resSeq.Rounds != resCon.Rounds {
			t.Fatalf("t=%d: metrics differ: %+v vs %+v", rounds, resSeq, resCon)
		}
		if !reflect.DeepEqual(resSeq.PerRound, resCon.PerRound) {
			t.Fatalf("t=%d: per-round traffic differs", rounds)
		}
	}
}

// randomized protocol: each node draws values; engines must agree exactly.
type randProto struct{ draws []uint64 }

func (p *randProto) Step(env *Env, round int, inbox []Message) {
	p.draws = append(p.draws, env.Rand().Uint64())
	if round == 3 {
		env.Halt()
	}
}

func TestRandStreamsEngineIndependent(t *testing.T) {
	g := gen.Grid(6, 6)
	run := func(workers int) [][]uint64 {
		states := make([]*randProto, g.NumNodes())
		_, err := Run(g, func(v graph.NodeID) Protocol {
			states[v] = &randProto{}
			return states[v]
		}, Config{Seed: 123, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]uint64, len(states))
		for i, s := range states {
			out[i] = s.draws
		}
		return out
	}
	if !reflect.DeepEqual(run(0), run(-1)) {
		t.Fatal("randomness differs across engines")
	}
}

func TestMessageCounting(t *testing.T) {
	g := gen.Complete(5) // 10 edges
	_, res := runFloodMax(t, g, 2, Config{Seed: 1})
	// Rounds 0,1,2 each send over every half-edge: 3 * 2*10 = 60 messages...
	// round 2 is the halt round (no sends), so rounds 0 and 1 send: 2*20.
	if res.Messages != 40 {
		t.Fatalf("messages = %d, want 40", res.Messages)
	}
	if res.Counters["floods"] != 40 {
		t.Fatalf("counter = %d, want 40", res.Counters["floods"])
	}
	if len(res.PerRound) != 3 || res.PerRound[0] != 20 || res.PerRound[2] != 0 {
		t.Fatalf("per-round = %v", res.PerRound)
	}
}

func TestInboxOrderingCanonical(t *testing.T) {
	// Node 0 is connected to 1 and 2; both send two messages. The inbox must
	// be sorted by edge ID then send order, regardless of engine.
	g := graph.New(3)
	e01 := g.AddEdge(0, 1)
	e02 := g.AddEdge(0, 2)
	var got []string
	proto := func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			switch round {
			case 0:
				switch env.ID() {
				case 1:
					env.Send(e01, "1a")
					env.Send(e01, "1b")
				case 2:
					env.Send(e02, "2a")
					env.Send(e02, "2b")
				}
			case 1:
				if env.ID() == 0 {
					for _, m := range inbox {
						got = append(got, m.Payload.(string))
					}
				}
				env.Halt()
			}
		})
	}
	if _, err := Run(g, proto, Config{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"1a", "1b", "2a", "2b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inbox order = %v, want %v", got, want)
	}
}

func TestHaltedReceiversDropMessages(t *testing.T) {
	g := graph.New(2)
	e := g.AddEdge(0, 1)
	sawAfterHalt := false
	proto := func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 1 {
				if round > 0 && len(inbox) > 0 {
					sawAfterHalt = true
				}
				env.Halt() // halts in round 0
				return
			}
			// node 0 keeps sending
			env.Send(e, round)
			if round == 3 {
				env.Halt()
			}
		})
	}
	if _, err := Run(g, proto, Config{}); err != nil {
		t.Fatal(err)
	}
	if sawAfterHalt {
		t.Fatal("halted node was stepped with messages")
	}
}

func TestMaxRoundsAbort(t *testing.T) {
	g := gen.Cycle(4)
	res, err := Run(g, func(graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {}) // never halts
	}, Config{MaxRounds: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("non-halting protocol reported halted")
	}
	if res.Rounds != 17 {
		t.Fatalf("rounds = %d, want 17", res.Rounds)
	}
}

func TestSendNonIncidentPanics(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("send on non-incident edge did not panic")
		}
	}()
	_, _ = Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 0 {
				env.Send(e12, "bad")
			}
			env.Halt()
		})
	}, Config{})
}

func TestKT1Ports(t *testing.T) {
	g := gen.Path(3)
	check := func(kt1 bool) {
		_, err := Run(g, func(v graph.NodeID) Protocol {
			return ProtocolFunc(func(env *Env, round int, inbox []Message) {
				for _, p := range env.Ports() {
					if kt1 && p.Peer == NoPeer {
						t.Error("KT1 port missing peer")
					}
					if !kt1 && p.Peer != NoPeer {
						t.Error("KT0 port leaked peer")
					}
				}
				env.Halt()
			})
		}, Config{KT1: kt1})
		if err != nil {
			t.Fatal(err)
		}
	}
	check(false)
	check(true)
}

func TestLogNSlack(t *testing.T) {
	g := gen.Cycle(16) // log2 16 = 4
	var got float64
	_, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 0 {
				got = env.LogN()
			}
			env.Halt()
		})
	}, Config{LogNSlack: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("LogN = %v, want 10", got)
	}
	if _, err := Run(g, func(graph.NodeID) Protocol { return ProtocolFunc(func(*Env, int, []Message) {}) }, Config{LogNSlack: 0.5}); err == nil {
		t.Fatal("LogNSlack < 1 accepted")
	}
}

func TestPortsSortedByEdgeID(t *testing.T) {
	g := graph.New(4)
	// insert edges out of order
	if err := g.AddEdgeWithID(30, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeWithID(10, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeWithID(20, 0, 3); err != nil {
		t.Fatal(err)
	}
	_, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 0 {
				prev := graph.EdgeID(-1)
				for _, p := range env.Ports() {
					if p.Edge <= prev {
						t.Error("ports not sorted")
					}
					prev = p.Edge
				}
			}
			env.Halt()
		})
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := Run(nil, func(graph.NodeID) Protocol { return nil }, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestParallelEdgeDelivery(t *testing.T) {
	// Two parallel edges between 0 and 1: a message per edge must arrive
	// tagged with the right edge ID.
	g := graph.New(2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(0, 1)
	gotEdges := map[graph.EdgeID]bool{}
	_, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			switch round {
			case 0:
				if env.ID() == 0 {
					env.Send(a, "via-a")
					env.Send(b, "via-b")
				}
			case 1:
				if env.ID() == 1 {
					for _, m := range inbox {
						gotEdges[m.Edge] = true
					}
				}
				env.Halt()
			}
		})
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !gotEdges[a] || !gotEdges[b] {
		t.Fatalf("parallel edge tags missing: %v", gotEdges)
	}
}

func TestIDMapAndNOverride(t *testing.T) {
	// A 3-node path posing as nodes {10, 20, 30} of a 100-node network.
	g := gen.Path(3)
	idmap := []graph.NodeID{10, 20, 30}
	var ids []graph.NodeID
	var ns []int
	var draws []uint64
	_, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			ids = append(ids, env.ID())
			ns = append(ns, env.N())
			draws = append(draws, env.Rand().Uint64())
			env.Halt()
		})
	}, Config{Seed: 99, IDMap: idmap, NOverride: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != idmap[i] {
			t.Fatalf("node %d reports ID %d", i, id)
		}
	}
	for _, n := range ns {
		if n != 100 {
			t.Fatalf("N() = %d, want 100", n)
		}
	}
	// The RNG stream must be that of the mapped identity: compare with a
	// run on a graph where node 20 is a real index.
	g2 := gen.Path(30)
	var draw20 uint64
	_, err = Run(g2, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 20 {
				draw20 = env.Rand().Uint64()
			}
			env.Halt()
		})
	}, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if draws[1] != draw20 {
		t.Fatal("mapped node 20 drew a different stream than the real node 20")
	}
}

func TestIDMapLengthChecked(t *testing.T) {
	g := gen.Path(3)
	_, err := Run(g, func(graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) { env.Halt() })
	}, Config{IDMap: []graph.NodeID{1}})
	if err == nil {
		t.Fatal("short IDMap accepted")
	}
}

// sized is a payload with an explicit unit size.
type sized struct{ units int64 }

func (s sized) PayloadUnits() int64 { return s.units }

func TestPayloadUnitsAccounting(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if round == 0 && env.ID() == 0 {
				env.Send(e, sized{units: 10})
				env.Send(e, "plain") // non-Sizer counts as 1
			}
			if round == 1 {
				env.Halt()
			}
		})
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d", res.Messages)
	}
	if res.PayloadUnits != 11 {
		t.Fatalf("payload units = %d, want 11", res.PayloadUnits)
	}
}

func TestPayloadUnitsEngineIndependent(t *testing.T) {
	g := gen.Grid(5, 5)
	run := func(workers int) int64 {
		res, err := Run(g, func(v graph.NodeID) Protocol {
			return ProtocolFunc(func(env *Env, round int, inbox []Message) {
				if round < 2 {
					for _, p := range env.Ports() {
						env.Send(p.Edge, sized{units: int64(env.ID()) + 1})
					}
				} else {
					env.Halt()
				}
			})
		}, Config{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.PayloadUnits
	}
	if run(0) != run(-1) {
		t.Fatal("payload units differ across engines")
	}
}

func TestRunCtxCancellation(t *testing.T) {
	// A protocol that never halts; cancellation is the only way out. Both
	// engines must return ctx.Err() promptly and without deadlock.
	g := gen.Grid(6, 6)
	for _, workers := range []int{0, -1} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		cfg := Config{
			Seed:    1,
			Workers: workers,
			OnRound: func(round int, messages int64) {
				rounds++
				if rounds == 2 {
					cancel()
				}
			},
		}
		res, err := RunCtx(ctx, g, func(v graph.NodeID) Protocol {
			return ProtocolFunc(func(env *Env, round int, inbox []Message) {
				for _, p := range env.Ports() {
					env.Send(p.Edge, round)
				}
			})
		}, cfg)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The run stops within one round of the cancellation point; nothing
		// near the MaxRounds default executes.
		if res.Rounds > 3 {
			t.Fatalf("workers=%d: %d rounds ran after cancellation", workers, res.Rounds)
		}
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Path(3)
	stepped := false
	_, err := RunCtx(ctx, g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			stepped = true
			env.Halt()
		})
	}, Config{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stepped {
		t.Fatal("protocol stepped under a pre-cancelled context")
	}
}

func TestNoLedgerKeepsTotalsAndStream(t *testing.T) {
	// NoLedger must drop exactly the PerRound slice: totals, counters,
	// halting, and the OnRound stream are unchanged on both engines.
	g := gen.ConnectedGNP(40, 0.1, xrand.New(8))
	for _, workers := range []int{0, -1} {
		var ledgerMsgs, streamMsgs []int64
		withOut, withRes := runFloodMax(t, g, 3, Config{Seed: 6, Workers: workers,
			OnRound: func(r int, m int64) { ledgerMsgs = append(ledgerMsgs, m) }})
		out, res := runFloodMax(t, g, 3, Config{Seed: 6, Workers: workers, NoLedger: true,
			OnRound: func(r int, m int64) { streamMsgs = append(streamMsgs, m) }})
		if res.PerRound != nil {
			t.Fatalf("workers=%d: NoLedger run still retains %d PerRound entries", workers, len(res.PerRound))
		}
		if !reflect.DeepEqual(out, withOut) {
			t.Fatalf("workers=%d: outputs differ without the ledger", workers)
		}
		if res.Rounds != withRes.Rounds || res.Messages != withRes.Messages ||
			res.PayloadUnits != withRes.PayloadUnits || res.Halted != withRes.Halted ||
			!reflect.DeepEqual(res.Counters, withRes.Counters) {
			t.Fatalf("workers=%d: metrics drifted without the ledger: %+v vs %+v", workers, res, withRes)
		}
		if !reflect.DeepEqual(streamMsgs, ledgerMsgs) {
			t.Fatalf("workers=%d: OnRound stream drifted without the ledger", workers)
		}
		if !reflect.DeepEqual(ledgerMsgs, withRes.PerRound) {
			t.Fatalf("workers=%d: stream %v does not match ledger %v", workers, ledgerMsgs, withRes.PerRound)
		}
	}
}

// idleProto never halts and never sends: every executed round is pure
// simulator overhead, which makes per-round allocation growth measurable.
type idleProto struct{}

func (idleProto) Step(*Env, int, []Message) {}

func TestNoLedgerAllocsO1PerRound(t *testing.T) {
	// With the ledger disabled, a run's allocations must not grow with the
	// number of executed rounds: an 8x longer schedule may cost at most a
	// few more allocations (noise), not the ledger's append growth — the
	// memory contract WithRoundLedger(false) promises long schedules.
	g := gen.Path(8)
	measure := func(rounds int, noLedger bool) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Run(g, func(graph.NodeID) Protocol { return idleProto{} },
				Config{Seed: 1, MaxRounds: rounds, NoLedger: noLedger})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != rounds {
				t.Fatalf("executed %d rounds, want %d", res.Rounds, rounds)
			}
		})
	}
	short, long := measure(1000, true), measure(8000, true)
	if long > short+4 {
		t.Fatalf("allocations grew with rounds despite NoLedger: %.0f at 1000 rounds, %.0f at 8000", short, long)
	}
	// Control: the same schedule with the ledger on retains one int64 per
	// round (8000 entries), so the ledger is really what NoLedger removes.
	res, err := Run(g, func(graph.NodeID) Protocol { return idleProto{} },
		Config{Seed: 1, MaxRounds: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRound) != 8000 {
		t.Fatalf("ledger-on control retained %d entries, want 8000", len(res.PerRound))
	}
}

// busyProto saturates the message plane: every round it sends a pre-boxed
// payload over every port and bumps a counter, and it never halts. Every
// simulator-side cost of a busy round — outbox staging, delivery, inbox
// sorting, counter accounting — recurs each round, so allocation growth
// across schedules measures the steady-state cost of a busy round.
type busyProto struct{ payload any }

func (p *busyProto) Step(env *Env, round int, inbox []Message) {
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, p.payload)
	}
	env.Count("busy", 1)
}

func TestBusyRoundAllocsSteadyStateZero(t *testing.T) {
	// The zero-allocation delivery contract: once buffers have grown to the
	// workload's high-water mark, a busy round allocates nothing. An 8x
	// longer schedule of full-traffic rounds may cost at most a few more
	// allocations (noise), on both engines. This is the busy-round
	// complement of TestNoLedgerAllocsO1PerRound's quiet-round bound.
	g := gen.Grid(5, 5)
	for _, workers := range []int{0, 2} { // 0 = sequential engine
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				res, err := Run(g, func(graph.NodeID) Protocol { return &busyProto{payload: "x"} },
					Config{Seed: 1, MaxRounds: rounds, NoLedger: true,
						Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != rounds {
					t.Fatalf("executed %d rounds, want %d", res.Rounds, rounds)
				}
				if res.Counters["busy"] != int64(rounds*g.NumNodes()) {
					t.Fatalf("counter = %d", res.Counters["busy"])
				}
			})
		}
		short, long := measure(500), measure(4000)
		if long > short+8 {
			t.Fatalf("workers=%d: busy-round allocations grew with rounds: %.0f at 500 rounds, %.0f at 4000",
				workers, short, long)
		}
	}
}

// sweepPayload is the transcript payload of the worker-sweep equivalence
// test: it encodes who sent it, over which port copy, and a private random
// draw, so transcript equality pins message content, canonical inbox order,
// and RNG stream stability all at once.
type sweepPayload struct {
	From graph.NodeID
	Copy int
	Draw uint64
}

// sweepRec is one delivered message as a node's transcript records it.
type sweepRec struct {
	Round int
	Edge  graph.EdgeID
	Body  sweepPayload
}

// sweepProto multi-sends on every port (several copies per edge per round)
// and logs its inbox verbatim.
type sweepProto struct {
	t   int
	log []sweepRec
}

func (p *sweepProto) Step(env *Env, round int, inbox []Message) {
	for _, m := range inbox {
		p.log = append(p.log, sweepRec{Round: round, Edge: m.Edge, Body: m.Payload.(sweepPayload)})
	}
	if round >= p.t {
		env.Halt()
		return
	}
	copies := 1 + round%3
	for _, pt := range env.Ports() {
		for k := 0; k < copies; k++ {
			env.Send(pt.Edge, sweepPayload{From: env.ID(), Copy: k, Draw: env.Rand().Uint64()})
		}
	}
	env.Count("sweep-sends", int64(copies*env.Degree()))
}

func TestEngineEquivalenceWorkerSweep(t *testing.T) {
	// Property test: on a multigraph with parallel edges, under a protocol
	// that sends several messages per edge per round, the concurrent engine
	// must produce byte-identical Results and inbox orderings at every
	// worker count — including worker counts that do not divide n.
	g := gen.ConnectedGNP(41, 0.08, xrand.New(12))
	src := xrand.New(99)
	for k := 0; k < 30; k++ { // sprinkle parallel edges over existing ones
		e := g.Edges()[src.Uint64()%uint64(g.NumEdges())]
		g.AddEdge(e.U, e.V)
	}
	if g.IsSimple() {
		t.Fatal("test graph must contain parallel edges")
	}
	execute := func(workers int) ([][]sweepRec, Result) {
		protos := make([]*sweepProto, g.NumNodes())
		res, err := Run(g, func(v graph.NodeID) Protocol {
			protos[v] = &sweepProto{t: 5}
			return protos[v]
		}, Config{Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		logs := make([][]sweepRec, len(protos))
		for i, p := range protos {
			logs[i] = p.log
		}
		return logs, res
	}
	wantLogs, wantRes := execute(0)
	if wantRes.Messages == 0 || !wantRes.Halted {
		t.Fatalf("degenerate baseline run: %+v", wantRes)
	}
	for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
		gotLogs, gotRes := execute(workers)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: Result differs from sequential engine:\n got %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotLogs, wantLogs) {
			t.Fatalf("workers=%d: inbox transcripts differ from sequential engine", workers)
		}
	}
}

// TestSortInboxAlreadySortedFastPath pins the delivery sort's fast path: a
// staged bucket already in canonical (edge, seq) order must pass through
// sortInbox untouched (the is-sorted guard makes it the identity, exactly
// what a stable sort of a sorted slice would be), an unsorted bucket must
// still land in canonical order, and ties on the full (edge, seq) key must
// keep their staging order (stability). TestEngineEquivalenceWorkerSweep
// pins the same property end to end across both engines.
func TestSortInboxAlreadySortedFastPath(t *testing.T) {
	sorted := []Message{
		{Edge: 1, seq: 0, Payload: "a"},
		{Edge: 1, seq: 2, Payload: "b"},
		{Edge: 3, seq: 1, Payload: "c"},
		{Edge: 3, seq: 1, Payload: "d"}, // duplicate key: parallel senders
		{Edge: 7, seq: 0, Payload: "e"},
	}
	if !slices.IsSortedFunc(sorted, msgOrder) {
		t.Fatal("fixture is not canonically sorted")
	}
	got := append([]Message(nil), sorted...)
	sortInbox(got)
	if !reflect.DeepEqual(got, sorted) {
		t.Fatalf("sortInbox perturbed an already-sorted bucket:\n got %v\nwant %v", got, sorted)
	}
	if allocs := testing.AllocsPerRun(100, func() { sortInbox(got) }); allocs != 0 {
		t.Fatalf("sortInbox allocated %.1f times on the sorted fast path", allocs)
	}

	unsorted := []Message{
		{Edge: 7, seq: 0, Payload: "e"},
		{Edge: 3, seq: 1, Payload: "c"},
		{Edge: 1, seq: 2, Payload: "b"},
		{Edge: 3, seq: 1, Payload: "d"}, // ties with "c"; staged after it
		{Edge: 1, seq: 0, Payload: "a"},
	}
	sortInbox(unsorted)
	want := []Message{
		{Edge: 1, seq: 0, Payload: "a"},
		{Edge: 1, seq: 2, Payload: "b"},
		{Edge: 3, seq: 1, Payload: "c"},
		{Edge: 3, seq: 1, Payload: "d"}, // stability: "c" before "d"
		{Edge: 7, seq: 0, Payload: "e"},
	}
	if !reflect.DeepEqual(unsorted, want) {
		t.Fatalf("sortInbox mis-ordered an unsorted bucket:\n got %v\nwant %v", unsorted, want)
	}
}

// benchBusyRound prices one full-traffic round: a single run executes b.N
// busy rounds, so ns/op is the marginal cost of a round (setup amortizes
// away as b.N grows) and allocs/op exposes any steady-state allocation on
// the message plane — the zero-allocation delivery contract says it
// converges to 0.
func benchBusyRound(b *testing.B, workers int) {
	g := gen.Grid(16, 16)
	b.ReportAllocs()
	res, err := Run(g, func(graph.NodeID) Protocol { return &busyProto{payload: "x"} },
		Config{Seed: 1, MaxRounds: b.N, NoLedger: true, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Messages)/float64(b.N), "msgs/round")
}

func BenchmarkBusyRoundSequential(b *testing.B) { benchBusyRound(b, 0) }
func BenchmarkBusyRoundConcurrent(b *testing.B) { benchBusyRound(b, 4) }

func TestOnRoundObserver(t *testing.T) {
	// OnRound must fire once per executed round, with per-round message
	// counts matching the result's ledger, in both engines.
	g := gen.Grid(4, 4)
	for _, workers := range []int{0, -1} {
		var rounds []int
		var msgs []int64
		res, err := Run(g, func(v graph.NodeID) Protocol {
			return ProtocolFunc(func(env *Env, round int, inbox []Message) {
				if round >= 3 {
					env.Halt()
					return
				}
				for _, p := range env.Ports() {
					env.Send(p.Edge, "x")
				}
			})
		}, Config{Seed: 2, Workers: workers, OnRound: func(r int, m int64) {
			rounds = append(rounds, r)
			msgs = append(msgs, m)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rounds) != res.Rounds {
			t.Fatalf("workers=%d: observer saw %d rounds, result has %d", workers, len(rounds), res.Rounds)
		}
		for i, r := range rounds {
			if r != i {
				t.Fatalf("round indices out of order: %v", rounds)
			}
			if msgs[i] != res.PerRound[i] {
				t.Fatalf("round %d: observed %d messages, ledger has %d", i, msgs[i], res.PerRound[i])
			}
		}
	}
}
