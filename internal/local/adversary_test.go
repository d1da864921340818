package local

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// compileProfile is the test shorthand for binding a profile to a run seed.
func compileProfile(t *testing.T, p adversary.Profile, seed uint64) *adversary.Adversary {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return adversary.Compile(p, seed)
}

// TestAdversaryEngineEquivalenceWorkerSweep is the adversarial twin of
// TestEngineEquivalenceWorkerSweep: under a profile combining drops, dups,
// delays, and one crash, both engines must produce byte-identical Results
// and inbox transcripts at every worker count. Adversary decisions are pure
// hashes of message identity, so sharding must not be able to perturb them.
func TestAdversaryEngineEquivalenceWorkerSweep(t *testing.T) {
	g := gen.ConnectedGNP(41, 0.08, xrand.New(12))
	src := xrand.New(99)
	for k := 0; k < 30; k++ { // parallel edges stress the (edge, seq) keying
		e := g.Edges()[src.Uint64()%uint64(g.NumEdges())]
		g.AddEdge(e.U, e.V)
	}
	profile := adversary.Profile{
		Name:       "sweep-mixed",
		Seed:       0xbeef,
		DropRate:   0.15,
		DupRate:    0.10,
		DelayBound: 2,
		Crashes:    []adversary.Crash{{Node: 4, Round: 2}},
	}
	execute := func(workers int) ([][]sweepRec, Result) {
		protos := make([]*sweepProto, g.NumNodes())
		res, err := Run(g, func(v graph.NodeID) Protocol {
			protos[v] = &sweepProto{t: 6}
			return protos[v]
		}, Config{Seed: 21, Workers: workers,
			Adversary: compileProfile(t, profile, 21)})
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
	if wantRes.Messages == 0 || wantRes.Dropped == 0 || wantRes.Duplicated == 0 || wantRes.Crashed != 1 {
		t.Fatalf("degenerate adversarial baseline: %+v", wantRes)
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		gotLogs, gotRes := execute(workers)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: Result differs from sequential engine:\n got %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotLogs, wantLogs) {
			t.Fatalf("workers=%d: inbox transcripts differ from sequential engine", workers)
		}
	}
}

// TestAdversaryDropBillsHonestly pins the honest billing contract under total
// loss: every send is billed in Messages and counted in Dropped, and nothing
// is delivered.
func TestAdversaryDropBillsHonestly(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	received := 0
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			received += len(inbox)
			if round == 3 {
				env.Halt()
				return
			}
			env.Send(e, round)
		})
	}, Config{Seed: 7, Adversary: compileProfile(t, adversary.Profile{DropRate: 1, Seed: 1}, 7)})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 0..2 send on both half-edges: 6 messages, all billed, all lost.
	if res.Messages != 6 {
		t.Fatalf("messages = %d, want 6 (drops are billed)", res.Messages)
	}
	if res.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", res.Dropped)
	}
	if received != 0 {
		t.Fatalf("%d messages slipped through a 100%% drop adversary", received)
	}
}

// TestAdversaryDuplicateBillsAndDelivers pins duplication: at DupRate 1 every
// message is delivered twice, billed as two messages, and counted once in
// Duplicated, with the copies adjacent in the canonical inbox order.
func TestAdversaryDuplicateBillsAndDelivers(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	var got []any
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 1 {
				for _, m := range inbox {
					got = append(got, m.Payload)
				}
			}
			if round == 1 {
				env.Halt()
				return
			}
			if env.ID() == 0 {
				env.Send(e, "a")
				env.Send(e, "b")
			}
		})
	}, Config{Seed: 3, Adversary: compileProfile(t, adversary.Profile{DupRate: 1, Seed: 2}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 4 { // 2 sends, each billed twice
		t.Fatalf("messages = %d, want 4", res.Messages)
	}
	if res.Duplicated != 2 {
		t.Fatalf("duplicated = %d, want 2", res.Duplicated)
	}
	want := []any{"a", "a", "b", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inbox = %v, want %v (duplicates adjacent, canonical order)", got, want)
	}
}

// TestAdversaryDelayArrival pins the delay semantics: a message sent in
// round r over edge e arrives in round r+1+δ(e), per-edge FIFO.
func TestAdversaryDelayArrival(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	profile := adversary.Profile{DelayBound: 3, Seed: 5}
	const seed = 11
	adv := compileProfile(t, profile, seed)
	delta := adv.Delay(e)
	if delta <= 0 {
		t.Fatalf("fixture needs a delayed edge, got δ=%d (pick another seed)", delta)
	}
	type arrival struct {
		Round   int
		Payload any
	}
	var got []arrival
	_, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 1 {
				for _, m := range inbox {
					got = append(got, arrival{Round: round, Payload: m.Payload})
				}
			}
			if env.ID() == 0 && round <= 1 {
				env.Send(e, round)
			}
			if round == 8 {
				env.Halt()
			}
		})
	}, Config{Seed: seed, Adversary: compileProfile(t, profile, seed)})
	if err != nil {
		t.Fatal(err)
	}
	want := []arrival{
		{Round: 1 + delta, Payload: 0},
		{Round: 2 + delta, Payload: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrivals = %v, want %v (sent r arrives r+1+δ, FIFO)", got, want)
	}
}

// TestAdversaryCrashStop pins crash-stop semantics: the node stops stepping
// at its scheduled round, messages addressed to it are billed and counted
// dropped, Result.Crashed reports it, and Halted still goes true once the
// survivors halt.
func TestAdversaryCrashStop(t *testing.T) {
	g := gen.Path(3) // 0-1-2
	stepRounds := make(map[graph.NodeID]int)
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			stepRounds[env.ID()]++
			for _, pt := range env.Ports() {
				env.Send(pt.Edge, round)
			}
			if round == 4 {
				env.Halt()
			}
		})
	}, Config{Seed: 2, Adversary: compileProfile(t, adversary.Profile{
		Crashes: []adversary.Crash{{Node: 1, Round: 2}},
	}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if stepRounds[1] != 2 {
		t.Fatalf("crashed node stepped %d rounds, want 2 (rounds 0 and 1)", stepRounds[1])
	}
	if stepRounds[0] != 5 || stepRounds[2] != 5 {
		t.Fatalf("survivors stepped %d/%d rounds, want 5", stepRounds[0], stepRounds[2])
	}
	if res.Crashed != 1 {
		t.Fatalf("crashed = %d, want 1", res.Crashed)
	}
	if !res.Halted {
		t.Fatal("run with a crashed node did not report Halted")
	}
	// Rounds 2..4: nodes 0 and 2 each send one message to the dead node 1
	// per round — billed and dropped. (Round 4 sends happen before Halt.)
	if res.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6 (sends to the crashed node)", res.Dropped)
	}
}

// TestAdversaryEdgeEvents pins dynamic topology: an inserted edge is usable
// from its round on (ports views rebuild), a deleted edge vanishes, and
// sends staged over an edge deleted in the same delivery window are billed
// and dropped, never delivered or panicking.
func TestAdversaryEdgeEvents(t *testing.T) {
	g := gen.Path(3) // 0-1-2; no 0-2 edge yet
	profile := adversary.Profile{
		EdgeEvents: []adversary.EdgeEvent{
			{Round: 2, Op: adversary.InsertEdge, U: 0, V: 2},
			{Round: 4, Op: adversary.DeleteEdge, U: 0, V: 2},
		},
	}
	type rec struct {
		Round int
		Edge  graph.EdgeID
	}
	var at2 []rec // node 2's arrivals
	degrees := make(map[int]int)
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			if env.ID() == 2 {
				degrees[round] = env.Degree()
				for _, m := range inbox {
					at2 = append(at2, rec{Round: round, Edge: m.Edge})
				}
			}
			if env.ID() == 0 {
				for _, pt := range env.Ports() {
					env.Send(pt.Edge, round)
				}
			}
			if round == 6 {
				env.Halt()
			}
		})
	}, Config{Seed: 4, Adversary: compileProfile(t, profile, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 gains the inserted edge at round 2 and loses it at round 4.
	if degrees[1] != 1 || degrees[2] != 2 || degrees[4] != 1 {
		t.Fatalf("node 2 degrees = %v, want 1 before, 2 during, 1 after the edge's life", degrees)
	}
	// Node 0 reaches node 2 directly only in rounds 2 and 3 (arriving 3, 4).
	direct := 0
	for _, r := range at2 {
		if r.Edge >= graph.EdgeID(2) { // the inserted edge gets a fresh ID past the path's 0,1
			direct++
			if r.Round != 3 && r.Round != 4 {
				t.Fatalf("direct arrival at round %d, want only rounds 3 and 4 (%v)", r.Round, at2)
			}
		}
	}
	if direct != 2 {
		t.Fatalf("node 2 heard %d direct messages, want 2 (rounds 2 and 3 sends)", direct)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (no send raced the deletion)", res.Dropped)
	}
}

// TestAdversaryVoidSendDropped pins the vanished-edge tolerance: a protocol
// that cached a port from before a deletion may still Send on it; the send
// is billed and counted dropped instead of panicking.
func TestAdversaryVoidSendDropped(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	profile := adversary.Profile{
		EdgeEvents: []adversary.EdgeEvent{{Round: 1, Op: adversary.DeleteEdge, U: 0, V: 1}},
	}
	received := 0
	res, err := Run(g, func(v graph.NodeID) Protocol {
		return ProtocolFunc(func(env *Env, round int, inbox []Message) {
			received += len(inbox)
			if env.ID() == 0 && round <= 2 {
				env.Send(e, round) // round 1's and 2's sends hit a deleted edge
			}
			if round == 3 {
				env.Halt()
			}
		})
	}, Config{Seed: 6, Adversary: compileProfile(t, profile, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3 {
		t.Fatalf("messages = %d, want 3 (void sends are billed)", res.Messages)
	}
	if res.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (the post-deletion sends)", res.Dropped)
	}
	if received != 1 {
		t.Fatalf("received = %d, want 1 (only round 0's send lands)", received)
	}
}

// TestStopWhenDefersWhileInFlight pins the in-flight gate: central
// termination detection must not fire while delayed messages are still
// undelivered, so a run whose StopWhen is true from round 0 still outlives
// every flight.
func TestStopWhenDefersWhileInFlight(t *testing.T) {
	g := gen.Path(2)
	e := g.Edges()[0].ID
	profile := adversary.Profile{DelayBound: 3, Seed: 5}
	const seed = 11
	delta := adversary.Compile(profile, seed).Delay(e)
	if delta <= 0 {
		t.Fatalf("fixture needs a delayed edge, got δ=%d", delta)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{}},
		{"concurrent", Config{Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = seed
			cfg.MaxRounds = 10
			cfg.Adversary = compileProfile(t, profile, seed)
			cfg.StopWhen = func(round int, sent int64) bool { return true }
			res, err := Run(g, func(v graph.NodeID) Protocol {
				return ProtocolFunc(func(env *Env, round int, inbox []Message) {
					if env.ID() == 0 && round == 0 {
						env.Send(e, "x")
					}
				})
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Without the gate the always-true predicate ends the run at
			// round 0, stranding the flight in the ring. With it, the stop
			// defers to the end of round δ — the first round whose delivery
			// drained the flight into the receiver's inbox.
			if res.Rounds != delta+1 {
				t.Fatalf("rounds = %d, want %d (stop deferred past the flight)", res.Rounds, delta+1)
			}
		})
	}
}
