package local

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// lubyProto is a randomized, counter-heavy protocol in the shape of Luby's
// MIS: even rounds exchange random priorities, odd rounds let local maxima
// join and knock their neighbours out, and nodes halt as they decide. Its
// two counter names and early halts exercise the counter registry and the
// halted-inbox path across reused runs.
type lubyProto struct {
	t     int
	state int // 0 undecided, 1 joined, 2 knocked out
	prio  uint64
}

type lubyJoined struct{}

func (p *lubyProto) Step(env *Env, round int, inbox []Message) {
	for _, m := range inbox {
		if _, ok := m.Payload.(lubyJoined); ok && p.state == 0 {
			p.state = 2
		}
	}
	if p.state != 0 || round == p.t {
		env.Halt()
		return
	}
	if round%2 == 0 {
		p.prio = env.Rand().Uint64()
		for _, pt := range env.Ports() {
			env.Send(pt.Edge, p.prio)
		}
		env.Count("mis.prio", int64(env.Degree()))
		return
	}
	for _, m := range inbox {
		if pr, ok := m.Payload.(uint64); ok && pr >= p.prio {
			return
		}
	}
	p.state = 1
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, lubyJoined{})
	}
	env.Count("mis.join", 1)
}

// heldPayloads counts the references a Runner still holds between runs: any
// non-nil payload in the reused inboxes or staging buckets (up to their
// capacity), any protocol slot, and the run's graph, adversary and delay
// ring.
func heldPayloads(rn *Runner) int {
	r := &rn.r
	held := 0
	for _, in := range r.inbox[:cap(r.inbox)] {
		for _, m := range in[:cap(in)] {
			if m.Payload != nil {
				held++
			}
		}
	}
	for _, row := range r.stages {
		for _, bucket := range row {
			for _, m := range bucket[:cap(bucket)] {
				if m.body != nil {
					held++
				}
			}
		}
	}
	for _, p := range r.protos[:cap(r.protos)] {
		if p != nil {
			held++
		}
	}
	if r.g != nil || r.adv != nil || r.future != nil {
		held++
	}
	return held
}

// TestRunnerReuseMatchesFresh drives one Runner through runs that grow and
// shrink n, switch protocols, toggle KT1, IDMap, NOverride and the ledger,
// cover every engine setting, and apply drop, delay, crash and edge-event
// adversaries. Every Result and every node's output must equal a fresh
// RunCtx of the same run, and between runs the Runner must hold no payload.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	maxid := func(t int) (Factory, func() []any) {
		var states []*floodMax
		return func(graph.NodeID) Protocol {
				p := &floodMax{t: t}
				states = append(states, p)
				return p
			}, func() []any {
				out := make([]any, len(states))
				for i, s := range states {
					out[i] = s.best
				}
				return out
			}
	}
	mis := func(t int) (Factory, func() []any) {
		var states []*lubyProto
		return func(graph.NodeID) Protocol {
				p := &lubyProto{t: t}
				states = append(states, p)
				return p
			}, func() []any {
				out := make([]any, len(states))
				for i, s := range states {
					out[i] = s.state
				}
				return out
			}
	}
	profile := func(name string) *adversary.Adversary {
		p, ok := adversary.Named(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		return compileProfile(t, p, 17)
	}
	reversed := func(n, offset int) []graph.NodeID {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(offset + n - 1 - i)
		}
		return ids
	}
	gnp := func(n int, p float64, seed uint64) *graph.Graph { return gen.ConnectedGNP(n, p, xrand.New(seed)) }

	cases := []struct {
		name  string
		g     *graph.Graph
		proto func(int) (Factory, func() []any)
		t     int
		cfg   Config
	}{
		{"maxid-gnp41", gnp(41, 0.08, 1), maxid, 4, Config{Seed: 3}},
		{"mis-gnp60-kt1", gnp(60, 0.07, 2), mis, 9, Config{Seed: 4, KT1: true, Workers: 2}},
		{"maxid-path7-idmap", gen.Path(7), maxid, 3, Config{Seed: 5, KT1: true, IDMap: reversed(7, 90), NOverride: 100}},
		{"mis-gnp41-drop10", gnp(41, 0.08, 1), mis, 9, Config{Seed: 6, Workers: -1, Adversary: profile("drop10")}},
		{"maxid-gnp30-delay2", gnp(30, 0.1, 3), maxid, 5, Config{Seed: 7, Workers: 2, Adversary: profile("delay2")}},
		{"mis-gnp41-crash2", gnp(41, 0.08, 4), mis, 9, Config{Seed: 8, Adversary: profile("crash2")}},
		{"maxid-gnp41-dynamic", gnp(41, 0.08, 5), maxid, 5, Config{Seed: 9, Workers: -1, Adversary: profile("dynamic")}},
		{"maxid-gnp80-noledger", gnp(80, 0.05, 6), maxid, 4, Config{Seed: 10, NoLedger: true}},
		{"mis-path3", gen.Path(3), mis, 5, Config{Seed: 11, Workers: 2, IDMap: reversed(3, 0)}},
		{"maxid-gnp41-again", gnp(41, 0.08, 1), maxid, 4, Config{Seed: 3, Workers: 2}},
	}
	var rn Runner
	for _, tc := range cases {
		ctx := context.Background()
		fresh, freshOut := tc.proto(tc.t)
		want, err := RunCtx(ctx, tc.g, fresh, tc.cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", tc.name, err)
		}
		reused, reusedOut := tc.proto(tc.t)
		got, err := rn.Run(ctx, tc.g, reused, tc.cfg)
		if err != nil {
			t.Fatalf("%s reused: %v", tc.name, err)
		}
		if want.Messages == 0 || len(want.Counters) == 0 {
			t.Fatalf("%s: degenerate run %+v", tc.name, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused Result differs from a fresh run:\n got %+v\nwant %+v", tc.name, got, want)
		}
		if g, w := reusedOut(), freshOut(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: reused outputs differ from a fresh run:\n got %v\nwant %v", tc.name, g, w)
		}
		if n := heldPayloads(&rn); n != 0 {
			t.Fatalf("%s: Runner holds %d references after the run", tc.name, n)
		}
	}
}

// TestRunnerReleasesOnCancel cancels a reused run mid-round, with staged
// sends still in the buckets, and requires the Runner to release them and to
// execute the next run exactly as a fresh one.
func TestRunnerReleasesOnCancel(t *testing.T) {
	g := gen.ConnectedGNP(50, 0.1, xrand.New(7))
	var rn Runner
	for _, workers := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var steps atomic.Int64
		_, err := rn.Run(ctx, g, func(graph.NodeID) Protocol {
			return ProtocolFunc(func(env *Env, round int, _ []Message) {
				for _, pt := range env.Ports() {
					env.Send(pt.Edge, fmt.Sprint(round))
				}
				if steps.Add(1) == 70 {
					cancel()
				}
			})
		}, Config{Seed: 1, Workers: workers, MaxRounds: 10})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned no error", workers)
		}
		if n := heldPayloads(&rn); n != 0 {
			t.Fatalf("workers=%d: Runner holds %d references after a cancelled run", workers, n)
		}
		got, gotOut := runFloodMaxOn(t, &rn, g, Config{Seed: 2, Workers: workers})
		want, wantOut := runFloodMaxOn(t, new(Runner), g, Config{Seed: 2, Workers: workers})
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("workers=%d: run after a cancelled one differs from a fresh run", workers)
		}
	}
}

func runFloodMaxOn(t *testing.T, rn *Runner, g *graph.Graph, cfg Config) (Result, []graph.NodeID) {
	t.Helper()
	states := make([]*floodMax, g.NumNodes())
	res, err := rn.Run(context.Background(), g, func(v graph.NodeID) Protocol {
		states[v] = &floodMax{t: 4}
		return states[v]
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]graph.NodeID, len(states))
	for i, s := range states {
		out[i] = s.best
	}
	return res, out
}
