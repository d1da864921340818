package simulate

// Tests of the parallel replay path: byte-identical outputs at every
// concurrency level, deterministic behaviour under cancellation (including
// mid-replay, exercised under -race in CI), and a fuzz target generalizing
// the corrupt-collection detection to arbitrary byte flips.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// TestReplayAllNMatchesSequential is the acceptance check for the parallel
// replay path and its per-worker replayers. On complete, torus, path and
// GNP graphs, with MaxID and MIS at t in {1, 2, 3} and MIS at its default
// budget, ReplayAllN at every tested concurrency must equal per-node
// Replay, and so must one replayer driven through every collection in turn
// — networks that grow and shrink, balls with synthetic phantoms
// (collected over t rounds) and with known-origin phantoms (collected over
// t+1). A leak of any scratch state between replays or collections shows
// up as a differing output.
func TestReplayAllNMatchesSequential(t *testing.T) {
	ctx := context.Background()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete20", gen.Complete(20)},
		{"torus6x6", gen.Torus(6, 6)},
		{"path9", gen.Path(9)},
		{"gnp80", gen.ConnectedGNP(80, 0.07, xrand.New(21))},
	}
	var shared replayer
	for _, gc := range graphs {
		specs := []algorithms.Spec{algorithms.MIS(algorithms.MISRounds(gc.g.NumNodes()))}
		for tt := 1; tt <= 3; tt++ {
			specs = append(specs, algorithms.MaxID(tt), algorithms.MIS(tt))
		}
		for _, spec := range specs {
			for _, rounds := range []int{spec.T, spec.T + 1} {
				coll, err := Collect(ctx, gc.g, gc.g, rounds, uint64(7+spec.T), local.Config{})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/t=%d/rounds=%d", gc.name, spec.Name, spec.T, rounds)
				want := make([]any, gc.g.NumNodes())
				for v := range want {
					if want[v], err = coll.Replay(spec, graph.NodeID(v)); err != nil {
						t.Fatalf("%s node %d: %v", name, v, err)
					}
					got, err := shared.replay(coll, spec, graph.NodeID(v))
					if err != nil || got != want[v] {
						t.Fatalf("%s node %d: shared replayer (%v, %v), fresh %v", name, v, got, err, want[v])
					}
				}
				for _, conc := range []int{0, 1, 2, 3, 8, -1} {
					got, err := coll.ReplayAllN(ctx, spec, conc)
					if err != nil {
						t.Fatalf("%s conc=%d: %v", name, conc, err)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s conc=%d node %d: %v, per-node replay %v", name, conc, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestReplayAllNCancellationMidReplay cancels the context from inside a
// replay (after a fixed number of protocol instantiations) and checks every
// concurrency level unwinds promptly with the context error.
func TestReplayAllNCancellationMidReplay(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.05, xrand.New(22))
	base := algorithms.MaxID(2)
	coll, err := Collect(context.Background(), g, g, base.T, 9, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{0, 4, -1} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		spec := base
		spec.New = func(v graph.NodeID) local.Protocol {
			if started.Add(1) == 5 {
				cancel()
			}
			return base.New(v)
		}
		_, err := coll.ReplayAllN(ctx, spec, conc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: got %v, want context.Canceled", conc, err)
		}
		if started.Load() == 0 {
			t.Fatalf("conc=%d: cancelled before any replay started", conc)
		}
		cancel()
	}
}

// TestReplayAllNPreCancelled checks that an already-cancelled context stops
// the sweep before any replay runs.
func TestReplayAllNPreCancelled(t *testing.T) {
	g := gen.Path(6)
	base := algorithms.MaxID(1)
	coll, err := Collect(context.Background(), g, g, base.T, 1, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	spec := base
	spec.New = func(v graph.NodeID) local.Protocol {
		started.Add(1)
		return base.New(v)
	}
	for _, conc := range []int{0, -1} {
		if _, err := coll.ReplayAllN(ctx, spec, conc); !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: got %v, want context.Canceled", conc, err)
		}
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d replays ran under a pre-cancelled context", n)
	}
}

// TestReplayRejectsOutOfRangeOrigin pins the origin range check: an origin
// outside [0, N) would alias a synthetic phantom (whose IDs count up from N)
// or index past the replayer's NodeID-indexed scratch, so Replay rejects it
// with an error naming the replayed node and the origin. The first case is
// the original repro: on Path(5) the phantom for edge 99 used to resolve to
// the forged node 5 and fail as a misleading self-loop. In the second, the
// forged node sits beyond the ball and used to be accepted silently.
func TestReplayRejectsOutOfRangeOrigin(t *testing.T) {
	spec := algorithms.MaxID(2)
	for _, tc := range []struct {
		name   string
		origin graph.NodeID
		ports  []graph.EdgeID
		drop   graph.NodeID // origin deleted from node 0's knowledge, -1 for none
		want   string
	}{
		{"phantom-alias-in-ball", 5, []graph.EdgeID{1, 99}, 2, "node 0 heard of origin 5 outside [0, 5)"},
		{"phantom-id-beyond-ball", 5, []graph.EdgeID{2}, -1, "node 0 heard of origin 5 outside [0, 5)"},
		{"negative", -3, []graph.EdgeID{2}, -1, "node 0 heard of origin -3 outside [0, 5)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Path(5)
			coll, err := Collect(context.Background(), g, g, spec.T, 1, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			coll.Ports[0][tc.origin] = tc.ports
			delete(coll.Ports[0], tc.drop)
			_, err = coll.Replay(spec, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Replay error %v, want one containing %q", err, tc.want)
			}
			_, err = coll.ReplayAllN(context.Background(), spec, 0)
			if err == nil || !strings.Contains(err.Error(), "node 0: simulate: "+tc.want) {
				t.Fatalf("ReplayAllN error %v, want node 0's %q", err, tc.want)
			}
			// The other nodes never heard of the forged origin.
			for v := 1; v < g.NumNodes(); v++ {
				if _, err := coll.Replay(spec, graph.NodeID(v)); err != nil {
					t.Fatalf("node %d: %v", v, err)
				}
			}
		})
	}
}

// cloneCollection deep-copies the mutable parts of a collection so fuzz
// mutations cannot leak across fuzz iterations.
func cloneCollection(c *Collection) *Collection {
	out := &Collection{N: c.N, Seed: c.Seed, Run: c.Run}
	out.Ports = make([]map[graph.NodeID][]graph.EdgeID, len(c.Ports))
	for v, m := range c.Ports {
		cm := make(map[graph.NodeID][]graph.EdgeID, len(m))
		for origin, ports := range m {
			cm[origin] = append([]graph.EdgeID(nil), ports...)
		}
		out.Ports[v] = cm
	}
	return out
}

// sortedOrigins returns a collection node's known origins in ascending
// order, so fuzz mutations are deterministic for a given input.
func sortedOrigins(m map[graph.NodeID][]graph.EdgeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for origin := range m {
		out = append(out, origin)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FuzzReplayDetectsCorruption generalizes TestReplayDetectsCorruptCollection
// to arbitrary corruption of the collected balls: byte flips in collected
// edge IDs, injected and dropped ports, and forged origins. The invariant is
// that Replay never panics or hangs on a corrupt collection — it either
// detects the corruption and errors, or degrades to a (possibly wrong)
// output; both are acceptable, a crash is not.
func FuzzReplayDetectsCorruption(f *testing.F) {
	g := gen.ConnectedGNP(24, 0.15, xrand.New(31))
	spec := algorithms.MaxID(2)
	base, err := Collect(context.Background(), g, g, spec.T, 1, local.Config{})
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: one op per mutation kind, plus a multi-op mix.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{3, 0, 7, 1})
	f.Add([]byte{5, 1, 2, 200})
	f.Add([]byte{1, 2, 3, 4, 9, 1, 0, 255, 17, 3, 5, 8})
	f.Add([]byte{2, 4, 1, 0, 7, 4, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := cloneCollection(base)
		mutated := false
		for len(data) >= 4 {
			v := int(data[0]) % len(c.Ports)
			op, a, b := data[1], data[2], data[3]
			data = data[4:]
			m := c.Ports[v]
			origins := sortedOrigins(m)
			if len(origins) == 0 {
				continue
			}
			origin := origins[int(a)%len(origins)]
			ports := m[origin]
			switch op % 5 {
			case 0: // flip one byte of a collected edge ID
				if mask := graph.EdgeID(uint64(a) << (8 * (b % 8))); mask != 0 && len(ports) > 0 {
					i := int(b) % len(ports)
					ports[i] ^= mask
					mutated = true
				}
			case 1: // inject a foreign (possibly duplicate) port
				m[origin] = append(ports, graph.EdgeID(int64(a)<<8|int64(b)))
				mutated = true
			case 2: // drop a port
				if len(ports) > 0 {
					i := int(b) % len(ports)
					m[origin] = append(ports[:i:i], ports[i+1:]...)
					mutated = true
				}
			case 3: // forge an origin with a stolen port list
				if target := graph.NodeID(int(a) % c.N); target != origin {
					m[target] = append([]graph.EdgeID(nil), ports...)
					mutated = true
				}
			case 4: // forge an origin outside [0, N): a synthetic phantom's ID, or negative
				target := graph.NodeID(c.N + int(a))
				if b%2 == 1 {
					target = graph.NodeID(-1 - int(a))
				}
				m[target] = append([]graph.EdgeID(nil), ports...)
				mutated = true
			}
		}
		// Replay every node on one reused replayer and in a sequential
		// sweep: each must agree, output or error, with a fresh per-node
		// Replay, so no scratch state survives a replay — an error return
		// included.
		outs := make([]any, c.N)
		errs := make([]error, c.N)
		var wantErr error
		for v := range outs {
			outs[v], errs[v] = c.Replay(spec, graph.NodeID(v))
			if errs[v] != nil && wantErr == nil {
				wantErr = fmt.Errorf("node %d: %w", v, errs[v])
			}
		}
		var shared replayer
		for v := range outs {
			out, err := shared.replay(c, spec, graph.NodeID(v))
			if fmt.Sprint(err) != fmt.Sprint(errs[v]) || out != outs[v] {
				t.Fatalf("reused replayer at node %d: (%v, %v), fresh replay (%v, %v)", v, out, err, outs[v], errs[v])
			}
		}
		all, err := c.ReplayAllN(context.Background(), spec, 0)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReplayAllN error %v, per-node replays give %v", err, wantErr)
		}
		for v := range all {
			if all[v] != outs[v] {
				t.Fatalf("ReplayAllN node %d: %v, per-node replay %v", v, all[v], outs[v])
			}
		}
		// Detected corruption surfaces as an error; undetected corruption
		// may change the output; neither may panic or hang.
		for _, v := range []graph.NodeID{0, graph.NodeID(c.N / 2), graph.NodeID(c.N - 1)} {
			out, err := outs[v], errs[v]
			if !mutated {
				// Uncorrupted clone: replay must still succeed and agree
				// with the pristine collection.
				if err != nil {
					t.Fatalf("clean clone replay at %d failed: %v", v, err)
				}
				want, werr := base.Replay(spec, v)
				if werr != nil {
					t.Fatal(werr)
				}
				if out != want {
					t.Fatalf("clean clone replay at %d drifted: %v != %v", v, out, want)
				}
			}
		}
	})
}
