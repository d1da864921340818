package simulate

// Tests of the parallel replay path: byte-identical outputs at every
// concurrency level, deterministic behaviour under cancellation (including
// mid-replay, exercised under -race in CI), and a fuzz target generalizing
// the corrupt-collection detection to arbitrary byte flips.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// TestReplayAllNMatchesSequential is the acceptance check for the parallel
// replay path: the output vector must be byte-identical to the sequential
// path at every tested concurrency level.
func TestReplayAllNMatchesSequential(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.07, xrand.New(21))
	ctx := context.Background()
	for _, spec := range []algorithms.Spec{
		algorithms.MaxID(2),
		algorithms.MIS(algorithms.MISRounds(g.NumNodes())),
	} {
		coll, err := Collect(ctx, g, g, spec.T, 9, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := coll.ReplayAllN(ctx, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, conc := range []int{0, 1, 2, 3, 8, -1} {
			got, err := coll.ReplayAllN(ctx, spec, conc)
			if err != nil {
				t.Fatalf("%s conc=%d: %v", spec.Name, conc, err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s conc=%d node %d: %v != sequential %v",
						spec.Name, conc, v, got[v], want[v])
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
			switch op % 4 {
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
			}
		}
		// Replay a sample of nodes. Detected corruption surfaces as an
		// error; undetected corruption may change the output; neither may
		// panic or hang.
		for _, v := range []graph.NodeID{0, graph.NodeID(c.N / 2), graph.NodeID(c.N - 1)} {
			out, err := c.Replay(spec, v)
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
