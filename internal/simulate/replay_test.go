package simulate

// Tests of the parallel replay path: byte-identical outputs at every
// concurrency level, deterministic behaviour under cancellation (including
// mid-replay, exercised under -race in CI), and a fuzz target generalizing
// the corrupt-collection detection to arbitrary byte flips.

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// replay path, its per-worker replayers, and light-cone replay. On
// complete, torus, path and GNP graphs, with MaxID and MIS at t in
// {1, 2, 3} and MIS at its default budget, every node's replay must equal
// the all-stepping reference replay of the same ball — from a fresh
// Replay, from ReplayAllN at every tested concurrency, and from one
// replayer driven through every collection in turn: networks that grow and
// shrink, balls with synthetic phantoms at the rim (collected over t
// rounds), with known-origin phantoms (collected over t+1), and incomplete
// copies of each collection, whose missing origins put synthetic phantoms
// inside the ball, where they must step. Every replay of a complete
// collection must succeed; an incomplete one may fail only with the
// reference's error. A leak of any scratch state between replays or
// collections shows up as a differing output.
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
				checkReplays(t, name, &shared, coll, spec, true, 0, 1, 2, 3, 8, -1)
				for _, drop := range [][2]int{{3, 1}, {4, 0}, {7, 2}} {
					checkReplays(t, fmt.Sprintf("%s/drop%d:%d", name, drop[0], drop[1]), &shared, dropOrigins(coll, drop[0], drop[1]), spec, false, 0)
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
// or index past the table and the replayer's NodeID-indexed scratch, so
// Replay rejects a heard set naming one with an error naming the replayed
// node and the origin. In the first case the forged origin 5 on Path(5)
// has the ID of the phantom that replaces the dropped node 2; in the
// second, the forged node would sit beyond the ball.
func TestReplayRejectsOutOfRangeOrigin(t *testing.T) {
	spec := algorithms.MaxID(2)
	for _, tc := range []struct {
		name   string
		origin graph.NodeID
		drop   graph.NodeID // origin deleted from node 0's heard set, -1 for none
		want   string
	}{
		{"phantom-alias-in-ball", 5, 2, "node 0 heard of origin 5 outside [0, 5)"},
		{"phantom-id-beyond-ball", 5, -1, "node 0 heard of origin 5 outside [0, 5)"},
		{"negative", -3, -1, "node 0 heard of origin -3 outside [0, 5)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Path(5)
			coll, err := Collect(context.Background(), g, g, spec.T, 1, local.Config{})
			if err != nil {
				t.Fatal(err)
			}
			coll.Ports[0] = deleteOrigin(insertOrigin(coll.Ports[0], tc.origin), tc.drop)
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

// cloneCollection deep-copies the table and the heard sets of a collection
// so fuzz mutations cannot leak across fuzz iterations. The copy pairs its
// own table on its first replay.
func cloneCollection(c *Collection) *Collection {
	table := make([][]graph.EdgeID, len(c.Table))
	for u, row := range c.Table {
		table[u] = slices.Clone(row)
	}
	heard := make([][]graph.NodeID, len(c.Ports))
	for v, h := range c.Ports {
		heard[v] = slices.Clone(h)
	}
	return newCollection(table, heard, c.Seed, c.Run)
}

// insertOrigin adds origin o to the ascending heard set h at its place, if
// h lacks it.
func insertOrigin(h []graph.NodeID, o graph.NodeID) []graph.NodeID {
	if i, ok := slices.BinarySearch(h, o); !ok {
		return slices.Insert(h, i, o)
	}
	return h
}

// deleteOrigin removes origin o from the ascending heard set h, if h has it.
func deleteOrigin(h []graph.NodeID, o graph.NodeID) []graph.NodeID {
	if i, ok := slices.BinarySearch(h, o); ok {
		return slices.Delete(h, i, i+1)
	}
	return h
}

// FuzzReplayDetectsCorruption generalizes TestReplayDetectsCorruptCollection
// to arbitrary corruption of a collection: byte flips in the table's edge
// IDs, injected and dropped table ports, forged origins in the heard sets,
// in range and out of it, deleted origins, two adjacent origins swapped out
// of ascending order, and a duplicated origin. The first byte picks the
// base collection: a GNP collected over t rounds, whose heard sets are
// open, or K_12 collected on itself, whose heard sets are all closed, so
// that ReplayAllN shares one run among them. The invariant is that Replay
// never panics or hangs on a corrupt collection — it either detects the
// corruption and errors, or degrades to a (possibly wrong) output; both are
// acceptable, a crash is not — and that ReplayAllN, shared runs included,
// agrees with per-node Replay.
func FuzzReplayDetectsCorruption(f *testing.F) {
	spec := algorithms.MaxID(2)
	var bases []*Collection
	for _, g := range []*graph.Graph{gen.ConnectedGNP(24, 0.15, xrand.New(31)), gen.Complete(12)} {
		base, err := Collect(context.Background(), g, g, spec.T, 1, local.Config{})
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, base)
	}
	// Seed corpus: one op per mutation kind, plus a multi-op mix, on the
	// open base.
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 0, 7, 1})
	f.Add([]byte{0, 5, 1, 2, 200})
	f.Add([]byte{0, 1, 2, 3, 4, 9, 1, 0, 255, 17, 3, 5, 8})
	f.Add([]byte{0, 2, 4, 1, 0, 7, 4, 3, 1})
	// Forged closed: node 0 of the open base is told every origin it
	// missed, so its heard set is its component and it alone shares a run.
	forged := []byte{0}
	for u := range bases[0].N {
		if _, ok := slices.BinarySearch(bases[0].Ports[0], graph.NodeID(u)); !ok {
			forged = append(forged, 0, 3, byte(u), 0)
		}
	}
	f.Add(forged)
	// On the closed base: the clean clone; a heard set that passes the
	// size test but is not the component (node 0 loses origin 5 and gains
	// the out-of-range origin 12); a dropped port, which leaves its edge
	// one owner and opens the component; an edge a third row claims; an
	// edge its own row names twice; and a parallel edge between nodes 0
	// and 1, which keeps the component closed (node 1 first deletes origin
	// 0, so that byte 0 picks row 1 from its heard set).
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 5, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{1, 0, 2, 3, 4})
	f.Add([]byte{1, 0, 1, 0, 20})
	f.Add([]byte{1, 0, 1, 0, 3})
	f.Add([]byte{1, 1, 5, 0, 0, 0, 1, 0, 200, 1, 1, 0, 200})
	// Heard sets out of order: on the open base, node 0 swaps its second
	// and third origins; on the closed base, node 1 loses origin 5 and
	// hears origin 0 twice, which restores its component's count, so only
	// the order check keeps it out of the run node 0 shares.
	f.Add([]byte{0, 0, 6, 1, 0})
	f.Add([]byte{1, 1, 5, 5, 0, 1, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		base := bases[int(data[0])%len(bases)]
		data = data[1:]
		c := cloneCollection(base)
		mutated := false
		for len(data) >= 4 {
			v := int(data[0]) % len(c.Ports)
			op, a, b := data[1], data[2], data[3]
			data = data[4:]
			h := c.Ports[v]
			if len(h) == 0 {
				continue
			}
			// A table op corrupts the row of one of v's heard origins, or
			// v's own row in place of a forged origin's, which has none.
			origin := h[int(a)%len(h)]
			if int(origin) < 0 || int(origin) >= c.N {
				origin = graph.NodeID(v)
			}
			ports := c.Table[origin]
			switch op % 8 {
			case 0: // flip one byte of a table edge ID
				if mask := graph.EdgeID(uint64(a) << (8 * (b % 8))); mask != 0 && len(ports) > 0 {
					i := int(b) % len(ports)
					ports[i] ^= mask
					mutated = true
				}
			case 1: // inject a foreign (possibly duplicate) port
				c.Table[origin] = append(ports, graph.EdgeID(int64(a)<<8|int64(b)))
				mutated = true
			case 2: // drop a port
				if len(ports) > 0 {
					i := int(b) % len(ports)
					c.Table[origin] = append(ports[:i:i], ports[i+1:]...)
					mutated = true
				}
			case 3: // forge an in-range origin v never heard of
				if target := graph.NodeID(int(a) % c.N); !slices.Contains(h, target) {
					c.Ports[v] = insertOrigin(h, target)
					mutated = true
				}
			case 4: // forge an origin outside [0, N): a synthetic phantom's ID, or negative
				target := graph.NodeID(c.N + int(a))
				if b%2 == 1 {
					target = graph.NodeID(-1 - int(a))
				}
				c.Ports[v] = insertOrigin(h, target)
				mutated = true
			case 5: // delete an origin v heard
				c.Ports[v] = slices.Delete(h, int(a)%len(h), int(a)%len(h)+1)
				mutated = true
			case 6: // swap two adjacent origins, so the set is out of order
				if len(h) > 1 {
					i := int(a) % (len(h) - 1)
					h[i], h[i+1] = h[i+1], h[i]
					mutated = true
				}
			case 7: // duplicate an origin v heard
				i := int(a) % len(h)
				c.Ports[v] = slices.Insert(h, i, h[i])
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
