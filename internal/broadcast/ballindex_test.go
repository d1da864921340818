package broadcast

import (
	"context"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
)

// TestNewBallIndexAllocsIndependentOfN pins that building a ball index
// fills one flat array through one search kernel: the allocation count is
// the same small number on a 12×12 and a 36×36 torus, not one or more per
// node.
func TestNewBallIndexAllocsIndependentOfN(t *testing.T) {
	allocs := func(side int) float64 {
		g := gen.Torus(side, side)
		_ = g.Incident(0) // build the CSR rows outside the measured region
		return testing.AllocsPerRun(5, func() { _ = NewBallIndex(g, 2) })
	}
	small, large := allocs(12), allocs(36)
	if small != large || large > 16 {
		t.Fatalf("NewBallIndex(torus, 2) allocates %v on 12x12 and %v on 36x36, want the same count, at most 16", small, large)
	}
}

// TestGossipDelayedConcurrentMatchesSequential runs early-stopped gossip
// under delaying adversary profiles on the sequential and the concurrent
// engine. Every push and pull carries a prefix of its sender's append-only
// rumor list, which a delayed envelope may still hold while the sender
// appends; run under -race, this pins that the aliasing is race-free, and
// the two engines must agree on every node's heard set, the cover round and
// the bill.
func TestGossipDelayedConcurrentMatchesSequential(t *testing.T) {
	g := gen.Torus(8, 8)
	payloads := testPayloads(g.NumNodes())
	bi := NewBallIndex(g, 2)
	delay2, _ := adversary.Named("delay2")
	for _, prof := range []adversary.Profile{
		delay2,
		{Name: "delay5", Seed: 0xde1a5, DelayBound: 5},
		{Name: "lossy-delay3", Seed: 0xde1a3, DropRate: 0.1, DupRate: 0.1, DelayBound: 3},
	} {
		t.Run(prof.Name, func(t *testing.T) {
			run := func(workers int) (*Result, int) {
				cfg := local.Config{Seed: 11, Workers: workers, Adversary: adversary.Compile(prof, 11)}
				res, cover, err := Gossip(context.Background(), g, payloads, bi, 2000, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, cover
			}
			seq, seqCover := run(0)
			conc, concCover := run(2)
			if seqCover < 0 {
				t.Fatalf("sequential gossip never covered the balls")
			}
			if concCover != seqCover || conc.Run.Messages != seq.Run.Messages {
				t.Fatalf("concurrent cover %d, %d messages; sequential %d, %d",
					concCover, conc.Run.Messages, seqCover, seq.Run.Messages)
			}
			for v := range seq.Known {
				if !slices.Equal(conc.Known[v], seq.Known[v]) {
					t.Fatalf("node %d heard %d origins concurrently, %d sequentially", v, len(conc.Known[v]), len(seq.Known[v]))
				}
				if !heardBall(bi, graph.NodeID(v), seq.Known[v]) {
					t.Fatalf("node %d misses a ball member at the cover round", v)
				}
			}
		})
	}
}
