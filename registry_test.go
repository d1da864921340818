package repro_test

// Tests for the registry growth of this PR: the engine-wide option
// validation matrix, the WithMaxRounds round-budget guard, the LRU bound on
// the stage-1 spanner cache, and the scheme-specific behaviour of the
// CONGEST-budgeted pipeline.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// TestSchemeValidationMatrix is the registry-wide validation table: every
// registered scheme must reject every nonsense option value — Gamma < 1,
// StageK < 1, Bandwidth < 1, a negative CacheSize, a sub-1 LogNSlack — before any simulation work starts (no
// round event may fire).
func TestSchemeValidationMatrix(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(2)
	bad := []struct {
		name string
		opt  repro.Option
	}{
		{"gamma0", repro.WithGamma(0)},
		{"gamma-negative", repro.WithGamma(-2)},
		{"stagek0", repro.WithStageK(0)},
		{"bandwidth0", repro.WithBandwidth(0)},
		{"bandwidth-negative", repro.WithBandwidth(-8)},
		{"cachesize-negative", repro.WithCacheSize(-1)},
		{"lognslack-below-1", repro.WithLogNSlack(0.5)},
		{"deadline0", repro.WithDeadline(0)},
		{"deadline-negative", repro.WithDeadline(-time.Second)},
	}
	for _, tc := range bad {
		for _, s := range repro.Schemes() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, s.Name()), func(t *testing.T) {
				rounds := 0
				eng := repro.NewEngine(tc.opt, repro.WithObserver(repro.ObserverFuncs{
					OnRound: func(string, int, int64) { rounds++ },
				}))
				if _, err := eng.RunScheme(context.Background(), s, g, spec); err == nil {
					t.Fatalf("scheme %s accepted %s", s.Name(), tc.name)
				}
				if rounds != 0 {
					t.Fatalf("scheme %s executed %d rounds before rejecting %s", s.Name(), rounds, tc.name)
				}
			})
		}
	}
}

// TestRoundBudgetGuard is the per-scheme budget table: with a budget far
// below what any pipeline needs, every registered scheme must fail with the
// typed ErrRoundBudget — the gossip schemes through their gossip
// schedule, the rest through the engine-level guard on billed rounds.
func TestRoundBudgetGuard(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			eng := repro.NewEngine(repro.WithSeed(3), repro.WithMaxRounds(2))
			_, err := eng.RunScheme(context.Background(), s, g, spec)
			if err == nil {
				t.Fatalf("scheme %s ran within a 2-round budget", s.Name())
			}
			if !errors.Is(err, repro.ErrRoundBudget) {
				t.Fatalf("scheme %s failed with %v, want ErrRoundBudget", s.Name(), err)
			}
		})
	}
	// A generous budget must not interfere.
	eng := repro.NewEngine(repro.WithSeed(3), repro.WithMaxRounds(5000))
	for _, s := range repro.Schemes() {
		if _, err := eng.RunScheme(context.Background(), s, g, spec); err != nil {
			t.Fatalf("scheme %s failed under a generous budget: %v", s.Name(), err)
		}
	}
}

// TestDeadlineBudget is the registry-wide table for WithDeadline, the
// wall-clock twin of WithMaxRounds: under a deadline that has effectively
// already expired, every registered scheme must abort through the shared ctx
// plumbing and fail with the typed ErrDeadline (which also matches
// context.DeadlineExceeded); under a generous deadline, every scheme must
// complete untouched.
func TestDeadlineBudget(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			eng := repro.NewEngine(repro.WithSeed(3), repro.WithDeadline(time.Nanosecond))
			_, err := eng.RunScheme(context.Background(), s, g, spec)
			if err == nil {
				t.Fatalf("scheme %s completed within a 1ns wall-clock budget", s.Name())
			}
			if !errors.Is(err, repro.ErrDeadline) {
				t.Fatalf("scheme %s failed with %v, want ErrDeadline", s.Name(), err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("scheme %s: ErrDeadline chain lost context.DeadlineExceeded: %v", s.Name(), err)
			}
		})
	}
	// A generous budget must not interfere, and a parent context's own
	// earlier deadline must keep its plain error rather than be rebranded
	// as the engine's budget.
	eng := repro.NewEngine(repro.WithSeed(3), repro.WithDeadline(time.Hour))
	for _, s := range repro.Schemes() {
		if _, err := eng.RunScheme(context.Background(), s, g, spec); err != nil {
			t.Fatalf("scheme %s failed under a generous deadline: %v", s.Name(), err)
		}
	}
}

// TestRunWithOverrides pins the per-run override layer the serving facade
// rides on: one engine, per-run budgets and observers, no cross-run bleed —
// and a spanner cached by one override set is visible to the next run at the
// same key.
func TestRunWithOverrides(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(3)
	eng := repro.NewEngine(repro.WithSeed(3))

	// Per-run round budget: the override must fail this run only.
	if _, err := eng.RunWith(context.Background(), "scheme1", g, spec, repro.WithMaxRounds(2)); !errors.Is(err, repro.ErrRoundBudget) {
		t.Fatalf("override WithMaxRounds(2): got %v, want ErrRoundBudget", err)
	}
	// The engine's own configuration is untouched: the same run without the
	// override succeeds, and warms the cache for the key (seed 3, gamma 1).
	if _, err := eng.RunWith(context.Background(), "scheme1", g, spec); err != nil {
		t.Fatalf("post-override run failed: %v", err)
	}

	// A per-run observer sees this run; the cached stage-1 spanner from the
	// previous run is reused (zero-cost "sampler(cached)" phase).
	var phases []string
	res, err := eng.RunWith(context.Background(), "scheme1", g, spec,
		repro.WithObserver(repro.ObserverFuncs{
			OnPhase: func(c repro.PhaseCost) { phases = append(phases, c.Name) },
		}))
	if err != nil {
		t.Fatalf("observed run failed: %v", err)
	}
	cached := false
	for _, name := range phases {
		if name == "sampler(cached)" {
			cached = true
		}
	}
	if !cached {
		t.Fatalf("override run did not reuse the engine cache; phases %v", phases)
	}
	for _, ph := range res.Phases {
		if ph.Name == "sampler" {
			t.Fatalf("override run rebuilt the spanner: %+v", res.Phases)
		}
	}

	// A per-run seed override lands on a different cache key: fresh build.
	var phases2 []string
	if _, err := eng.RunWith(context.Background(), "scheme1", g, spec,
		repro.WithSeed(77),
		repro.WithObserver(repro.ObserverFuncs{
			OnPhase: func(c repro.PhaseCost) { phases2 = append(phases2, c.Name) },
		})); err != nil {
		t.Fatalf("seed-override run failed: %v", err)
	}
	fresh := false
	for _, name := range phases2 {
		if name == "sampler" {
			fresh = true
		}
	}
	if !fresh {
		t.Fatalf("seed override did not move the cache key; phases %v", phases2)
	}
}

// TestRoundBudgetCancelsRunaway checks the live half of the guard: a
// pipeline whose executed rounds far overshoot the budget is cancelled in
// flight, not merely rejected after completing.
func TestRoundBudgetCancelsRunaway(t *testing.T) {
	g := gen.ConnectedGNP(60, 0.08, xrand.New(8))
	rounds := 0
	eng := repro.NewEngine(
		repro.WithSeed(1),
		repro.WithMaxRounds(3),
		repro.WithObserver(repro.ObserverFuncs{
			OnRound: func(string, int, int64) { rounds++ },
		}),
	)
	// MaxID(200) executes 201 rounds directly — far beyond 2·3+64.
	_, err := eng.Run(context.Background(), "direct", g, repro.MaxID(200))
	if !errors.Is(err, repro.ErrRoundBudget) {
		t.Fatalf("got %v, want ErrRoundBudget", err)
	}
	if rounds >= 201 {
		t.Fatalf("runaway run executed all %d rounds; the guard never cancelled", rounds)
	}
}

// TestCacheEviction pins the LRU bound of the stage-1 spanner cache: with
// capacity 1, alternating between two graphs evicts on every switch; with
// capacity 2, the same sequence hits.
func TestCacheEviction(t *testing.T) {
	ga := gen.ConnectedGNP(40, 0.12, xrand.New(101))
	gb := gen.ConnectedGNP(40, 0.12, xrand.New(202))
	spec := repro.MaxID(3)
	sequence := []*repro.Graph{ga, gb, ga}

	runAll := func(size int) (built, hits int) {
		rec := newPhaseRecorder()
		eng := repro.NewEngine(repro.WithSeed(7), repro.WithCacheSize(size), repro.WithObserver(rec))
		for _, g := range sequence {
			if _, err := eng.Run(context.Background(), "scheme1", g, spec); err != nil {
				t.Fatal(err)
			}
		}
		return rec.phaseNameCount("sampler"), rec.phaseNameCount("sampler(cached)")
	}

	if built, hits := runAll(1); built != 3 || hits != 0 {
		t.Fatalf("capacity 1: %d builds and %d hits over A,B,A; want 3 and 0 (LRU must evict)", built, hits)
	}
	if built, hits := runAll(2); built != 2 || hits != 1 {
		t.Fatalf("capacity 2: %d builds and %d hits over A,B,A; want 2 and 1", built, hits)
	}
}

// TestCongestBandwidth pins the CONGEST scheme's contract against plain
// scheme1: with unbounded bandwidth the budgeted flood degenerates to the
// LOCAL schedule (identical collect rounds and messages, dilation exactly
// 1), while a one-word cap must dilate rounds and report the factor in
// PhaseCost.Dilation — with outputs bit-identical in both regimes.
func TestCongestBandwidth(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(3)
	const seed = 7
	base, err := repro.NewEngine(repro.WithSeed(seed)).Run(context.Background(), "scheme1", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	collectOf := func(res *repro.SimulationResult) repro.PhaseCost {
		t.Helper()
		for _, ph := range res.Phases {
			if ph.Name == "collect(congest)" {
				return ph
			}
		}
		t.Fatalf("no collect(congest) phase in %+v", res.Phases)
		return repro.PhaseCost{}
	}
	baseCollect := base.Phases[len(base.Phases)-1]

	wide, err := repro.NewEngine(repro.WithSeed(seed), repro.WithBandwidth(1<<20)).
		Run(context.Background(), "scheme1-congest", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "unbounded bandwidth", wide.Outputs, base.Outputs)
	wc := collectOf(wide)
	if wc.Rounds != baseCollect.Rounds || wc.Messages != baseCollect.Messages {
		t.Fatalf("unbounded-bandwidth collect (%d rounds, %d msgs) != scheme1 collect (%d, %d)",
			wc.Rounds, wc.Messages, baseCollect.Rounds, baseCollect.Messages)
	}
	if wc.Dilation != 1 {
		t.Fatalf("unbounded bandwidth dilation %v, want exactly 1", wc.Dilation)
	}

	narrow, err := repro.NewEngine(repro.WithSeed(seed), repro.WithBandwidth(1)).
		Run(context.Background(), "scheme1-congest", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "one-word bandwidth", narrow.Outputs, base.Outputs)
	nc := collectOf(narrow)
	if nc.Rounds <= baseCollect.Rounds {
		t.Fatalf("one-word bandwidth did not dilate: %d rounds vs base %d", nc.Rounds, baseCollect.Rounds)
	}
	if nc.Dilation <= 1 {
		t.Fatalf("one-word bandwidth reported dilation %v, want > 1", nc.Dilation)
	}
}
