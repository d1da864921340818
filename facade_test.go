package repro_test

// Black-box tests of the Engine/Scheme facade: registry behaviour, the
// fidelity matrix (every scheme × every target algorithm reproduces direct
// execution bit for bit), observer streaming, and context cancellation in
// both execution engines.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func testGraph() *repro.Graph {
	return gen.ConnectedGNP(40, 0.12, xrand.New(101))
}

func TestRegistryContents(t *testing.T) {
	names := repro.SchemeNames()
	want := []string{"direct", "gossip", "scheme1", "scheme2", "scheme2en"}
	if len(names) < len(want) {
		t.Fatalf("registry has %v, want at least %v", names, want)
	}
	for _, w := range want {
		s, err := repro.Lookup(w)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", w, err)
		}
		if s.Name() != w {
			t.Fatalf("Lookup(%q) returned scheme %q", w, s.Name())
		}
		if s.Description() == "" {
			t.Fatalf("scheme %q has no description", w)
		}
	}
	if _, err := repro.Lookup("no-such-scheme"); err == nil {
		t.Fatal("Lookup accepted an unknown scheme")
	}
	// The table is sorted with unique names, and every entry round-trips
	// through Lookup to itself.
	for i, s := range repro.Schemes() {
		if i > 0 && names[i-1] >= s.Name() {
			t.Fatalf("schemes not sorted with unique names: %v", names)
		}
		if s.Name() != names[i] {
			t.Fatalf("Schemes()[%d] = %q, SchemeNames()[%d] = %q", i, s.Name(), i, names[i])
		}
		got, err := repro.Lookup(s.Name())
		if err != nil {
			t.Fatalf("Lookup(%q): %v", s.Name(), err)
		}
		if got != s {
			t.Fatalf("Lookup(%q) returned a different scheme than Schemes()", s.Name())
		}
	}
}

// TestSchemesMatchDirect is the fidelity matrix: every registered scheme ×
// every target algorithm family, on a small connected G(n,p), must produce
// outputs identical to direct execution at the same seed.
func TestSchemesMatchDirect(t *testing.T) {
	g := testGraph()
	n := g.NumNodes()
	const seed = 7
	algs := []struct {
		name string
		spec repro.AlgorithmSpec
	}{
		{"maxid", repro.MaxID(3)},
		{"mis", repro.MIS(repro.MISRounds(n))},
		{"coloring", repro.Coloring(repro.ColoringRounds(n))},
		{"bfs", repro.BFSLayers(0, 3)},
	}
	for _, concurrency := range []int{0, -1} {
		eng := repro.NewEngine(
			repro.WithSeed(seed),
			repro.WithConcurrency(concurrency),
			repro.WithMaxRounds(1500), // gossip budget; other schemes self-schedule
		)
		for _, alg := range algs {
			direct, err := eng.Run(context.Background(), "direct", g, alg.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range repro.Schemes() {
				t.Run(fmt.Sprintf("conc=%d/%s/%s", concurrency, s.Name(), alg.name), func(t *testing.T) {
					res, err := eng.RunScheme(context.Background(), s, g, alg.spec)
					if err != nil {
						t.Fatal(err)
					}
					if res.Scheme != s.Name() {
						t.Fatalf("result labeled %q, want %q", res.Scheme, s.Name())
					}
					for v := range direct.Outputs {
						if res.Outputs[v] != direct.Outputs[v] {
							t.Fatalf("node %d: %s produced %v, direct %v",
								v, s.Name(), res.Outputs[v], direct.Outputs[v])
						}
					}
					if len(res.Phases) == 0 {
						t.Fatal("no phase ledger")
					}
				})
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(2)
	if _, err := repro.NewEngine(repro.WithGamma(0)).Run(context.Background(), "scheme1", g, spec); err == nil {
		t.Fatal("gamma 0 accepted by scheme1")
	}
	if _, err := repro.NewEngine(repro.WithStageK(0)).Run(context.Background(), "scheme2", g, spec); err == nil {
		t.Fatal("stage k 0 accepted by scheme2")
	}
	if _, err := repro.NewEngine(repro.WithLogNSlack(0.5)).Run(context.Background(), "direct", g, spec); err == nil {
		t.Fatal("LogNSlack < 1 accepted")
	}
	if _, err := repro.NewEngine().Run(context.Background(), "nope", g, spec); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := repro.NewEngine().Run(context.Background(), "direct", nil, spec); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// peerSum is a one-round algorithm whose output is the sum of its ports'
// Peer fields: the neighbor-ID sum under KT1, minus the degree otherwise.
type peerSum struct{ sum repro.NodeID }

func (p *peerSum) Step(env *local.Env, round int, _ []local.Message) {
	if round == 0 {
		for _, pt := range env.Ports() {
			p.sum += pt.Peer
		}
	}
	if round == 1 {
		env.Halt()
	}
}

// TestKT1DirectOnly checks that KT1 is honored by direct and rejected by
// every scheme that replays a collection, which cannot carry neighbor IDs:
// run under KT1 anyway, an algorithm that reads Port.Peer would diverge
// from direct with no error. Without KT1 every scheme matches direct.
func TestKT1DirectOnly(t *testing.T) {
	g := gen.ConnectedGNP(60, 8.0/59, xrand.New(11))
	spec := repro.AlgorithmSpec{
		Name:   "peersum",
		T:      1,
		New:    func(repro.NodeID) local.Protocol { return &peerSum{} },
		Output: func(p local.Protocol) any { return p.(*peerSum).sum },
	}
	ctx := context.Background()
	eng := repro.NewEngine(repro.WithSeed(5))
	kt1, err := eng.RunWith(ctx, "direct", g, spec, repro.WithKT1(true))
	if err != nil {
		t.Fatal(err)
	}
	for v := range kt1.Outputs {
		var want repro.NodeID
		for _, h := range g.Incident(repro.NodeID(v)) {
			want += h.Peer
		}
		if kt1.Outputs[v] != want {
			t.Fatalf("direct under KT1: node %d output %v, want neighbor-ID sum %d", v, kt1.Outputs[v], want)
		}
	}
	direct, err := eng.Run(ctx, "direct", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range repro.Schemes() {
		if s.Name() == "direct" {
			continue
		}
		if _, err := eng.RunScheme(ctx, s, g, spec, repro.WithKT1(true)); !errors.Is(err, repro.ErrKT1Unsupported) {
			t.Errorf("%s under KT1: err = %v, want ErrKT1Unsupported", s.Name(), err)
		}
		res, err := eng.RunScheme(ctx, s, g, spec)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for v := range direct.Outputs {
			if res.Outputs[v] != direct.Outputs[v] {
				t.Fatalf("%s: node %d output %v, direct %v", s.Name(), v, res.Outputs[v], direct.Outputs[v])
			}
		}
	}
}

// TestObserverStreamsPhases checks that observers see every phase with the
// same ledger the result reports, in order, and that the round stream, the
// run's only per-round record, adds up to the result's bill.
func TestObserverStreamsPhases(t *testing.T) {
	g := testGraph()
	var seen []repro.PhaseCost
	var rounds int
	var msgs int64
	eng := repro.NewEngine(
		repro.WithSeed(3),
		repro.WithObserver(repro.ObserverFuncs{
			OnRound: func(phase string, round int, messages int64) {
				rounds++
				msgs += messages
			},
			OnPhase: func(c repro.PhaseCost) { seen = append(seen, c) },
		}),
	)
	res, err := eng.Run(context.Background(), "scheme2en", g, repro.MaxID(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Phases) {
		t.Fatalf("observer saw %d phases, result has %d", len(seen), len(res.Phases))
	}
	for i := range seen {
		if seen[i] != res.Phases[i] {
			t.Fatalf("phase %d: observed %+v != reported %+v", i, seen[i], res.Phases[i])
		}
	}
	if rounds != res.Rounds || msgs != res.Messages {
		t.Fatalf("observer counted %d rounds and %d messages, result reports %d and %d",
			rounds, msgs, res.Rounds, res.Messages)
	}
}

// phaseRecorder is a thread-safe observer that records phase completions in
// order and counts rounds per phase, usable from concurrently running Runs.
type phaseRecorder struct {
	mu     sync.Mutex
	phases []repro.PhaseCost
	rounds map[string]int
}

func newPhaseRecorder() *phaseRecorder {
	return &phaseRecorder{rounds: make(map[string]int)}
}

func (p *phaseRecorder) RoundCompleted(phase string, round int, messages int64) {
	p.mu.Lock()
	p.rounds[phase]++
	p.mu.Unlock()
}

func (p *phaseRecorder) PhaseCompleted(c repro.PhaseCost) {
	p.mu.Lock()
	p.phases = append(p.phases, c)
	p.mu.Unlock()
}

// phaseNameCount returns how many recorded phases carry the given name.
func (p *phaseRecorder) phaseNameCount(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.phases {
		if c.Name == name {
			n++
		}
	}
	return n
}

// roundCount returns the number of recorded rounds for a phase.
func (p *phaseRecorder) roundCount(phase string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rounds[phase]
}

// clear resets the recorder between runs.
func (p *phaseRecorder) clear() {
	p.mu.Lock()
	p.phases = nil
	p.rounds = make(map[string]int)
	p.mu.Unlock()
}

// sameOutputs fails the test unless the two output vectors are identical.
func sameOutputs(t *testing.T, label string, got, want []any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: node %d produced %v, want %v", label, v, got[v], want[v])
		}
	}
}

// TestSpannerCacheFidelityMatrix is the cache fidelity matrix: every
// registered scheme run twice on the same engine must produce outputs
// bit-identical to a fresh engine's — including after Reset — and for the
// sampler-based schemes the second run must perform zero sampler rounds,
// reporting the stage as the zero-cost phase "sampler(cached)".
func TestSpannerCacheFidelityMatrix(t *testing.T) {
	g := testGraph()
	const seed = 7
	algs := []struct {
		name string
		spec repro.AlgorithmSpec
	}{
		{"maxid", repro.MaxID(3)},
		{"mis", repro.MIS(repro.MISRounds(g.NumNodes()))},
	}
	for _, alg := range algs {
		for _, s := range repro.Schemes() {
			t.Run(fmt.Sprintf("%s/%s", s.Name(), alg.name), func(t *testing.T) {
				ctx := context.Background()
				rec := newPhaseRecorder()
				shared := repro.NewEngine(
					repro.WithSeed(seed),
					repro.WithMaxRounds(1500), // gossip budget
					repro.WithObserver(rec),
				)
				fresh, err := repro.NewEngine(
					repro.WithSeed(seed),
					repro.WithMaxRounds(1500),
				).RunScheme(ctx, s, g, alg.spec)
				if err != nil {
					t.Fatal(err)
				}
				run1, err := shared.RunScheme(ctx, s, g, alg.spec)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, "first run", run1.Outputs, fresh.Outputs)
				usesSampler := len(run1.Phases) > 0 && run1.Phases[0].Name == "sampler"

				rec.clear()
				run2, err := shared.RunScheme(ctx, s, g, alg.spec)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, "cached run", run2.Outputs, fresh.Outputs)
				if run2.StretchUsed != fresh.StretchUsed || run2.SpannerEdges != fresh.SpannerEdges {
					t.Fatalf("cached run spanner (stretch %d, %d edges) != fresh (%d, %d)",
						run2.StretchUsed, run2.SpannerEdges, fresh.StretchUsed, fresh.SpannerEdges)
				}
				if usesSampler {
					// The acceptance criterion: zero sampler rounds on the
					// second run, stage reported as "sampler(cached)".
					if rounds := rec.roundCount("sampler"); rounds != 0 {
						t.Fatalf("cached run executed %d sampler rounds, want 0", rounds)
					}
					want := repro.PhaseCost{Name: "sampler(cached)"}
					if run2.Phases[0] != want {
						t.Fatalf("cached run phase[0] = %+v, want %+v", run2.Phases[0], want)
					}
					// Every non-sampler phase is unchanged: the cached spanner
					// carries exactly the same collections.
					if len(run2.Phases) != len(fresh.Phases) {
						t.Fatalf("cached run has %d phases, fresh %d", len(run2.Phases), len(fresh.Phases))
					}
					for i := 1; i < len(run2.Phases); i++ {
						if run2.Phases[i] != fresh.Phases[i] {
							t.Fatalf("phase %d: cached %+v != fresh %+v", i, run2.Phases[i], fresh.Phases[i])
						}
					}
					if run2.Messages >= fresh.Messages {
						t.Fatalf("cached run cost %d messages, not below fresh %d", run2.Messages, fresh.Messages)
					}
				} else {
					// No stage-1 to cache: repeated runs must be identical in
					// full, ledger included.
					if len(run2.Phases) != len(fresh.Phases) {
						t.Fatalf("repeat run has %d phases, fresh %d", len(run2.Phases), len(fresh.Phases))
					}
					for i := range run2.Phases {
						if run2.Phases[i] != fresh.Phases[i] {
							t.Fatalf("phase %d: repeat %+v != fresh %+v", i, run2.Phases[i], fresh.Phases[i])
						}
					}
				}

				// After Reset the engine reconstructs from scratch and must
				// land on the same outputs and the same full-cost ledger.
				shared.Reset()
				rec.clear()
				run3, err := shared.RunScheme(ctx, s, g, alg.spec)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, "post-reset run", run3.Outputs, fresh.Outputs)
				if len(run3.Phases) != len(fresh.Phases) {
					t.Fatalf("post-reset run has %d phases, fresh %d", len(run3.Phases), len(fresh.Phases))
				}
				for i := range run3.Phases {
					if run3.Phases[i] != fresh.Phases[i] {
						t.Fatalf("post-reset phase %d: %+v != fresh %+v", i, run3.Phases[i], fresh.Phases[i])
					}
				}
				if usesSampler && rec.roundCount("sampler") == 0 {
					t.Fatal("post-reset run did not rebuild the spanner")
				}
			})
		}
	}
}

// TestWithNoCache pins the opt-out: a WithNoCache engine reconstructs the
// sampler spanner on every run.
func TestWithNoCache(t *testing.T) {
	g := testGraph()
	rec := newPhaseRecorder()
	eng := repro.NewEngine(repro.WithSeed(7), repro.WithNoCache(), repro.WithObserver(rec))
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), "scheme1", g, repro.MaxID(3)); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.phaseNameCount("sampler"); n != 2 {
		t.Fatalf("%d sampler constructions with cache disabled, want 2", n)
	}
	if n := rec.phaseNameCount("sampler(cached)"); n != 0 {
		t.Fatalf("%d cache hits with cache disabled, want 0", n)
	}
}

// TestBuildSpannerCached checks that BuildSpanner shares the engine cache —
// the second call is a hit with the identical edge set — and that mutating a
// returned Spanner cannot corrupt the cached artifact.
func TestBuildSpannerCached(t *testing.T) {
	g := testGraph()
	rec := newPhaseRecorder()
	eng := repro.NewEngine(repro.WithSeed(3), repro.WithObserver(rec))
	first, err := eng.BuildSpanner(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the caller's copy in place: the cache must be unaffected.
	want := slices.Clone(first.Edges)
	first.Edges[0] = -1
	second, err := eng.BuildSpanner(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(second.Edges, want) {
		t.Fatalf("cached spanner has %d edges starting %v, want %d starting %v",
			len(second.Edges), second.Edges[:1], len(want), want[:1])
	}
	if second.StretchBound != first.StretchBound {
		t.Fatalf("stretch drifted: %d != %d", second.StretchBound, first.StretchBound)
	}
	if second.Rounds != first.Rounds || second.Messages != first.Messages {
		t.Fatalf("cached spanner cost (%d, %d) != original (%d, %d)",
			second.Rounds, second.Messages, first.Rounds, first.Messages)
	}
	if got := rec.phaseNameCount("sampler"); got != 1 {
		t.Fatalf("%d sampler constructions, want 1", got)
	}
	if got := rec.phaseNameCount("sampler(cached)"); got != 1 {
		t.Fatalf("%d cache hits, want 1", got)
	}
}

// TestEngineCacheSingleFlight drives one shared engine from many goroutines
// at the same cache key (run under -race in CI): exactly one goroutine must
// build the spanner, the rest must coalesce onto it, and every run must
// produce the fresh engine's outputs.
func TestEngineCacheSingleFlight(t *testing.T) {
	g := testGraph()
	spec := repro.MaxID(3)
	const seed, workers = 5, 8
	want, err := repro.NewEngine(repro.WithSeed(seed)).Run(context.Background(), "scheme1", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := newPhaseRecorder()
	eng := repro.NewEngine(repro.WithSeed(seed), repro.WithObserver(rec))
	results := make([]*repro.SimulationResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), "scheme1", g, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		sameOutputs(t, fmt.Sprintf("goroutine %d", i), results[i].Outputs, want.Outputs)
	}
	if built := rec.phaseNameCount("sampler"); built != 1 {
		t.Fatalf("%d sampler constructions across %d concurrent runs, want 1 (single flight)", built, workers)
	}
	if hits := rec.phaseNameCount("sampler(cached)"); hits != workers-1 {
		t.Fatalf("%d cache hits, want %d", hits, workers-1)
	}
}

// cancelAfterRounds is an observer that cancels a context once the pipeline
// has completed a given number of rounds.
type cancelAfterRounds struct {
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfterRounds) RoundCompleted(string, int, int64) {
	c.left--
	if c.left == 0 {
		c.cancel()
	}
}
func (c *cancelAfterRounds) PhaseCompleted(repro.PhaseCost) {}

// TestCancellationStopsRun aborts a long direct run after two rounds, in
// both the sequential and the concurrent engine, and checks the run stops
// promptly (well before its round budget) without deadlock.
func TestCancellationStopsRun(t *testing.T) {
	g := gen.ConnectedGNP(200, 0.05, xrand.New(5))
	spec := repro.MaxID(50) // 51-round budget: plenty left to cut short
	for _, concurrency := range []int{0, -1} {
		t.Run(fmt.Sprintf("conc=%d", concurrency), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := &cancelAfterRounds{cancel: cancel, left: 2}
			eng := repro.NewEngine(
				repro.WithSeed(1),
				repro.WithConcurrency(concurrency),
				repro.WithObserver(obs),
			)
			done := make(chan error, 1)
			go func() {
				_, err := eng.Run(ctx, "direct", g, spec)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", err)
				}
				if obs.left > 0 {
					t.Fatalf("run returned before the observer cancelled (%d rounds left)", obs.left)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled run did not return: deadlock")
			}
		})
	}
}

// TestCancellationMidPipeline cancels during a scheme pipeline (the sampler
// phase of scheme1) and checks the whole pipeline unwinds with the context
// error in both engines.
func TestCancellationMidPipeline(t *testing.T) {
	g := gen.ConnectedGNP(150, 0.08, xrand.New(6))
	for _, concurrency := range []int{0, -1} {
		t.Run(fmt.Sprintf("conc=%d", concurrency), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := &cancelAfterRounds{cancel: cancel, left: 3}
			eng := repro.NewEngine(
				repro.WithSeed(2),
				repro.WithConcurrency(concurrency),
				repro.WithGamma(1),
				repro.WithObserver(obs),
			)
			_, err := eng.Run(ctx, "scheme1", g, repro.MaxID(4))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		})
	}
}

// TestPreCancelledContext checks that an already-cancelled context stops a
// run before any round executes.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rounds := 0
	eng := repro.NewEngine(repro.WithObserver(repro.ObserverFuncs{
		OnRound: func(string, int, int64) { rounds++ },
	}))
	_, err := eng.Run(ctx, "direct", testGraph(), repro.MaxID(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rounds != 0 {
		t.Fatalf("%d rounds ran under a cancelled context", rounds)
	}
}
