package repro_test

// Satellite audits pinned as regression tests: (1) the Observer
// single-goroutine contract — within one Run, callbacks fire only from that
// run's coordinating goroutine, even on the concurrent engine with its
// parallel replay fan-out — pinned by running every scheme with a
// deliberately non-thread-safe observer under the race detector; (2) the
// engine's runaway round guard must never cancel a run whose *billed*
// rounds fit the budget, even for schemes that legitimately execute more
// rounds than they bill (gossip draining delayed rumors past its cover
// round, hybrid's geometric seeding retries, congest's dilation).

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// unsyncObserver is deliberately not safe for concurrent use: it mutates a
// map and appends to slices without synchronization. Any scheme that fires
// an observer callback from a worker goroutine — instead of the run's
// coordinating goroutine, as observer.go promises — turns the map write
// into a detectable data race under -race.
type unsyncObserver struct {
	rounds map[string]int
	phases []string
}

func (o *unsyncObserver) RoundCompleted(phase string, round int, messages int64) {
	o.rounds[phase]++
}

func (o *unsyncObserver) PhaseCompleted(c repro.PhaseCost) {
	o.phases = append(o.phases, c.Name)
}

// TestObserverSingleGoroutineContract runs every registered scheme on the
// concurrent engine (WithConcurrency(-1): concurrent node stepping AND the
// parallel ReplayAllN path, plus congest's split/filler rounds) with an
// unsynchronized observer. A worker-goroutine emission fails under -race;
// the count checks ensure the callbacks actually fired.
func TestObserverSingleGoroutineContract(t *testing.T) {
	g := gen.ConnectedGNP(30, 0.14, xrand.New(13))
	spec := repro.MaxID(2)
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			obs := &unsyncObserver{rounds: map[string]int{}}
			eng := repro.NewEngine(
				repro.WithSeed(4),
				repro.WithConcurrency(-1),
				repro.WithNoCache(),
				repro.WithObserver(obs),
			)
			if _, err := eng.RunScheme(context.Background(), s, g, spec); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, n := range obs.rounds {
				total += n
			}
			if total == 0 {
				t.Fatal("observer saw no rounds")
			}
			if len(obs.phases) == 0 {
				t.Fatal("observer saw no phase completions")
			}
		})
	}
}

// TestRoundGuardNeverCancelsWithinBudget is the spurious-cancellation table
// test: for every scheme, measure an unbudgeted run's billed rounds, then
// rerun with WithMaxRounds set to exactly that bill. The run must succeed
// with identical outputs — schemes that execute unbilled schedule rounds
// (gossip executes the round after its billed cover round; hybrid replays
// geometrically growing gossip budgets; congest executes its dilated
// schedule) must not trip the executed-rounds backstop.
func TestRoundGuardNeverCancelsWithinBudget(t *testing.T) {
	g := gen.ConnectedGNP(30, 0.14, xrand.New(13))
	spec := repro.MaxID(2)
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			base := repro.NewEngine(repro.WithSeed(4), repro.WithNoCache())
			ref, err := base.RunScheme(context.Background(), s, g, spec)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rounds <= 0 {
				t.Fatalf("unbudgeted run billed %d rounds", ref.Rounds)
			}
			tight := repro.NewEngine(
				repro.WithSeed(4),
				repro.WithNoCache(),
				repro.WithMaxRounds(ref.Rounds),
			)
			res, err := tight.RunScheme(context.Background(), s, g, spec)
			if err != nil {
				t.Fatalf("budget exactly equal to the %d billed rounds failed: %v", ref.Rounds, err)
			}
			if res.Rounds != ref.Rounds {
				t.Fatalf("billed %d rounds under the budget, %d without", res.Rounds, ref.Rounds)
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
				t.Fatal("outputs drifted under a tight round budget")
			}
			// One under the bill must fail with the typed budget error, and
			// cleanly — not via a spurious mid-flight cancellation of some
			// other scheme's schedule. (Schemes whose schedule length is the
			// budget itself — gossip, hybrid — may legitimately bill fewer
			// rounds under the smaller budget, so only the equal-budget case
			// above asserts success.)
			if _, err := repro.NewEngine(
				repro.WithSeed(4),
				repro.WithNoCache(),
				repro.WithMaxRounds(ref.Rounds-1),
			).RunScheme(context.Background(), s, g, spec); err == nil {
				if s.Name() == "gossip" || s.Name() == "hybrid" {
					return // smaller budget can still cover; success is legal
				}
				t.Fatalf("budget one under the %d billed rounds succeeded", ref.Rounds)
			}
		})
	}
}
