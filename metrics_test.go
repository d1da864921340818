package repro_test

// Tests for the streaming metrics sink, a run's only per-round record: the
// sink's bounded aggregates must agree with an exact recording of the
// stream, snapshots must be safe while concurrent runs share the sink, and
// attaching it must leave every scheme's observable result bit-identical.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// metricsGraph is a small deterministic workload shared by the sink tests.
func metricsGraph() *repro.Graph {
	return gen.ConnectedGNP(32, 0.12, xrand.New(21))
}

// TestMetricsSinkMatchesExactLedger cross-checks the sink against a plain
// recording observer on the same run: per-phase totals must agree with the
// sum of the streamed rounds, the histogram must count every round, and the
// billed totals must match the phase costs.
func TestMetricsSinkMatchesExactLedger(t *testing.T) {
	g := metricsGraph()
	sink := repro.NewMetricsSink(0)
	exactRounds := map[string]int{}
	exactMsgs := map[string]int64{}
	billed := map[string]int64{}
	eng := repro.NewEngine(
		repro.WithSeed(7),
		repro.WithObserver(sink),
		repro.WithObserver(repro.ObserverFuncs{
			OnRound: func(phase string, round int, messages int64) {
				exactRounds[phase]++
				exactMsgs[phase] += messages
			},
			OnPhase: func(c repro.PhaseCost) { billed[c.Name] += c.Messages },
		}),
	)
	if _, err := eng.Run(context.Background(), "scheme1", g, repro.MaxID(3)); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if len(snap.Phases) == 0 {
		t.Fatal("snapshot has no phases")
	}
	for _, ph := range snap.Phases {
		if ph.Rounds != exactRounds[ph.Name] {
			t.Errorf("phase %s: sink rounds %d, exact %d", ph.Name, ph.Rounds, exactRounds[ph.Name])
		}
		if ph.Messages != exactMsgs[ph.Name] {
			t.Errorf("phase %s: sink messages %d, exact %d", ph.Name, ph.Messages, exactMsgs[ph.Name])
		}
		if ph.BilledMessages != billed[ph.Name] {
			t.Errorf("phase %s: sink billed %d, observer saw %d", ph.Name, ph.BilledMessages, billed[ph.Name])
		}
		var histCount uint64
		var histTail int64
		for _, b := range ph.Histogram {
			histCount += b.Count
		}
		for _, s := range ph.Tail {
			histTail += s.Messages
		}
		if histCount != uint64(ph.Rounds) {
			t.Errorf("phase %s: histogram holds %d rounds, stream had %d", ph.Name, histCount, ph.Rounds)
		}
		if ph.Rounds <= repro.DefaultMetricsTail && histTail != ph.Messages {
			t.Errorf("phase %s: full tail sums to %d messages, stream had %d", ph.Name, histTail, ph.Messages)
		}
	}
}

// TestMetricsSinkTailBounded pins the ring-buffer contract at the facade:
// a long gossip schedule streams hundreds of rounds, the tail retains
// exactly the configured capacity with the most recent rounds. The blackout
// profile drops every rumor, so gossip never covers and executes its whole
// 600-round budget before failing with ErrRoundBudget.
func TestMetricsSinkTailBounded(t *testing.T) {
	g := gen.Cycle(12)
	const tail = 16
	blackout, ok := repro.NamedAdversary("blackout")
	if !ok {
		t.Fatal("blackout profile missing from the registry")
	}
	sink := repro.NewMetricsSink(tail)
	eng := repro.NewEngine(
		repro.WithSeed(3),
		repro.WithMaxRounds(600),
		repro.WithAdversary(blackout),
		repro.WithObserver(sink),
	)
	if _, err := eng.Run(context.Background(), "gossip", g, repro.MaxID(2)); !errors.Is(err, repro.ErrRoundBudget) {
		t.Fatalf("err = %v, want ErrRoundBudget", err)
	}
	snap := sink.Snapshot()
	var gossip *repro.PhaseMetrics
	for i := range snap.Phases {
		if snap.Phases[i].Name == "gossip" {
			gossip = &snap.Phases[i]
		}
	}
	if gossip == nil {
		t.Fatalf("no gossip phase in %+v", snap.Phases)
	}
	if gossip.Rounds != 601 {
		t.Fatalf("gossip streamed %d rounds, want the full 601-round schedule", gossip.Rounds)
	}
	if len(gossip.Tail) != tail {
		t.Fatalf("tail holds %d rounds, want the %d-round cap", len(gossip.Tail), tail)
	}
	for i, s := range gossip.Tail {
		if want := 601 - tail + i; s.Round != want {
			t.Fatalf("tail[%d].Round = %d, want %d (most recent rounds, oldest first)", i, s.Round, want)
		}
	}
}

// TestMetricsSinkSnapshotUnderConcurrentRuns exercises the documented
// concurrent-Runs contract under the race detector: several goroutines run
// schemes on one shared engine+sink while another hammers Snapshot and
// Reset. The final snapshot must also account for every completed run.
func TestMetricsSinkSnapshotUnderConcurrentRuns(t *testing.T) {
	g := metricsGraph()
	sink := repro.NewMetricsSink(8)
	eng := repro.NewEngine(
		repro.WithSeed(5),
		repro.WithConcurrency(2),
		repro.WithNoCache(),
		repro.WithObserver(sink),
	)
	const runs = 4
	stop := make(chan struct{})
	spinnerDone := make(chan struct{})
	go func() {
		defer close(spinnerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = sink.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	var runErr error
	var mu sync.Mutex
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Run(context.Background(), "scheme1", g, repro.MaxID(2)); err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-spinnerDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	snap := sink.Snapshot()
	var collects int
	for _, ph := range snap.Phases {
		if ph.Name == "collect" {
			collects = ph.Completions
		}
	}
	if collects != runs {
		t.Fatalf("sink saw %d collect completions, want one per run (%d)", collects, runs)
	}
	sink.Reset()
	if got := sink.Snapshot(); len(got.Phases) != 0 {
		t.Fatalf("snapshot after Reset still has %d phases", len(got.Phases))
	}
}

// TestRoundLedgerOffBitIdentical runs every registered scheme bare and with
// a MetricsSink attached and requires identical observable results: same
// outputs, same total bill, same phase ledger. A run keeps no per-round
// record of its own, so the stream the sink reduces is the only one; it is
// a window on the run, never a semantics knob. The sink must also account
// for the whole bill: its phases' billed totals sum to the result's.
func TestRoundLedgerOffBitIdentical(t *testing.T) {
	g := metricsGraph()
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			run := func(opts ...repro.Option) *repro.SimulationResult {
				eng := repro.NewEngine(append([]repro.Option{repro.WithSeed(9)}, opts...)...)
				res, err := eng.RunScheme(context.Background(), s, g, spec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sink := repro.NewMetricsSink(0)
			bare, sunk := run(), run(repro.WithObserver(sink))
			if !reflect.DeepEqual(bare.Outputs, sunk.Outputs) {
				t.Fatal("outputs differ with the sink attached")
			}
			if bare.Rounds != sunk.Rounds || bare.Messages != sunk.Messages {
				t.Fatalf("bill drifted: bare (%d rounds, %d msgs), with sink (%d, %d)",
					bare.Rounds, bare.Messages, sunk.Rounds, sunk.Messages)
			}
			if !reflect.DeepEqual(bare.Phases, sunk.Phases) {
				t.Fatalf("phase ledger drifted:\nbare: %+v\nsink: %+v", bare.Phases, sunk.Phases)
			}
			var billed int64
			for _, ph := range sink.Snapshot().Phases {
				billed += ph.BilledMessages
			}
			if billed != bare.Messages {
				t.Fatalf("sink billed %d messages, result bills %d", billed, bare.Messages)
			}
		})
	}
}

// TestMetricsSnapshotJSONShape keeps the snapshot JSON-serializable with
// stable field names — cmd/simulate -metrics prints exactly this.
func TestMetricsSnapshotJSONShape(t *testing.T) {
	sink := repro.NewMetricsSink(4)
	sink.RoundCompleted("direct", 0, 12)
	sink.PhaseCompleted(repro.PhaseCost{Name: "direct", Rounds: 1, Messages: 12})
	snap := sink.Snapshot()
	got := fmt.Sprintf("%+v", snap.Phases[0].Tail)
	if want := "[{Round:0 Messages:12}]"; got != want {
		t.Fatalf("tail = %s, want %s", got, want)
	}
	if snap.TotalRounds != 1 || snap.TotalMessages != 12 {
		t.Fatalf("totals = %d rounds / %d messages", snap.TotalRounds, snap.TotalMessages)
	}
}
