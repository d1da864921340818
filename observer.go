package repro

import "repro/internal/simulate"

// PhaseCost is one pipeline stage's price: name, rounds, messages, and —
// under WithAdversary — the Dropped/Duplicated attribution of
// adversary-induced damage within the billed messages.
type PhaseCost = simulate.PhaseCost

// Observer receives live progress events from a running simulation.
//
// RoundCompleted fires after every LOCAL round the pipeline executes,
// labeled with the phase it belongs to. The registered schemes emit these
// phase names:
//
//   - "direct" — direct execution on G;
//   - "sampler" — a fresh stage-1 Sampler spanner construction;
//   - "sampler(cached)" — PhaseCompleted only: the run reused the engine's
//     cached stage-1 spanner, executed no sampler rounds, and bills the
//     stage at zero rounds and messages;
//   - "simulate-bs" / "simulate-en" — scheme2's simulated stage-2
//     construction (Baswana–Sen / Elkin–Neiman);
//   - "collect" — a spanner-carried collection flood;
//   - "collect(congest)" — the bandwidth-budgeted collection of
//     scheme1-congest, including its zero-message filler rounds;
//   - "gossip" — the push–pull gossip baseline, run until a central oracle
//     sees every t-ball covered: an oracle-stopped lower bound;
//   - "gossip(earlystop)" — the same gossip stage under the
//     gossip-converge scheme;
//   - "converge(halt)" — gossip-converge's distributed termination
//     detection pass (wave, convergecast-AND, broadcast halt);
//   - "globalcast" — globalcompute's wave/tree/convergecast protocol.
//
// WithAdversary introduces no phase names of its own: adversarial runs
// reuse the labels above, and the damage shows up in each PhaseCost's
// Dropped and Duplicated fields instead.
//
// These names are load-bearing beyond logging: they are the values of the
// "phase" label in the Prometheus-style exposition that
// MetricsSnapshot.MetricFamilies derives from a MetricsSink (served by
// cmd/serve at GET /v1/metrics), and "sampler(cached)" on a result's phase
// list is how serving layers detect a stage-1 spanner cache hit. Renaming a
// phase is therefore a breaking change for metrics consumers.
//
// PhaseCompleted fires when a whole pipeline stage finishes, with its cost.
// RoundCompleted is the only per-round record a run leaves: results keep
// totals only, and the ready-made MetricsSink reduces the stream to
// bounded per-phase statistics (totals, log-bucketed histograms, a ring of
// recent rounds).
//
// Within a single Run, callbacks fire on that run's coordinating goroutine
// and are never invoked concurrently with each other; an observer shared by
// concurrent Runs is called from each run's goroutine and must be safe for
// concurrent use. Callbacks must not call back into the running engine.
type Observer interface {
	RoundCompleted(phase string, round int, messages int64)
	PhaseCompleted(cost PhaseCost)
}

// ObserverFuncs adapts plain functions to the Observer interface. Nil
// fields ignore their events.
type ObserverFuncs struct {
	OnRound func(phase string, round int, messages int64)
	OnPhase func(cost PhaseCost)
}

// RoundCompleted implements Observer.
func (o ObserverFuncs) RoundCompleted(phase string, round int, messages int64) {
	if o.OnRound != nil {
		o.OnRound(phase, round, messages)
	}
}

// PhaseCompleted implements Observer.
func (o ObserverFuncs) PhaseCompleted(cost PhaseCost) {
	if o.OnPhase != nil {
		o.OnPhase(cost)
	}
}
