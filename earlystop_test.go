package repro_test

// Black-box tests of the gossip family: all three variants share one
// early-stopped gossip stage, so their bills and outputs agree under every
// adversary profile; that stage executes exactly cover+1 rounds, the CI
// assertion; and gossip-converge bills termination detection as its own
// phase.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro"
)

// countingObserver tallies executed rounds per phase — the probe for "how
// many rounds did the simulator actually run", as opposed to the billed
// rounds a result reports.
type countingObserver struct {
	rounds map[string]int
	phases []repro.PhaseCost
}

func (o *countingObserver) RoundCompleted(phase string, round int, messages int64) {
	o.rounds[phase]++
}

func (o *countingObserver) PhaseCompleted(c repro.PhaseCost) {
	o.phases = append(o.phases, c)
}

func runWithCounter(t *testing.T, scheme string, opts ...repro.Option) (*repro.SimulationResult, *countingObserver) {
	t.Helper()
	res, obs, err := runCounted(scheme, opts...)
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	return res, obs
}

func runCounted(scheme string, opts ...repro.Option) (*repro.SimulationResult, *countingObserver, error) {
	obs := &countingObserver{rounds: map[string]int{}}
	opts = append(opts, repro.WithSeed(7), repro.WithObserver(obs))
	eng := repro.NewEngine(opts...)
	res, err := eng.Run(context.Background(), scheme, testGraph(), repro.MaxID(3))
	return res, obs, err
}

// TestGossipEarlyStopBillEquivalence is the one-path pin: with no adversary
// and under every shipped profile, gossip, gossip-earlystop, and
// gossip-converge's first phase (its gossip stage, as streamed to the
// observer) agree on rounds, messages, and dropped and duplicated counts, and
// the runs that finish agree on outputs — or all three fail to cover with
// ErrRoundBudget. Termination detection may still starve after the gossip
// stage under lossy profiles; gossip-converge then fails in its second phase,
// and that failure must be an ErrRoundBudget too.
func TestGossipEarlyStopBillEquivalence(t *testing.T) {
	for _, name := range append([]string{"none"}, repro.AdversaryProfiles()...) {
		t.Run(name, func(t *testing.T) {
			var opts []repro.Option
			if name != "none" {
				p, ok := repro.NamedAdversary(name)
				if !ok {
					t.Fatalf("shipped profile %q did not resolve", name)
				}
				opts = append(opts, repro.WithAdversary(p))
			}
			type run struct {
				scheme string
				res    *repro.SimulationResult
				obs    *countingObserver
				err    error
			}
			var runs []run
			starved := 0
			for _, s := range []string{"gossip", "gossip-earlystop", "gossip-converge"} {
				res, obs, err := runCounted(s, opts...)
				if len(obs.phases) == 0 {
					if !errors.Is(err, repro.ErrRoundBudget) {
						t.Fatalf("%s finished no phase: err = %v, want ErrRoundBudget", s, err)
					}
					starved++
				} else if err != nil && (s != "gossip-converge" || !errors.Is(err, repro.ErrRoundBudget)) {
					t.Fatalf("%s: %v", s, err)
				}
				runs = append(runs, run{s, res, obs, err})
			}
			if starved > 0 {
				if starved != len(runs) {
					t.Fatalf("%d of %d gossip variants starved; want all or none", starved, len(runs))
				}
				return
			}
			plain := runs[0]
			if len(plain.res.Phases) != 1 || plain.res.Rounds != plain.res.Phases[0].Rounds ||
				plain.res.Messages != plain.res.Phases[0].Messages {
				t.Fatalf("gossip totals (%d, %d) are not its single phase %+v", plain.res.Rounds, plain.res.Messages, plain.res.Phases)
			}
			want := plain.obs.phases[0]
			for _, r := range runs[1:] {
				got := r.obs.phases[0]
				if got.Rounds != want.Rounds || got.Messages != want.Messages ||
					got.Dropped != want.Dropped || got.Duplicated != want.Duplicated {
					t.Fatalf("%s gossip phase %+v, gossip %+v", r.scheme, got, want)
				}
				if r.err == nil && !reflect.DeepEqual(r.res.Outputs, plain.res.Outputs) {
					t.Fatalf("%s outputs differ from gossip's", r.scheme)
				}
			}
		})
	}
}

// TestEarlyStopExecutesFewerRounds is the CI assertion: on the smoke graph,
// gossip and gossip-earlystop each execute exactly cover+1 simulator rounds,
// strictly fewer than the 100·n+1 rounds of the fixed schedule their budget
// allows. That the stopped prefix is the fixed schedule's own execution is
// pinned in internal/broadcast by TestGossipEarlyStopMatchesFixedSchedule; CI runs
// both by name next to the bench gates.
func TestEarlyStopExecutesFewerRounds(t *testing.T) {
	fixed := 100*testGraph().NumNodes() + 1
	for _, tc := range []struct{ scheme, phase string }{
		{"gossip", "gossip"},
		{"gossip-earlystop", "gossip(earlystop)"},
	} {
		res, obs := runWithCounter(t, tc.scheme)
		executed := obs.rounds[tc.phase]
		if executed != res.Rounds+1 {
			t.Fatalf("%s executed %d rounds for a bill of %d; want exactly cover+1", tc.scheme, executed, res.Rounds)
		}
		if executed >= fixed {
			t.Fatalf("%s executed %d rounds, fixed schedule %d — want strictly fewer", tc.scheme, executed, fixed)
		}
	}
}

// TestGossipConvergeBillsDetectionSeparately: the distributed-termination
// variant reports the convergecast pass as its own nonzero phase, sums it
// into the totals, and still reproduces direct execution's outputs.
func TestGossipConvergeBillsDetectionSeparately(t *testing.T) {
	res, obs := runWithCounter(t, "gossip-converge")
	gossip, _ := runWithCounter(t, "gossip")

	if len(res.Phases) != 2 {
		t.Fatalf("gossip-converge reported %d phases, want 2: %+v", len(res.Phases), res.Phases)
	}
	gs, detect := res.Phases[0], res.Phases[1]
	if gs.Name != "gossip(earlystop)" || detect.Name != "converge(halt)" {
		t.Fatalf("phase names %q, %q", gs.Name, detect.Name)
	}
	if detect.Rounds <= 0 || detect.Messages <= 0 {
		t.Fatalf("termination detection billed (%d rounds, %d messages); knowing you're done is not free", detect.Rounds, detect.Messages)
	}
	if res.Rounds != gs.Rounds+detect.Rounds || res.Messages != gs.Messages+detect.Messages {
		t.Fatalf("totals (%d, %d) are not the sum of phases %+v", res.Rounds, res.Messages, res.Phases)
	}
	// The gossip stage's bill matches the plain baseline's exactly; the
	// detection phase is the honestly billed premium on top.
	if gs.Rounds != gossip.Rounds || gs.Messages != gossip.Messages {
		t.Fatalf("gossip stage billed (%d, %d), plain gossip (%d, %d)", gs.Rounds, gs.Messages, gossip.Rounds, gossip.Messages)
	}
	if !reflect.DeepEqual(res.Outputs, gossip.Outputs) {
		t.Fatal("gossip-converge outputs differ from gossip's")
	}
	if obs.rounds["converge(halt)"] == 0 {
		t.Fatal("observer saw no detection rounds")
	}
}
