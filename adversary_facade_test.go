package repro_test

// Facade-level pins for the pluggable adversary layer: every shipped
// profile is golden-pinned bit for bit on both engines at several worker
// counts, the 100%-drop starvation profile surfaces typed budget errors
// registry-wide instead of hanging, early-stopped gossip under delivery
// delays reaches the exact unstopped bill, and an engine's profile cannot be
// edited from outside it.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/broadcast"
	"repro/internal/local"
)

// adversaryGoldenSchemes is the scheme slice the per-profile goldens cover:
// the ground truth, both paper pipelines, the early-stopping gossip
// baseline, and the Section 7 extension — every distinct protocol family
// the adversary can perturb.
var adversaryGoldenSchemes = []string{"direct", "scheme1", "scheme2", "gossip", "globalcompute"}

// renderRunOrError renders a run like the golden files do, or pins the
// error string: under crash and blackout profiles some schemes must fail
// (typed, deterministic), and that failure mode is part of the pinned
// behaviour.
func renderRunOrError(res *repro.SimulationResult, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return renderResult(res)
}

// TestAdversaryGolden pins every shipped adversary profile, on every scheme
// in adversaryGoldenSchemes, against committed golden output — and asserts
// the sequential and concurrent engines render identically at several
// worker counts, and that every pinned failure is an ErrRoundBudget or an
// ErrDeadline. Adversarial decisions are pure hashes of message identity,
// so a worker-count-dependent render is a determinism regression.
func TestAdversaryGolden(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	const seed = 5
	for _, name := range repro.AdversaryProfiles() {
		profile, ok := repro.NamedAdversary(name)
		if !ok {
			t.Fatalf("shipped profile %q did not resolve", name)
		}
		for _, scheme := range adversaryGoldenSchemes {
			t.Run(name+"/"+scheme, func(t *testing.T) {
				run := func(concurrency int) string {
					eng := repro.NewEngine(
						repro.WithSeed(seed),
						repro.WithGamma(1),
						repro.WithStageK(2),
						repro.WithConcurrency(concurrency),
						repro.WithAdversary(profile),
					)
					res, err := eng.Run(context.Background(), scheme, g, spec)
					// A pinned failure must be typed, so callers (and the
					// service's status mapping) can tell starvation apart.
					if err != nil && !errors.Is(err, repro.ErrRoundBudget) && !errors.Is(err, repro.ErrDeadline) {
						t.Errorf("workers=%d: untyped failure: %v", concurrency, err)
					}
					return renderRunOrError(res, err)
				}
				sequential := run(0)
				for _, workers := range []int{2, 7} {
					if got := run(workers); got != sequential {
						t.Fatalf("workers=%d drifted from the sequential engine:\n--- concurrent ---\n%s--- sequential ---\n%s",
							workers, got, sequential)
					}
				}
				checkGolden(t, "adversary-"+name+"-"+scheme, sequential)
			})
		}
	}
}

// TestAdversaryStarvationTyped sweeps the whole scheme registry under the
// shipped total-loss profile: with a finite round budget every scheme must
// fail with the typed ErrRoundBudget — promptly, never hanging — and under
// a wall-clock budget with the typed ErrDeadline.
func TestAdversaryStarvationTyped(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	blackout, ok := repro.NamedAdversary("blackout")
	if !ok {
		t.Fatal("blackout profile missing from the registry")
	}
	for _, s := range repro.Schemes() {
		t.Run(s.Name()+"/rounds", func(t *testing.T) {
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithAdversary(blackout),
				repro.WithMaxRounds(3), // below every pipeline's billed schedule
			)
			_, err := eng.RunScheme(context.Background(), s, g, spec)
			if !errors.Is(err, repro.ErrRoundBudget) {
				t.Fatalf("err = %v, want ErrRoundBudget", err)
			}
		})
		t.Run(s.Name()+"/deadline", func(t *testing.T) {
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithAdversary(blackout),
				repro.WithDeadline(time.Nanosecond),
			)
			_, err := eng.RunScheme(context.Background(), s, g, spec)
			if !errors.Is(err, repro.ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
		})
	}
}

// TestGossipEarlyStopUnderDelayExactBill pins that stopping with delayed
// messages still in the ring bills the fixed schedule's prefix: under a
// pure-delay profile, the gossip scheme's early-stopped stage reports the
// exact cover round and message bill of the unstopped fixed schedule
// (broadcast.Gossip run for the same 100·n-round budget under the same
// compiled adversary), summed over that run's OnRound stream. Its cover
// round is the first r at which the fixed schedule clipped at r rounds has
// covered every ball: nodes learn before they send, so the clipped run
// knows what the full schedule knew through round r.
func TestGossipEarlyStopUnderDelayExactBill(t *testing.T) {
	g := goldenGraph()
	const seed, tBall = 5, 3
	delay, ok := repro.NamedAdversary("delay2")
	if !ok {
		t.Fatal("delay2 profile missing from the registry")
	}
	eng := repro.NewEngine(repro.WithSeed(seed), repro.WithAdversary(delay))
	early, err := eng.Run(context.Background(), "gossip", g, repro.MaxID(tBall))
	if err != nil {
		t.Fatal(err)
	}

	payloads := make([][]repro.EdgeID, g.NumNodes())
	cfg := local.Config{Seed: seed, Adversary: adversary.Compile(delay, seed)}
	schedule := 100 * g.NumNodes()
	var full []int64
	fullCfg := cfg
	fullCfg.OnRound = func(_ int, m int64) { full = append(full, m) }
	if _, _, err := broadcast.Gossip(context.Background(), g, payloads, nil, schedule, fullCfg); err != nil {
		t.Fatal(err)
	}
	bi := broadcast.NewBallIndex(g, tBall)
	cover := -1
	for r := 0; r <= schedule && cover < 0; r++ {
		clipped, _, err := broadcast.Gossip(context.Background(), g, payloads, nil, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cover = r
		for v, known := range clipped.Known {
			for _, u := range bi.Members(repro.NodeID(v)) {
				if _, ok := slices.BinarySearch(known, u); !ok {
					cover = -1
				}
			}
		}
	}
	if cover < 0 {
		t.Fatalf("the fixed schedule never covered every %d-ball", tBall)
	}
	var bill int64
	for _, m := range full[:cover+1] {
		bill += m
	}
	if cover != early.Rounds || bill != early.Messages {
		t.Fatalf("bills differ: unstopped %d rounds / %d messages, gossip %d / %d",
			cover, bill, early.Rounds, early.Messages)
	}
}

// TestAdversaryProfileNotAliased pins that an engine's adversary profile is
// its own: editing the caller's profile after NewEngine, or the profile
// Engine.Options returns, changes neither the engine's options nor its runs.
func TestAdversaryProfileNotAliased(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	profile := repro.AdversaryProfile{
		Name:       "aliasing",
		Seed:       3,
		DropRate:   0.1,
		Crashes:    []repro.AdversaryCrash{{Node: 1, Round: 1}},
		EdgeEvents: []repro.AdversaryEdgeEvent{{Round: 2, Op: adversary.DeleteEdge, U: 0, V: 1}},
	}
	eng := repro.NewEngine(repro.WithSeed(5), repro.WithAdversary(profile))
	before, err := eng.Run(context.Background(), "direct", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Options().Adversary.Clone()

	profile.DropRate = 0.9
	profile.Crashes[0] = repro.AdversaryCrash{Node: 2, Round: 0}
	profile.EdgeEvents[0].Round = 0
	got := eng.Options().Adversary
	got.DropRate = 0.5
	got.Crashes[0].Round = 7
	got.EdgeEvents[0].U = 3

	if after := *eng.Options().Adversary; !reflect.DeepEqual(after, want) {
		t.Fatalf("engine profile changed from outside: %+v, want %+v", after, want)
	}
	after, err := eng.Run(context.Background(), "direct", g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(after) != renderResult(before) {
		t.Fatal("editing the caller's or the returned profile perturbed the engine's runs")
	}
}

// TestAdversaryNilPathByteIdentical double-checks the no-adversary
// contract at the facade: an engine with a zero profile renders exactly
// like an engine with no adversary at all (the zero profile compiles to
// the nil fast path).
func TestAdversaryNilPathByteIdentical(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	for _, scheme := range []string{"direct", "scheme1"} {
		plain := repro.NewEngine(repro.WithSeed(5))
		zeroed := repro.NewEngine(repro.WithSeed(5), repro.WithAdversary(repro.AdversaryProfile{Name: "noop"}))
		a, err := plain.Run(context.Background(), scheme, g, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := zeroed.Run(context.Background(), scheme, g, spec)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(a) != renderResult(b) {
			t.Fatalf("%s: zero profile perturbed the run", scheme)
		}
	}
}

// TestWithAdversaryValidation pins option validation: a malformed profile
// fails fast on every scheme, with the profile named in the error.
func TestWithAdversaryValidation(t *testing.T) {
	g := goldenGraph()
	eng := repro.NewEngine(repro.WithAdversary(repro.AdversaryProfile{DropRate: 1.5}))
	_, err := eng.Run(context.Background(), "direct", g, repro.MaxID(2))
	if err == nil {
		t.Fatal("drop rate 1.5 accepted")
	}
	if want := "drop rate"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}
}
