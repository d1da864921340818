package repro_test

// Damage attribution under the adversary: every run, whichever scheme and
// profile, bills each phase's drops and duplicates inside its own message
// count, sums its phases to its totals, fails only with the typed budget
// errors, and renders identically on both engines. The invariant test pins
// this for every shipped profile and every registered scheme; the fuzz
// target explores profiles, graphs, schemes and algorithms beyond them, and
// checks the theorem itself on each input's flawless run.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/graph/gen"
)

// checkAttribution asserts the accounting invariants of one run's outcome:
// a failure is typed, and a success has 0 <= Dropped <= Messages and
// 0 <= Duplicated <= Messages in every phase, with the phases summing to
// the run's Rounds and Messages.
func checkAttribution(t *testing.T, label string, res *repro.SimulationResult, err error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, repro.ErrRoundBudget) && !errors.Is(err, repro.ErrDeadline) {
			t.Fatalf("%s: untyped failure: %v", label, err)
		}
		return
	}
	var rounds int
	var messages int64
	for _, ph := range res.Phases {
		if ph.Dropped < 0 || ph.Dropped > ph.Messages {
			t.Fatalf("%s: phase %s dropped %d of %d messages", label, ph.Name, ph.Dropped, ph.Messages)
		}
		if ph.Duplicated < 0 || ph.Duplicated > ph.Messages {
			t.Fatalf("%s: phase %s duplicated %d of %d messages", label, ph.Name, ph.Duplicated, ph.Messages)
		}
		rounds += ph.Rounds
		messages += ph.Messages
	}
	if rounds != res.Rounds || messages != res.Messages {
		t.Fatalf("%s: phases sum to %d rounds and %d messages, run reports %d and %d",
			label, rounds, messages, res.Rounds, res.Messages)
	}
}

// TestAdversaryDamageAttribution runs every shipped adversary profile
// against every registered scheme, on the sequential engine and a
// two-worker pool, and requires each run to satisfy checkAttribution and
// both engines to render the same result or error.
func TestAdversaryDamageAttribution(t *testing.T) {
	g := goldenGraph()
	spec := repro.MaxID(3)
	for _, name := range repro.AdversaryProfiles() {
		profile, ok := repro.NamedAdversary(name)
		if !ok {
			t.Fatalf("shipped profile %q did not resolve", name)
		}
		for _, s := range repro.Schemes() {
			t.Run(name+"/"+s.Name(), func(t *testing.T) {
				var renders [2]string
				for i, workers := range []int{0, 2} {
					eng := repro.NewEngine(
						repro.WithSeed(5),
						repro.WithConcurrency(workers),
						repro.WithAdversary(profile),
					)
					res, err := eng.RunScheme(context.Background(), s, g, spec)
					checkAttribution(t, s.Name(), res, err)
					renders[i] = renderRunOrError(res, err)
				}
				if renders[0] != renders[1] {
					t.Fatalf("workers=2 drifted from the sequential engine:\n--- concurrent ---\n%s--- sequential ---\n%s",
						renders[1], renders[0])
				}
			})
		}
	}
}

// fuzzRoundBudget is the round budget of every fuzzed run. The flawless
// network finishes every registered scheme on every decodable graph well
// inside it, so a budget failure is the adversary's doing.
const fuzzRoundBudget = 4000

// fuzzScheme is the registered scheme FuzzAdversaryProfile runs for its
// scheme byte, data[4].
func fuzzScheme(b byte) *repro.Scheme {
	schemes := repro.Schemes()
	return schemes[int(b)%len(schemes)]
}

// fuzzSpec is the algorithm FuzzAdversaryProfile runs for its algorithm
// byte, data[5]: radius 1+b%3, and (b/3)%4 picks maxid, mis, coloring, or
// bfs from node 0.
func fuzzSpec(b byte) repro.AlgorithmSpec {
	t := 1 + int(b)%3
	switch (b / 3) % 4 {
	case 1:
		return repro.MIS(t)
	case 2:
		return repro.Coloring(t)
	case 3:
		return repro.BFSLayers(0, t)
	}
	return repro.MaxID(t)
}

// checkFlawless runs s once on the flawless network and checks the theorem
// on it: the run succeeds and satisfies checkAttribution, the messages its
// RoundCompleted stream reports sum to its bill, and every node's output
// equals direct execution's.
func checkFlawless(t *testing.T, label string, s *repro.Scheme, g *repro.Graph, spec repro.AlgorithmSpec, seed uint64) {
	t.Helper()
	var streamed int64
	eng := repro.NewEngine(
		repro.WithSeed(seed),
		repro.WithMaxRounds(fuzzRoundBudget),
		repro.WithDeadline(time.Minute),
		repro.WithObserver(repro.ObserverFuncs{OnRound: func(_ string, _ int, m int64) { streamed += m }}),
	)
	res, err := eng.RunScheme(context.Background(), s, g, spec)
	if err != nil {
		t.Fatalf("%s: the flawless network failed: %v", label, err)
	}
	checkAttribution(t, label, res, nil)
	if streamed != res.Messages {
		t.Fatalf("%s: RoundCompleted streamed %d messages, the run reports %d", label, streamed, res.Messages)
	}
	direct, err := repro.NewEngine(repro.WithSeed(seed)).Run(context.Background(), "direct", g, spec)
	if err != nil {
		t.Fatalf("%s: direct: %v", label, err)
	}
	for v := range direct.Outputs {
		if res.Outputs[v] != direct.Outputs[v] {
			t.Fatalf("%s: node %d output %v, direct %v", label, v, res.Outputs[v], direct.Outputs[v])
		}
	}
}

// FuzzAdversaryProfile decodes fuzz bytes into an adversary profile (seed,
// drop and duplication rates in [0, 1], delay bound <= 3, at most 3 crashes
// and at most 3 edge events), a small generated graph (n <= 32), a
// registered scheme and an algorithm (fuzzSpec). It first runs the scheme
// once on the flawless network, which must pass checkFlawless. It then
// runs the scheme under the profile on the sequential engine and a
// two-worker pool, under a round budget the flawless network meets and a
// generous deadline as a hang guard. No run may panic; every error must be
// typed; a successful run must satisfy checkAttribution; and the two
// engines must render the same outcome unless the wall clock cut one of
// them short. A profile that perturbs nothing must succeed.
func FuzzAdversaryProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		families := []string{"gnp", "torus", "path", "tree", "regular", "cycle", "grid", "pa", "star", "complete"}
		gs := gen.Spec{
			Family: families[int(data[0])%len(families)],
			N:      2 + int(data[1])%31,
			Degree: float64(2 + int(data[2])%4),
			Seed:   uint64(data[3]),
		}
		g, err := gen.Build(gs)
		if err != nil || g.NumNodes() > 32 {
			return // a shape the family rejects
		}
		s := fuzzScheme(data[4])
		spec := fuzzSpec(data[5])
		profile := repro.AdversaryProfile{
			Seed:       uint64(data[6]),
			DropRate:   float64(data[7]) / 255,
			DupRate:    float64(data[8]) / 255,
			DelayBound: int(data[9]) % 4,
		}
		rest := data[10:]
		if len(rest) > 0 {
			crashes := int(rest[0]) % 4
			rest = rest[1:]
			for ; crashes > 0 && len(rest) >= 2; crashes-- {
				profile.Crashes = append(profile.Crashes, repro.AdversaryCrash{
					Node:  repro.NodeID(rest[0] % 40),
					Round: int(rest[1] % 32),
				})
				rest = rest[2:]
			}
		}
		if len(rest) > 0 {
			events := int(rest[0]) % 4
			rest = rest[1:]
			for ; events > 0 && len(rest) >= 3; events-- {
				// Endpoints range past small graphs (the engine ignores such
				// events) but never coincide: a self-loop is not an event.
				u := repro.NodeID(rest[1] % 40)
				v := (u + 1 + repro.NodeID(rest[2]%39)) % 40
				ev := repro.AdversaryEdgeEvent{Round: int(rest[0] % 32), Op: repro.InsertEdge, U: u, V: v}
				if rest[0]&0x80 != 0 {
					ev.Op = repro.DeleteEdge
				}
				profile.EdgeEvents = append(profile.EdgeEvents, ev)
				rest = rest[3:]
			}
		}

		label := s.Name() + "/" + spec.Name + " on " + gs.Key()
		checkFlawless(t, label, s, g, spec, uint64(data[3])+1)
		var renders [2]string
		deadline := false
		for i, workers := range []int{0, 2} {
			eng := repro.NewEngine(
				repro.WithSeed(uint64(data[3])+1),
				repro.WithConcurrency(workers),
				repro.WithMaxRounds(fuzzRoundBudget),
				repro.WithDeadline(time.Minute),
				repro.WithAdversary(profile),
			)
			res, err := eng.RunScheme(context.Background(), s, g, spec)
			checkAttribution(t, label, res, err)
			if err != nil && profile.IsZero() {
				t.Fatalf("%s: the flawless network failed: %v", label, err)
			}
			deadline = deadline || errors.Is(err, repro.ErrDeadline)
			renders[i] = renderRunOrError(res, err)
		}
		if !deadline && renders[0] != renders[1] {
			t.Fatalf("%s: workers=2 drifted from the sequential engine:\n--- concurrent ---\n%s--- sequential ---\n%s",
				label, renders[1], renders[0])
		}
	})
}

// misnamedSeeds names the scheme of each committed FuzzAdversaryProfile seed
// whose file name records the failure it reproduces instead of its scheme.
var misnamedSeeds = map[string]string{
	"crasher-cycle2-multigraph": "scheme2",
}

// TestFuzzAdversarySeedsTargetNamedScheme pins every committed seed of
// FuzzAdversaryProfile to the scheme its file name names. The fuzz body
// picks its scheme as data[4] modulo the size of the scheme table, so a
// change to the table silently retargets every seed whose byte it moves.
// A seed's name must end with its scheme's name or with that name's last
// dash-separated word ("dup-regular-converge" runs gossip-converge), unless
// misnamedSeeds lists it. Every registered scheme must have a seed.
func TestFuzzAdversarySeedsTargetNamedScheme(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAdversaryProfile")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no seeds under %s", dir)
	}
	seeded := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) < 10 {
			t.Fatalf("%s: %d bytes, the fuzz body skips inputs under 10", name, len(data))
		}
		got := fuzzScheme(data[4]).Name()
		seeded[got] = true
		want, ok := misnamedSeeds[name]
		if !ok {
			words := strings.Split(got, "-")
			if strings.HasSuffix(name, "-"+got) || strings.HasSuffix(name, "-"+words[len(words)-1]) {
				continue
			}
			t.Errorf("seed %s runs scheme %s (byte %#02x); its name must end with the scheme it targets", name, got, data[4])
			continue
		}
		if got != want {
			t.Errorf("seed %s runs scheme %s (byte %#02x), want %s", name, got, data[4], want)
		}
	}
	for _, name := range repro.SchemeNames() {
		if !seeded[name] {
			t.Errorf("scheme %s has no committed seed under %s", name, dir)
		}
	}
}
