// Package adversary implements the pluggable network adversary the
// robustness experiments run the schemes against: a seeded, deterministic
// source of message drops, message duplication, crash-stop node failures,
// bounded per-edge delivery delays, and mid-run edge insertions/deletions.
//
// The paper's free-lunch claim — spanner-carried simulation cuts messages
// without losing rounds — is proved for a flawless synchronous network. The
// weak-LOCAL and full-information round-model literature (Hefetz–Kuhn–Maus–
// Steger; Balliu et al.) motivates exactly the perturbations modeled here,
// and this package supplies them as a profile the LOCAL engine consults at
// its delivery boundary.
//
// # Determinism
//
// Every adversarial decision is a pure hash of (profile seed, run seed,
// decision kind, round, edge, receiver, send order) through SplitMix64
// stream derivation — no mutable RNG state is consumed in decision order.
// Decisions therefore do not depend on engine choice, worker count, or
// delivery sharding: the sequential and concurrent engines at every worker
// count see the identical adversary, which is what keeps adversarial runs
// golden-pinnable. The package is bound by the repository's determinism
// contract (maporder, nowallclock).
//
// # Delay semantics
//
// Delays are per-edge constants: δ(e) = hash(seed, e) in [0, DelayBound].
// A message sent over e in round r arrives in round r+1+δ(e). Because every
// message on one edge is delayed by the same amount, per-edge FIFO order is
// automatic, and an inbox never interleaves same-edge messages from
// different send rounds.
package adversary

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Crash schedules a crash-stop failure: the node stops participating at the
// start of the given round (it does not step in that round, and messages
// already addressed to it are dropped — but still billed, as the model
// prescribes).
type Crash struct {
	Node  graph.NodeID `json:"node"`
	Round int          `json:"round"`
}

// EdgeOp is an EdgeEvent's operation.
type EdgeOp uint8

const (
	// InsertEdge adds a fresh edge between U and V (a new unique edge ID,
	// flowing through the CSR graph's incremental append path).
	InsertEdge EdgeOp = iota
	// DeleteEdge removes the lowest-ID edge between U and V. Deleting a pair
	// with no current edge is a no-op, so profiles stay graph-independent.
	DeleteEdge
)

// String returns the operation's wire name.
func (op EdgeOp) String() string {
	if op == DeleteEdge {
		return "delete"
	}
	return "insert"
}

// EdgeEvent schedules a topology mutation applied at the start of the given
// round, before any node steps: an inserted edge is usable by that round's
// sends, and messages still in flight over a deleted edge are dropped (and
// counted as adversary-induced drops).
type EdgeEvent struct {
	Round int          `json:"round"`
	Op    EdgeOp       `json:"op"`
	U     graph.NodeID `json:"u"`
	V     graph.NodeID `json:"v"`
}

// Profile is one adversary configuration: four composable perturbations plus
// the seed that makes them reproducible. The zero value is the null
// adversary (no perturbation at all).
type Profile struct {
	// Name labels the profile (golden files, benchmarks, request schemas).
	Name string `json:"name,omitempty"`
	// Seed salts every adversarial decision. Two profiles that differ only
	// in Seed drop/delay entirely different message sets.
	Seed uint64 `json:"seed,omitempty"`
	// DropRate is the per-message loss probability in [0, 1].
	DropRate float64 `json:"drop_rate,omitempty"`
	// DupRate is the per-message duplication probability in [0, 1]. A
	// duplicated message is delivered twice and billed twice.
	DupRate float64 `json:"dup_rate,omitempty"`
	// DelayBound bounds the per-edge delivery delay δ(e) ∈ [0, DelayBound].
	DelayBound int `json:"delay_bound,omitempty"`
	// Crashes are scheduled crash-stop failures. Entries naming nodes beyond
	// the run's graph are ignored, so profiles stay graph-independent.
	Crashes []Crash `json:"crashes,omitempty"`
	// EdgeEvents are scheduled topology mutations.
	EdgeEvents []EdgeEvent `json:"edge_events,omitempty"`
}

// Clone returns a copy of the profile whose Crashes and EdgeEvents have
// backing arrays of their own.
func (p *Profile) Clone() Profile {
	c := *p
	c.Crashes = slices.Clone(p.Crashes)
	c.EdgeEvents = slices.Clone(p.EdgeEvents)
	return c
}

// IsZero reports whether the profile perturbs nothing.
func (p *Profile) IsZero() bool {
	return p.DropRate == 0 && p.DupRate == 0 && p.DelayBound == 0 &&
		len(p.Crashes) == 0 && len(p.EdgeEvents) == 0
}

// Validate rejects profiles no run could honor.
func (p *Profile) Validate() error {
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("adversary: drop rate %v outside [0,1]", p.DropRate)
	}
	if p.DupRate < 0 || p.DupRate > 1 {
		return fmt.Errorf("adversary: duplication rate %v outside [0,1]", p.DupRate)
	}
	if p.DelayBound < 0 {
		return fmt.Errorf("adversary: negative delay bound %d", p.DelayBound)
	}
	for i, c := range p.Crashes {
		if c.Round < 0 {
			return fmt.Errorf("adversary: crash %d scheduled at negative round %d", i, c.Round)
		}
		if c.Node < 0 {
			return fmt.Errorf("adversary: crash %d names negative node %d", i, c.Node)
		}
	}
	for i, ev := range p.EdgeEvents {
		if ev.Round < 0 {
			return fmt.Errorf("adversary: edge event %d scheduled at negative round %d", i, ev.Round)
		}
		if ev.Op != InsertEdge && ev.Op != DeleteEdge {
			return fmt.Errorf("adversary: edge event %d has unknown op %d", i, ev.Op)
		}
		if ev.U < 0 || ev.V < 0 {
			return fmt.Errorf("adversary: edge event %d names negative node (%d,%d)", i, ev.U, ev.V)
		}
		if ev.U == ev.V {
			return fmt.Errorf("adversary: edge event %d is a self-loop on node %d", i, ev.U)
		}
	}
	return nil
}

// Adversary is a compiled profile bound to one run's seed: the form the
// LOCAL engine consults. Compile once per run; the zero cost of every query
// is a handful of SplitMix64 mixes.
type Adversary struct {
	profile Profile
	root    xrand.RNG
	crashes []Crash     // sorted by (round, node)
	events  []EdgeEvent // stable-sorted by round (same-round order preserved)
}

// Decision-kind stream identifiers. Distinct constants keep the drop,
// duplication, and delay hash families independent.
const (
	kindDrop uint64 = iota + 1
	kindDup
	kindDelay
)

// Compile binds a validated profile to a run seed. Decisions depend on both
// seeds, so re-running the same profile under a different run seed perturbs
// a different message set, while (profile, run seed) pairs reproduce
// bit-identically.
func Compile(p Profile, runSeed uint64) *Adversary {
	a := &Adversary{
		profile: p,
		root:    xrand.New(p.Seed).Derived(runSeed),
		crashes: slices.Clone(p.Crashes),
		events:  slices.Clone(p.EdgeEvents),
	}
	slices.SortFunc(a.crashes, func(x, y Crash) int {
		if x.Round != y.Round {
			return x.Round - y.Round
		}
		return int(x.Node - y.Node)
	})
	slices.SortStableFunc(a.events, func(x, y EdgeEvent) int { return x.Round - y.Round })
	return a
}

// Profile returns the profile the adversary was compiled from.
func (a *Adversary) Profile() Profile { return a.profile }

// decision derives the pure per-message stream for one decision kind.
func (a *Adversary) decision(kind uint64, round int, edge graph.EdgeID, to graph.NodeID, seq int32) xrand.RNG {
	// (round, edge, seq) alone is not unique: both endpoints of an edge can
	// send their seq-0 message over it in the same round, so the receiver is
	// part of the key.
	r := a.root.Derived(kind)
	r = r.Derived(uint64(round))
	r = r.Derived(uint64(edge))
	return r.Derived(uint64(to)<<32 | uint64(uint32(seq)))
}

// Drop reports whether the identified message is lost in transit.
func (a *Adversary) Drop(round int, edge graph.EdgeID, to graph.NodeID, seq int32) bool {
	if a.profile.DropRate <= 0 {
		return false
	}
	r := a.decision(kindDrop, round, edge, to, seq)
	return r.Bernoulli(a.profile.DropRate)
}

// Duplicate reports whether the identified message is delivered (and billed)
// twice.
func (a *Adversary) Duplicate(round int, edge graph.EdgeID, to graph.NodeID, seq int32) bool {
	if a.profile.DupRate <= 0 {
		return false
	}
	r := a.decision(kindDup, round, edge, to, seq)
	return r.Bernoulli(a.profile.DupRate)
}

// Delay returns the edge's constant delivery delay δ(e) ∈ [0, DelayBound]:
// the number of extra rounds a message over e spends in flight.
func (a *Adversary) Delay(edge graph.EdgeID) int {
	if a.profile.DelayBound <= 0 {
		return 0
	}
	r := a.root.Derived(kindDelay)
	r = r.Derived(uint64(edge))
	return r.Intn(a.profile.DelayBound + 1)
}

// MaxDelay returns the profile's delay bound (the size of the engine's
// future-delivery ring).
func (a *Adversary) MaxDelay() int { return a.profile.DelayBound }

// HasEdgeEvents reports whether the profile mutates topology mid-run (the
// engine then runs on a private clone of the input graph and tolerates sends
// over vanished edges).
func (a *Adversary) HasEdgeEvents() bool { return len(a.events) > 0 }

// CrashesAt returns the crashes scheduled for the given round, sorted by
// node.
func (a *Adversary) CrashesAt(round int) []Crash {
	lo := sort.Search(len(a.crashes), func(i int) bool { return a.crashes[i].Round >= round })
	hi := sort.Search(len(a.crashes), func(i int) bool { return a.crashes[i].Round > round })
	return a.crashes[lo:hi]
}

// EventsAt returns the edge events scheduled for the given round, in profile
// order.
func (a *Adversary) EventsAt(round int) []EdgeEvent {
	lo := sort.Search(len(a.events), func(i int) bool { return a.events[i].Round >= round })
	hi := sort.Search(len(a.events), func(i int) bool { return a.events[i].Round > round })
	return a.events[lo:hi]
}

// named is the shipped profile registry, in a fixed order (Names must be
// deterministic, so this is a slice, not a map). Node and round numbers are
// chosen to be meaningful on the repository's golden and sweep graphs
// (36–41 nodes); crash entries beyond a smaller graph are skipped at run
// time by construction.
var named = []Profile{
	{Name: "drop10", Seed: 0xad5e01, DropRate: 0.10},
	{Name: "dup15", Seed: 0xad5e02, DupRate: 0.15},
	{Name: "delay2", Seed: 0xad5e03, DelayBound: 2},
	{Name: "crash2", Seed: 0xad5e04, Crashes: []Crash{{Node: 3, Round: 2}, {Node: 11, Round: 4}}},
	{Name: "dynamic", Seed: 0xad5e05, EdgeEvents: []EdgeEvent{
		{Round: 1, Op: InsertEdge, U: 1, V: 4},
		{Round: 2, Op: DeleteEdge, U: 0, V: 1},
		{Round: 3, Op: InsertEdge, U: 2, V: 9},
		{Round: 4, Op: DeleteEdge, U: 2, V: 9},
	}},
	{Name: "mixed", Seed: 0xad5e06, DropRate: 0.05, DupRate: 0.05, DelayBound: 1,
		Crashes: []Crash{{Node: 5, Round: 3}}},
	{Name: "blackout", Seed: 0xad5e07, DropRate: 1},
}

// Named returns the shipped profile with the given name.
func Named(name string) (Profile, bool) {
	for _, p := range named {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the shipped profile names in registry order.
func Names() []string {
	out := make([]string, len(named))
	for i, p := range named {
		out[i] = p.Name
	}
	return out
}
