// Package algorithms provides the t-round LOCAL algorithms used as
// simulation targets for the paper's message-reduction schemes (Section 6):
// t-hop maximum ID, Luby's maximal independent set, randomized
// (Δ+1)-coloring, and BFS layering.
//
// Every algorithm conforms to the contract the schemes need: it runs for a
// fixed, publicly known round budget T (halting exactly at round T), and its
// behaviour depends only on the node's identity, its incident edge IDs, its
// private random stream, and its inbox — precisely the initial knowledge
// whose t-ball the simulation collects and replays.
package algorithms

import (
	"math"

	"repro/internal/graph"
	"repro/internal/local"
)

// Spec packages an algorithm for the simulation engine: a round budget, a
// protocol factory, and an output extractor.
type Spec struct {
	// Name identifies the algorithm in experiment tables.
	Name string
	// T is the fixed round budget; instances halt at round T.
	T int
	// New builds the protocol instance for a node. The simulation replays
	// collected balls on concurrent workers, so New (and Output) may be
	// invoked from multiple goroutines at once and must not mutate state
	// shared across calls.
	New func(v graph.NodeID) local.Protocol
	// Output extracts a node's final output from its protocol instance. For
	// the facade's target algorithms the returned value must be comparable
	// with == for fidelity checks. A spanner.Construction's outputs are
	// strictly ascending edge lists ([]graph.EdgeID), compared with
	// reflect.DeepEqual.
	Output func(p local.Protocol) any
}

// ------------------------------------------------------------- max ID ---

// MaxIDNode floods the largest identity seen; after T rounds Best is the
// maximum ID in the node's T-ball. Its exact output oracle (a BFS) makes it
// the canonical fidelity check for the simulation engine.
type MaxIDNode struct {
	T    int
	Best graph.NodeID

	// boxed caches Best converted to the payload interface. The node boxes
	// its own ID once; a larger Best arrives already boxed in a message
	// payload, and that box is reused, so a node's sends allocate at most
	// once per run.
	boxed any
}

var _ local.Protocol = (*MaxIDNode)(nil)

// Step implements local.Protocol.
func (p *MaxIDNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.Best = env.ID()
	}
	for _, m := range inbox {
		if v := m.Payload.(graph.NodeID); v > p.Best {
			p.Best, p.boxed = v, m.Payload
		}
	}
	if round == p.T {
		env.Halt()
		return
	}
	if p.boxed == nil {
		p.boxed = p.Best
	}
	for _, pt := range env.Ports() {
		env.Send(pt.Edge, p.boxed)
	}
}

// MaxID returns the t-hop maximum-ID spec.
func MaxID(t int) Spec {
	return Spec{
		Name:   "maxid",
		T:      t,
		New:    func(graph.NodeID) local.Protocol { return &MaxIDNode{T: t} },
		Output: func(p local.Protocol) any { return p.(*MaxIDNode).Best },
	}
}

// ----------------------------------------------------------------- MIS ---

// MISState is a node's final MIS status.
type MISState int

const (
	// MISUndecided means the round budget expired before the node settled
	// (happens with probability 1/poly(n) for the default budget).
	MISUndecided MISState = iota
	// MISIn means the node joined the independent set.
	MISIn
	// MISOut means a neighbor joined.
	MISOut
)

func (s MISState) String() string {
	return [...]string{"undecided", "in", "out"}[s]
}

// MISNode runs Luby's algorithm: each 2-round iteration, undecided nodes
// draw a random priority; local maxima join the set and knock their
// neighbors out.
type MISNode struct {
	T     int
	State MISState

	prio   uint64
	active bool // drew a priority this iteration
}

var _ local.Protocol = (*MISNode)(nil)

type misPrio struct {
	P  uint64
	ID graph.NodeID
}
type misJoined struct{}

// Step implements local.Protocol. Inbox ingestion precedes the budget check
// so that messages landing exactly at round T still update the final state.
func (p *MISNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round%2 == 0 {
		// Round A: ingest join announcements, then draw and share priority.
		for _, m := range inbox {
			if _, ok := m.Payload.(misJoined); ok && p.State == MISUndecided {
				p.State = MISOut
			}
		}
		if round >= p.T {
			env.Halt()
			return
		}
		p.active = false
		if p.State != MISUndecided {
			return
		}
		p.prio = env.Rand().Uint64()
		p.active = true
		for _, pt := range env.Ports() {
			env.Send(pt.Edge, misPrio{P: p.prio, ID: env.ID()})
		}
		return
	}
	// Round B: local maxima join.
	if p.active {
		win := true
		me := misPrio{P: p.prio, ID: env.ID()}
		for _, m := range inbox {
			if other, ok := m.Payload.(misPrio); ok && misLess(me, other) {
				win = false
			}
		}
		if win {
			p.State = MISIn
			if round < p.T {
				for _, pt := range env.Ports() {
					env.Send(pt.Edge, misJoined{})
				}
			}
		}
	}
	if round >= p.T {
		env.Halt()
	}
}

// misLess orders priorities lexicographically by (P, ID); IDs are unique so
// ties cannot deadlock.
func misLess(a, b misPrio) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	return a.ID < b.ID
}

// MISRounds returns the default budget: c·log2(n) iterations of 2 rounds.
func MISRounds(n int) int {
	return 2 * (4*int(math.Ceil(math.Log2(math.Max(2, float64(n))))) + 2)
}

// MIS returns the Luby MIS spec with round budget t (use MISRounds for the
// default whp-termination budget).
func MIS(t int) Spec {
	return Spec{
		Name:   "mis",
		T:      t,
		New:    func(graph.NodeID) local.Protocol { return &MISNode{T: t} },
		Output: func(p local.Protocol) any { return p.(*MISNode).State },
	}
}

// ------------------------------------------------------------ coloring ---

// ColorNode runs randomized (Δ+1)-coloring: each 2-round iteration an
// uncolored node proposes a random color from its remaining palette; the
// largest-ID proposer of each color in a neighborhood keeps it.
type ColorNode struct {
	T     int
	Color int // 0 = undecided; final colors are 1..deg+1

	proposal int
	taken    []bool // taken[c]: a neighbor finalized color c ≤ deg+1
}

var _ local.Protocol = (*ColorNode)(nil)

type colorProp struct {
	C  int
	ID graph.NodeID
}
type colorFinal struct{ C int }

// Step implements local.Protocol. Inbox ingestion precedes the budget check
// so that messages landing exactly at round T still update the final state.
func (p *ColorNode) Step(env *local.Env, round int, inbox []local.Message) {
	if p.taken == nil {
		p.taken = make([]bool, env.Degree()+2)
	}
	if round%2 == 0 {
		// Round A: ingest finalized neighbor colors, then propose.
		for _, m := range inbox {
			// A color above deg+1 never enters the palette.
			if f, ok := m.Payload.(colorFinal); ok && f.C < len(p.taken) {
				p.taken[f.C] = true
			}
		}
		if round >= p.T {
			env.Halt()
			return
		}
		p.proposal = 0
		if p.Color != 0 {
			return
		}
		palette := make([]int, 0, env.Degree()+1)
		for c := 1; c <= env.Degree()+1; c++ {
			if !p.taken[c] {
				palette = append(palette, c)
			}
		}
		if len(palette) == 0 {
			// Cannot happen: at most deg neighbors can finalize.
			panic("algorithms: empty palette")
		}
		p.proposal = palette[env.Rand().Intn(len(palette))]
		for _, pt := range env.Ports() {
			env.Send(pt.Edge, colorProp{C: p.proposal, ID: env.ID()})
		}
		return
	}
	// Round B: keep the proposal if every same-color proposer has smaller ID.
	if p.proposal != 0 {
		win := true
		for _, m := range inbox {
			if prop, ok := m.Payload.(colorProp); ok && prop.C == p.proposal && prop.ID > env.ID() {
				win = false
			}
		}
		if win {
			p.Color = p.proposal
			if round < p.T {
				for _, pt := range env.Ports() {
					env.Send(pt.Edge, colorFinal{C: p.Color})
				}
			}
		}
	}
	if round >= p.T {
		env.Halt()
	}
}

// ColoringRounds returns the default whp budget, like MISRounds.
func ColoringRounds(n int) int { return MISRounds(n) }

// Coloring returns the randomized (Δ+1)-coloring spec with budget t.
func Coloring(t int) Spec {
	return Spec{
		Name:   "coloring",
		T:      t,
		New:    func(graph.NodeID) local.Protocol { return &ColorNode{T: t} },
		Output: func(p local.Protocol) any { return p.(*ColorNode).Color },
	}
}

// ---------------------------------------------------------- BFS layers ---

// Unreached is the BFS output for nodes farther than T from the source.
const Unreached = -1

// BFSNode computes the node's hop distance from the source (the node with
// ID == Source) up to T.
type BFSNode struct {
	T      int
	Source graph.NodeID
	Dist   int

	started bool
}

var _ local.Protocol = (*BFSNode)(nil)

type bfsWave struct{ D int }

// Step implements local.Protocol. Inbox ingestion precedes the budget check
// so that a wave landing exactly at round T still sets the distance.
func (p *BFSNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.Dist = Unreached
		if env.ID() == p.Source {
			p.Dist = 0
		}
	}
	for _, m := range inbox {
		if w, ok := m.Payload.(bfsWave); ok && p.Dist == Unreached {
			p.Dist = w.D + 1
		}
	}
	if round >= p.T {
		env.Halt()
		return
	}
	if p.Dist != Unreached && !p.started {
		p.started = true
		for _, pt := range env.Ports() {
			env.Send(pt.Edge, bfsWave{D: p.Dist})
		}
	}
}

// BFS returns the BFS-layering spec from the given source with budget t.
func BFS(source graph.NodeID, t int) Spec {
	return Spec{
		Name:   "bfs",
		T:      t,
		New:    func(graph.NodeID) local.Protocol { return &BFSNode{T: t, Source: source} },
		Output: func(p local.Protocol) any { return p.(*BFSNode).Dist },
	}
}
