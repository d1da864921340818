package algorithms

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/local"
)

// MatchNode computes a maximal matching in the Israeli–Itai style: each
// 3-round iteration, every unmatched node flips a fair coin to act as either
// proposer or acceptor. Proposers propose over one random incident edge not
// known to lead to a matched node; acceptors accept the smallest-edge-ID
// proposal. Because the roles are exclusive within an iteration, a node can
// never match on two edges at once. Newly matched nodes announce "taken" to
// all neighbors at the start of the next iteration and fall silent.
//
// The Matched output is the edge ID the node matched over, or NoMatch for
// exposed nodes.
type MatchNode struct {
	T       int
	Matched graph.EdgeID

	taken     []graph.EdgeID // edges known to lead to a matched node, ascending
	proposer  bool
	proposed  graph.EdgeID
	announced bool
}

// NoMatch is the output of nodes the matching left exposed.
const NoMatch = graph.EdgeID(-1)

var _ local.Protocol = (*MatchNode)(nil)

type matchPropose struct{}
type matchAccept struct{}
type matchTaken struct{}

// Step implements local.Protocol. Rounds cycle through propose (0 mod 3),
// accept (1 mod 3), and settle (2 mod 3). Taken-announcements are ingested
// in every round: they are sent at propose rounds and so arrive at accept
// rounds.
func (p *MatchNode) Step(env *local.Env, round int, inbox []local.Message) {
	if round == 0 {
		p.Matched = NoMatch
	}
	for _, m := range inbox {
		if _, ok := m.Payload.(matchTaken); ok {
			p.taken = graph.InsertEdgeID(p.taken, m.Edge)
		}
	}
	switch round % 3 {
	case 0: // announce own match; propose
		if round >= p.T {
			env.Halt()
			return
		}
		if p.Matched != NoMatch {
			if !p.announced {
				p.announced = true
				for _, pt := range env.Ports() {
					env.Send(pt.Edge, matchTaken{})
				}
			}
			return
		}
		p.proposer = false
		candidates := p.openEdges(env)
		if len(candidates) == 0 {
			return // exposed: every neighbor is matched
		}
		if env.Rand().Bool() {
			p.proposer = true
			p.proposed = candidates[env.Rand().Intn(len(candidates))]
			env.Send(p.proposed, matchPropose{})
		}
	case 1: // acceptors take the best proposal
		if p.Matched != NoMatch || p.proposer {
			if round >= p.T {
				env.Halt()
			}
			return
		}
		best := NoMatch
		for _, m := range inbox {
			if _, ok := m.Payload.(matchPropose); ok {
				if best == NoMatch || m.Edge < best {
					best = m.Edge
				}
			}
		}
		if best != NoMatch {
			p.Matched = best
			env.Send(best, matchAccept{})
		}
		if round >= p.T {
			env.Halt()
		}
	case 2: // proposers learn their fate
		if p.proposer && p.Matched == NoMatch {
			for _, m := range inbox {
				if _, ok := m.Payload.(matchAccept); ok && m.Edge == p.proposed {
					p.Matched = p.proposed
				}
			}
		}
		p.proposer = false
		if round >= p.T {
			env.Halt()
		}
	}
}

// openEdges lists incident edges not known to lead to a matched node.
func (p *MatchNode) openEdges(env *local.Env) []graph.EdgeID {
	var out []graph.EdgeID
	for _, pt := range env.Ports() {
		if _, taken := slices.BinarySearch(p.taken, pt.Edge); !taken {
			out = append(out, pt.Edge)
		}
	}
	return out
}

// MatchingRounds returns the default whp budget (a multiple of 3 with room
// for the trailing announcement round).
func MatchingRounds(n int) int {
	iters := 6*ceilLog2(n) + 6
	return 3 * iters
}

func ceilLog2(n int) int {
	b, v := 0, 1
	for v < n {
		v <<= 1
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}

// Matching returns the maximal-matching spec with budget t.
func Matching(t int) Spec {
	return Spec{
		Name:   "matching",
		T:      t,
		New:    func(graph.NodeID) local.Protocol { return &MatchNode{T: t} },
		Output: func(p local.Protocol) any { return p.(*MatchNode).Matched },
	}
}
