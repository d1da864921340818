package core

import "fmt"

// The distributed Sampler runs on a global, deterministic round schedule
// computed identically by every node from the public parameters (n, K, H).
// Each level j is a fixed sequence of phases; tree-bound phases (broadcast,
// convergecast, flood) are allotted the worst-case cluster-tree depth
// 3^j − 1 plus one round, so all clusters stay in lockstep regardless of
// their actual shape. Clusters that finished early simply idle through
// their slots — this preserves the paper's O(3^k·h) round bound while the
// message bound benefits from early termination.

type phaseKind int

const (
	phTrialBcast  phaseKind = iota + 1 // root draws samples; list flows down the tree
	phTrialQuery                       // edge owners send QUERY over sampled edges
	phTrialReply                       // query receivers answer with (root, dead?, boundary)
	phTrialConv                        // replies convergecast to the root, which peels and grows F
	phCenterBcast                      // root flips the center coin; flag + probe list flow down
	phProbeSend                        // owners probe queried clusters for center status
	phProbeReply                       // probed nodes answer (root, isCenter)
	phProbeConv                        // probe answers convergecast to the root
	phFSBcast                          // fail-safe: root ships its remaining unexplored edges down
	phFSQuery                          // owners query every remaining edge
	phFSReply                          // receivers answer (root, dead?, isCenter, boundary)
	phFSConv                           // answers convergecast; root becomes light
	phDecideBcast                      // root's verdict (center/join/dead) flows down
	phJoinSend                         // the join-edge owner ships the joiner's boundary across
	phJoinConv                         // accepted joins convergecast to the center root
	phNewCluster                       // new-cluster flood: root ID, boundary, re-rooted tree
	phFlushBcast                       // final level: last F additions flow down
	phFlushAccept                      // owners notify far endpoints of spanner membership
)

var phaseNames = [...]string{
	phTrialBcast: "trial-bcast", phTrialQuery: "trial-query", phTrialReply: "trial-reply",
	phTrialConv: "trial-conv", phCenterBcast: "center-bcast", phProbeSend: "probe-send",
	phProbeReply: "probe-reply", phProbeConv: "probe-conv", phFSBcast: "fs-bcast",
	phFSQuery: "fs-query", phFSReply: "fs-reply", phFSConv: "fs-conv",
	phDecideBcast: "decide-bcast", phJoinSend: "join-send", phJoinConv: "join-conv",
	phNewCluster: "new-cluster", phFlushBcast: "flush-bcast", phFlushAccept: "flush-accept",
}

func (k phaseKind) String() string { return phaseNames[k] }

// phase is one schedule entry. Rounds [start, start+dur) belong to it.
type phase struct {
	kind  phaseKind
	level int
	trial int // trial index for trial phases, -1 otherwise
	start int
	dur   int
}

func (p phase) String() string {
	return fmt.Sprintf("L%d %s t%d [%d,%d)", p.level, p.kind, p.trial, p.start, p.start+p.dur)
}

// schedule is the shared immutable phase table, with the parameters it was
// laid out for.
type schedule struct {
	p      Params
	phases []phase
	total  int // total rounds
}

// buildSchedule lays out the global phase table for the given parameters.
func buildSchedule(p Params) *schedule {
	s := &schedule{p: p}
	add := func(kind phaseKind, level, trial, dur int) {
		s.phases = append(s.phases, phase{kind: kind, level: level, trial: trial, start: s.total, dur: dur})
		s.total += dur
	}
	for j := 0; j <= p.K; j++ {
		d := pow3(j) - 1 // worst-case tree depth at this level (Lemma 8)
		tree := d + 1    // rounds for a broadcast or convergecast session
		for t := 0; t < 2*p.H; t++ {
			add(phTrialBcast, j, t, tree)
			add(phTrialQuery, j, t, 1)
			add(phTrialReply, j, t, 1)
			add(phTrialConv, j, t, tree)
		}
		if j < p.K {
			add(phCenterBcast, j, -1, tree)
			add(phProbeSend, j, -1, 1)
			add(phProbeReply, j, -1, 1)
			add(phProbeConv, j, -1, tree)
		}
		add(phFSBcast, j, -1, tree)
		add(phFSQuery, j, -1, 1)
		add(phFSReply, j, -1, 1)
		add(phFSConv, j, -1, tree)
		if j < p.K {
			add(phDecideBcast, j, -1, tree)
			add(phJoinSend, j, -1, 1)
			add(phJoinConv, j, -1, tree)
			add(phNewCluster, j, -1, pow3(j+1)) // depth 3^{j+1}-1, plus one
		} else {
			add(phFlushBcast, j, -1, tree)
			add(phFlushAccept, j, -1, 1)
		}
	}
	return s
}

// at returns the phase containing the given round; idxHint is the caller's
// last known index (phases only move forward).
func (s *schedule) at(round, idxHint int) (int, phase) {
	i := idxHint
	for i < len(s.phases) && round >= s.phases[i].start+s.phases[i].dur {
		i++
	}
	if i >= len(s.phases) {
		panic(fmt.Sprintf("core: round %d beyond schedule end %d", round, s.total))
	}
	if round < s.phases[i].start {
		panic(fmt.Sprintf("core: round %d precedes phase %v (hint %d)", round, s.phases[i], idxHint))
	}
	return i, s.phases[i]
}
