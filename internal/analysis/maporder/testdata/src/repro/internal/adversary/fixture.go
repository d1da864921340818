// Package adversary is a maporder fixture mirroring the gated import path
// repro/internal/adversary: perturbation decisions are pure hashes pinned
// by golden files, so schedule assembly must not leak map-iteration order.
package adversary

import "sort"

type crash struct{ node, round int }

// scheduleFromMap is the flagged form: emitting a crash schedule by
// ranging over a map would order Compile's sorted slice input — and hence
// the applied crash sequence — differently across processes.
func scheduleFromMap(rounds map[int]int) []crash {
	var out []crash
	for node, round := range rounds { // want `range over map in deterministic package`
		out = append(out, crash{node: node, round: round})
	}
	return out
}

// scheduleSorted collects then sorts: the order is erased before anyone
// can observe it, so there is nothing to flag.
func scheduleSorted(rounds map[int]int) []crash {
	nodes := make([]int, 0, len(rounds))
	for node := range rounds {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	out := make([]crash, 0, len(nodes))
	for _, node := range nodes {
		out = append(out, crash{node: node, round: rounds[node]})
	}
	return out
}

// probesFor collects then sorts inside a switch case body, which is a
// clause's statement list rather than a block: still nothing to flag.
func probesFor(phase int, queried map[int]int) []int {
	switch phase {
	case 1:
		probes := make([]int, 0, len(queried))
		for _, e := range queried {
			probes = append(probes, e)
		}
		sort.Ints(probes)
		return probes
	case 2:
		var probes []int
		for _, e := range queried { // want `range over map in deterministic package`
			probes = append(probes, e)
		}
		return probes
	}
	return nil
}

// drainSorted does the same inside a select clause body.
func drainSorted(done chan struct{}, queried map[int]int) []int {
	select {
	case <-done:
		var probes []int
		for node := range queried {
			probes = append(probes, node)
		}
		sort.Ints(probes)
		return probes
	default:
		return nil
	}
}

// maxCrashRound carries a justified waiver: suppressed.
func maxCrashRound(rounds map[int]int) int {
	last := -1
	//freelunch:orderok max-reduction, result independent of visit order
	for _, round := range rounds {
		if round > last {
			last = round
		}
	}
	return last
}
