package broadcast

// CONGEST-style bandwidth-budgeted t-local broadcast. FloodBudget performs
// the same hop-limited flood as Flood, but every directed edge may carry at
// most bw words per round (one CONGEST packet); a rumor whose payload exceeds
// the budget is split across consecutive rounds. The flood therefore takes
// more rounds than the unbudgeted one — the round dilation the LOCAL-vs-
// CONGEST comparison measures — while delivering exactly the same knowledge:
// every node still learns the rumor of every node within hop distance
// `rounds` on the host graph.
//
// The schedule is simulated centrally (not through the per-node LOCAL
// engine): per-edge FIFO queues with word-granular transmission are a
// transport-layer concern, and simulating them centrally keeps the
// accounting exact and the run deterministic. Costs are reported in the same
// units as the LOCAL engine: one message per directed edge per round that
// carried at least one word, payload units equal to the words sent.

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/local"
)

// qitem is one rumor queued for transmission on a directed edge: the origin
// whose payload it carries and the hop count it will have on arrival.
type qitem struct {
	origin graph.NodeID
	hops   int
}

// edgeQueue is the transmission state of one directed edge: a FIFO of queued
// rumors and the number of words of the head rumor already sent.
type edgeQueue struct {
	items    []qitem
	headSent int64
}

// FloodBudget floods each node's rumor over host with per-edge bandwidth bw
// (in words per direction per round, bw >= 1). Rumors travel at most `rounds`
// hops, so the final Known sets equal Flood's at the same arguments, and
// each rumor costs Flood's 1 + len(M_o) words. cfg is honored for OnRound
// and NoLedger only — the schedule is deterministic and needs no seed.
// Cancelling ctx aborts between rounds.
//
// Because queueing can deliver a rumor first over a longer path, a node
// re-forwards a rumor whenever a copy arrives with a strictly smaller hop
// count; this keeps the hop-limited coverage exactly equal to the
// synchronous flood's, at the price of occasional duplicate transmissions.
func FloodBudget(ctx context.Context, host *graph.Graph, payloads [][]graph.EdgeID, rounds, bw int, cfg local.Config) (*Result, error) {
	if err := validate(host, payloads, rounds); err != nil {
		return nil, err
	}
	if bw < 1 {
		return nil, fmt.Errorf("broadcast: bandwidth %d < 1 word per edge per round", bw)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := host.NumNodes()

	// Directed edges, one queue each, in deterministic (node, port) order.
	nEdges := 0
	queueOf := make([]map[graph.EdgeID]int, n) // node -> edge ID -> queue index
	for v := 0; v < n; v++ {
		queueOf[v] = make(map[graph.EdgeID]int)
		for _, h := range host.Incident(graph.NodeID(v)) {
			queueOf[v][h.Edge] = nEdges
			nEdges++
		}
	}
	queues := make([]edgeQueue, nEdges)

	hops := make([]map[graph.NodeID]int, n) // best hop count per heard origin
	res := &Result{Known: make([]map[graph.NodeID][]graph.EdgeID, n)}
	enqueue := func(v int, it qitem) {
		//freelunch:orderok queueOf[v] values are distinct queue indices, so the appends target disjoint queues
		for _, qi := range queueOf[v] {
			queues[qi].items = append(queues[qi].items, it)
		}
	}
	for v := 0; v < n; v++ {
		hops[v] = map[graph.NodeID]int{graph.NodeID(v): 0}
		res.Known[v] = map[graph.NodeID][]graph.EdgeID{graph.NodeID(v): payloads[v]}
		if rounds > 0 {
			enqueue(v, qitem{origin: graph.NodeID(v), hops: 1})
		}
	}

	type arrival struct {
		at graph.NodeID
		it qitem
	}
	var arrivals []arrival
	pending := func() bool {
		for i := range queues {
			if len(queues[i].items) > 0 {
				return true
			}
		}
		return false
	}
	round := 0
	for pending() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arrivals = arrivals[:0]
		var sent, units int64
		for v := 0; v < n; v++ {
			for _, h := range host.Incident(graph.NodeID(v)) {
				q := &queues[queueOf[v][h.Edge]]
				budget := int64(bw)
				var words int64
				for len(q.items) > 0 && budget > 0 {
					head := q.items[0]
					rem := rumorWords(payloads, head.origin) - q.headSent
					s := rem
					if s > budget {
						s = budget
					}
					budget -= s
					words += s
					q.headSent += s
					if q.headSent == rumorWords(payloads, head.origin) {
						arrivals = append(arrivals, arrival{at: h.Peer, it: head})
						q.items = q.items[1:]
						q.headSent = 0
					}
				}
				if words > 0 {
					sent++ // one CONGEST packet on this edge this round
					units += words
				}
			}
		}
		for _, a := range arrivals {
			v := int(a.at)
			best, heard := hops[v][a.it.origin]
			if heard && a.it.hops >= best {
				continue
			}
			hops[v][a.it.origin] = a.it.hops
			if !heard {
				res.Known[v][a.it.origin] = payloads[a.it.origin]
			}
			if a.it.hops < rounds {
				enqueue(v, qitem{origin: a.it.origin, hops: a.it.hops + 1})
			}
		}
		if !cfg.NoLedger {
			res.Run.PerRound = append(res.Run.PerRound, sent)
		}
		res.Run.Messages += sent
		res.Run.PayloadUnits += units
		res.Run.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(round, sent)
		}
		round++
	}
	// Bill the rest of the schedule. The LOCAL flood bills its full fixed
	// schedule (rounds+1 simulator rounds) even when traffic quiesces early —
	// nodes cannot detect global quiescence — and it bills the final round in
	// which the last messages are consumed. The budgeted schedule does the
	// same: at least the fixed schedule, more only when queues persisted
	// beyond it. Dilation relative to the LOCAL schedule is therefore always
	// >= 1, and with unbounded bandwidth the two schedules coincide exactly.
	target := rounds + 1
	if res.Run.Rounds+1 > target {
		target = res.Run.Rounds + 1
	}
	// Filler rounds share the main loop's invariant: the ledger slot
	// PerRound[r] and the OnRound round argument advance in lockstep, so a
	// billed round number always indexes its own ledger entry (and the
	// MessagesUpTo prefix sums stay aligned).
	for res.Run.Rounds < target {
		if !cfg.NoLedger {
			res.Run.PerRound = append(res.Run.PerRound, 0)
		}
		res.Run.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(round, 0)
		}
		round++
	}
	res.Run.Halted = true
	return res, nil
}
