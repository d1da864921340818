package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/globalcompute"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/simulate"
)

// decompose re-runs one op of w by calling the layers' public functions
// directly, timing each call as a span on tr, and fills rec.Decomp with the
// metrics only such calls can give: per-node replay cost, ball and
// collection sizes, and the two-worker replay speed-up. It uses the
// parameters the facade resolves from o, and must reproduce the facade's
// phase bills (against warm, whose sampler ran fresh, and first) and outputs
// exactly; a decomposition that disagrees measures a different program, so
// any difference is recorded as a failure of the run.
func decompose(ctx context.Context, rec *record, tr *tracer, w workload, o repro.Options, g *graph.Graph, warm, first *repro.SimulationResult) {
	alg := repro.MaxID(w.t)
	cfg := local.Config{Seed: o.Seed, KT1: o.KT1, MaxRounds: o.MaxRounds, LogNSlack: o.LogNSlack, NoLedger: !o.RoundLedger}
	check := func(res *repro.SimulationResult, phase string, rounds int, messages int64) {
		for _, p := range res.Phases {
			if p.Name == phase {
				if p.Rounds != rounds || p.Messages != messages {
					rec.fail("decomposition: %s billed %d rounds / %d msgs, the facade %d / %d", phase, rounds, messages, p.Rounds, p.Messages)
				}
				return
			}
		}
		rec.fail("decomposition: the facade ran no %s phase", phase)
	}
	outputs := func(name string, outs []any) {
		if !sameOutputs(outs, first.Outputs) {
			rec.fail("decomposition: %s outputs differ from the facade's", name)
		}
	}
	rec.Decomp = map[string]float64{}

	var coll *simulate.Collection
	var err error
	switch w.scheme {
	case "scheme1":
		var st1 *simulate.Stage1
		var cost simulate.PhaseCost
		if err = tr.timed("simulate.BuildStage1", "core", func() (err error) {
			st1, cost, err = simulate.BuildStage1(ctx, g, samplerParams(o), o.Seed, cfg, simulate.Hooks{})
			return err
		}); err != nil {
			break
		}
		check(warm, "sampler", cost.Rounds, cost.Messages)
		if err = tr.timed("simulate.Collect", "broadcast", func() (err error) {
			coll, err = simulate.Collect(ctx, g, st1.Host, st1.Stretch*w.t, o.Seed, cfg)
			return err
		}); err != nil {
			break
		}
		check(first, "collect", coll.Run.Rounds, coll.Run.Messages)
	case "gossip-converge":
		var cover int
		var msgs int64
		budget := o.MaxRounds
		if budget <= 0 {
			budget = 100 * g.NumNodes()
		}
		if err = tr.timed("simulate.GossipCollectEarly", "broadcast", func() (err error) {
			coll, cover, msgs, err = simulate.GossipCollectEarly(ctx, g, w.t, budget, o.Seed, cfg)
			return err
		}); err != nil {
			break
		}
		check(first, "gossip(earlystop)", cover, msgs)
		done := make([]bool, g.NumNodes())
		for v := range done {
			done[v] = true
		}
		var run local.Result
		if err = tr.timed("globalcompute.DetectTermination", "globalcompute", func() (err error) {
			_, run, err = globalcompute.DetectTermination(ctx, g, done, g.Diameter(), cfg)
			return err
		}); err != nil {
			break
		}
		check(first, "converge(halt)", run.Rounds, run.Messages)
	case "direct":
		var outs []any
		var run local.Result
		if err = tr.timed("simulate.Direct", "local", func() (err error) {
			outs, run, err = simulate.Direct(ctx, g, alg, o.Seed, cfg)
			return err
		}); err != nil {
			break
		}
		check(first, "direct", run.Rounds, run.Messages)
		outputs("simulate.Direct", outs)
	}
	if err != nil {
		rec.fail("decomposition: %v", err)
		return
	}
	if coll == nil {
		return
	}

	n := g.NumNodes()
	nodeUS := make([]float64, n)
	balls := make([]float64, n)
	known := make([]float64, n)
	outs := make([]any, n)
	bi := broadcast.NewBallIndex(g, w.t)
	if err := tr.timed("simulate.Collection.Replay", "simulate", func() error {
		for v := 0; v < n; v++ {
			start := time.Now()
			out, err := coll.Replay(alg, graph.NodeID(v))
			nodeUS[v] = float64(time.Since(start).Nanoseconds()) / 1e3
			if err != nil {
				return err
			}
			outs[v] = out
			balls[v] = float64(bi.Size(graph.NodeID(v)))
			known[v] = float64(len(coll.Ports[v]))
		}
		return nil
	}); err != nil {
		rec.fail("decomposition: replay: %v", err)
		return
	}
	outputs("Collection.Replay", outs)
	var wall [2]float64
	for i, workers := range []int{0, 2} {
		start := time.Now()
		err := tr.timed(fmt.Sprintf("simulate.Collection.ReplayAllN(%d)", workers), "sched", func() (err error) {
			outs, err = coll.ReplayAllN(ctx, alg, workers)
			return err
		})
		wall[i] = time.Since(start).Seconds()
		if err != nil {
			rec.fail("decomposition: ReplayAllN at %d workers: %v", workers, err)
			return
		}
		outputs("Collection.ReplayAllN", outs)
	}
	rec.Decomp["simulate.replay_node_us.p50"] = percentile(nodeUS, 50)
	rec.Decomp["simulate.replay_node_us.p90"] = percentile(nodeUS, 90)
	rec.Decomp["simulate.ball_nodes.p50"] = percentile(balls, 50)
	rec.Decomp["broadcast.known_origins.p50"] = percentile(known, 50)
	rec.Decomp["sched.replay_speedup_2w"] = wall[0] / wall[1]
}

// samplerParams mirrors the facade's resolution of the stage-1 Sampler
// parameters: the WithSpannerParams override when set, otherwise the
// paper's γ coupling. The decomposition's bill check catches any drift.
func samplerParams(o repro.Options) core.Params {
	if o.SpannerK > 0 {
		h := o.SpannerH
		if h == 0 {
			h = 4
		}
		p := core.Default(o.SpannerK, h)
		if o.SpannerC != 0 {
			p.C = o.SpannerC
		}
		return p
	}
	p := simulate.Scheme1Params(o.Gamma)
	if o.SpannerC != 0 {
		p.C = o.SpannerC
	}
	return p
}
