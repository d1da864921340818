package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
)

// span is one timed interval of a traced run. Spans nest by Parent (0 for a
// root): an op holds its phases and its replay, a phase holds its rounds.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Layer names the package the interval is spent in.
	Layer string `json:"layer"`
	// Start and End are seconds since the tracer was created.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Messages is what the interval sent; Rounds counts the round events a
	// phase saw; Alloc is the bytes allocated over a phase, replay or
	// decomposition span.
	Messages int64  `json:"messages,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Alloc    uint64 `json:"alloc,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// phases maps each facade phase the workloads reach to the package doing its
// work and the per-layer metric family it feeds ("" for none).
var phases = map[string]struct{ layer, metric string }{
	"sampler":           {"core", "core.sampler"},
	"sampler(cached)":   {"repro", ""},
	"collect":           {"broadcast", "broadcast.collect"},
	"gossip(earlystop)": {"broadcast", "broadcast.gossip"},
	"converge(halt)":    {"globalcompute", "globalcompute.converge"},
	"direct":            {"local", ""},
}

// tracer is a facade Observer that turns one op's round and phase events into
// spans. A phase span runs from the previous phase boundary (or the op's
// start) to its PhaseCompleted event; a round span runs between two
// consecutive RoundCompleted events of one phase, so a phase's first round,
// which cannot be told apart from the engine's set-up from outside, counts
// toward the phase's self time. The interval from the last phase boundary to
// the return of Run is the replay span. Allocation is read at phase
// boundaries only.
//
// The facade calls an observer on the run's coordinating goroutine and ops
// run one at a time, so the tracer needs no locking.
type tracer struct {
	epoch   time.Time
	replays bool
	spans   []span
	next    int

	op, phase  int     // IDs of the open op and phase spans
	opStart    float64 // start of the open op
	mark       float64 // last phase boundary
	markAlloc  uint64
	roundPhase string // phase of the last round event
	roundAt    float64
	rounds     int
}

// newTracer returns a tracer; replays says whether the traced scheme replays
// a collection after its last phase.
func newTracer(replays bool) *tracer {
	return &tracer{epoch: time.Now(), replays: replays}
}

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) id() int {
	t.next++
	return t.next
}

func (t *tracer) beginOp() {
	t.op, t.phase = t.id(), t.id()
	t.opStart = t.now()
	t.mark, t.markAlloc = t.opStart, readRuntime().alloc
	t.roundPhase, t.rounds = "", 0
}

// RoundCompleted implements repro.Observer.
func (t *tracer) RoundCompleted(phase string, _ int, messages int64) {
	now := t.now()
	if phase == t.roundPhase {
		t.spans = append(t.spans, span{ID: t.id(), Parent: t.phase, Name: "round", Layer: "local",
			Start: t.roundAt, End: now, Messages: messages})
	}
	t.roundPhase, t.roundAt = phase, now
	t.rounds++
}

// PhaseCompleted implements repro.Observer.
func (t *tracer) PhaseCompleted(c repro.PhaseCost) {
	now, alloc := t.now(), readRuntime().alloc
	t.spans = append(t.spans, span{ID: t.phase, Parent: t.op, Name: "phase:" + c.Name, Layer: phases[c.Name].layer,
		Start: t.mark, End: now, Messages: c.Messages, Rounds: t.rounds, Alloc: alloc - t.markAlloc})
	t.phase = t.id()
	t.mark, t.markAlloc = now, alloc
	t.roundPhase, t.rounds = "", 0
}

func (t *tracer) endOp() {
	now := t.now()
	if t.replays {
		t.spans = append(t.spans, span{ID: t.phase, Parent: t.op, Name: "replay", Layer: "simulate",
			Start: t.mark, End: now, Alloc: readRuntime().alloc - t.markAlloc})
	}
	t.spans = append(t.spans, span{ID: t.op, Name: "op", Layer: "repro", Start: t.opStart, End: now})
}

// timed runs fn as one decomposition span named after the public function
// it calls.
func (t *tracer) timed(name, layer string, fn func() error) error {
	start, alloc := t.now(), readRuntime().alloc
	err := fn()
	t.spans = append(t.spans, span{ID: t.id(), Name: "decomp:" + name, Layer: layer,
		Start: start, End: t.now(), Alloc: readRuntime().alloc - alloc})
	return err
}

// selfTimes returns each span's duration minus the part its children cover.
// Children never overlap one another, so the covered part is their sum.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// opLayers derives the facade-side per-layer metrics of every traced op, one
// map per op in op order. Layers an op does not reach are absent.
func opLayers(spans []span) []map[string]float64 {
	self := selfTimes(spans)
	byOp := map[int]map[string]float64{}
	opOf := map[int]int{} // phase or replay span -> its op
	var ops []int
	for _, s := range spans {
		switch {
		case s.Name == "op":
			ops = append(ops, s.ID)
			byOp[s.ID] = map[string]float64{"op_s": s.dur()}
		case s.Name != "round" && s.Parent != 0:
			opOf[s.ID] = s.Parent
		}
	}
	roundMsgs := map[int]float64{}
	for _, s := range spans {
		if s.Name == "round" {
			op := opOf[s.Parent]
			byOp[op]["local.round_s"] += s.dur()
			roundMsgs[op] += float64(s.Messages)
			continue
		}
		m := byOp[s.Parent]
		if s.Name == "replay" {
			m["simulate.replay_s"] += s.dur()
			m["simulate.replay_alloc_mb"] += float64(s.Alloc) / 1e6
			continue
		}
		name, ok := strings.CutPrefix(s.Name, "phase:")
		if !ok || m == nil {
			continue
		}
		m["local.rounds_executed"] += float64(s.Rounds)
		if name == "sampler(cached)" {
			m["facade.cache_hit_ratio"]++
		}
		if prefix := phases[name].metric; prefix != "" {
			m[prefix+"_s"] += s.dur()
			m[prefix+"_self_s"] += self[s.ID]
			m[prefix+"_rounds"] += float64(s.Rounds)
			m[prefix+"_alloc_mb"] += float64(s.Alloc) / 1e6
		}
	}
	out := make([]map[string]float64, len(ops))
	for i, op := range ops {
		m := byOp[op]
		if m["op_s"] > 0 {
			m["simulate.replay_share"] = m["simulate.replay_s"] / m["op_s"]
		}
		if roundMsgs[op] > 0 {
			m["local.ns_per_message"] = m["local.round_s"] * 1e9 / roundMsgs[op]
		}
		out[i] = m
	}
	return out
}

// traceEvent is one Chrome trace-event record ("X" complete events and "M"
// metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans of each record as one process per
// workload: facade ops on thread 1, decomposition calls on thread 2.
func writeChromeTrace(path string, recs []*record) error {
	var evs []traceEvent
	for i, rec := range recs {
		pid := i + 1
		evs = append(evs,
			traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": rec.Workload}},
			traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: 1, Args: map[string]any{"name": "facade ops"}},
			traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: 2, Args: map[string]any{"name": "decomposition"}})
		spans := append([]span(nil), rec.Spans...)
		// Parents before children at equal start times, as nesting by
		// containment expects.
		sort.SliceStable(spans, func(a, b int) bool {
			if spans[a].Start != spans[b].Start {
				return spans[a].Start < spans[b].Start
			}
			return spans[a].dur() > spans[b].dur()
		})
		for _, s := range spans {
			tid := 1
			if strings.HasPrefix(s.Name, "decomp:") {
				tid = 2
			}
			args := map[string]any{"id": s.ID, "parent": s.Parent}
			if s.Messages != 0 {
				args["messages"] = s.Messages
			}
			if s.Alloc != 0 {
				args["alloc_bytes"] = s.Alloc
			}
			evs = append(evs, traceEvent{Name: s.Name, Cat: s.Layer, Ph: "X",
				TS: s.Start * 1e6, Dur: s.dur() * 1e6, PID: pid, TID: tid, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
