package repro

import (
	"strconv"
	"sync"

	"repro/internal/stats"
)

// DefaultMetricsTail is the per-phase ring-buffer capacity of a MetricsSink
// constructed with a non-positive tail size: enough recent rounds to see
// what a long schedule was doing when something went wrong, small enough
// that a sink watching a 100·n-round gossip schedule stays bounded.
const DefaultMetricsTail = 64

// HistBucket is one non-empty cell of a log-bucketed histogram: Count
// rounds whose message count fell in the half-open range [Lo, Hi).
type HistBucket = stats.HistBucket

// RoundSample is one retained round observation in a MetricsSink's tail.
type RoundSample struct {
	Round    int   `json:"round"`
	Messages int64 `json:"messages"`
}

// PhaseMetrics is the bounded per-phase aggregate a MetricsSink maintains.
type PhaseMetrics struct {
	// Name is the phase label ("sampler", "collect", "gossip", ...).
	Name string `json:"name"`
	// Rounds and Messages aggregate every RoundCompleted event observed
	// for the phase (across all runs sharing the sink).
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	// MaxRoundMessages is the largest single-round message count observed.
	MaxRoundMessages int64 `json:"max_round_messages"`
	// Completions counts PhaseCompleted events; BilledRounds and
	// BilledMessages sum their PhaseCost — the amounts the runs actually
	// charged, which for gossip-backed phases can be less than the
	// executed totals above.
	Completions    int   `json:"completions"`
	BilledRounds   int   `json:"billed_rounds"`
	BilledMessages int64 `json:"billed_messages"`
	// Histogram buckets the per-round message counts by powers of two.
	Histogram []HistBucket `json:"histogram,omitempty"`
	// Tail holds the most recent rounds, oldest first, capped at the
	// sink's ring capacity.
	Tail []RoundSample `json:"tail,omitempty"`
}

// MetricsSnapshot is a point-in-time copy of a MetricsSink's state. It
// shares no memory with the sink, so it stays valid while runs continue.
type MetricsSnapshot struct {
	// Phases lists the per-phase aggregates in first-observation order.
	Phases []PhaseMetrics `json:"phases"`
	// TotalRounds and TotalMessages sum the executed per-round stream
	// across all phases.
	TotalRounds   int   `json:"total_rounds"`
	TotalMessages int64 `json:"total_messages"`
}

// MetricsSink is an Observer that reduces the RoundCompleted stream to
// bounded per-phase statistics: totals, a log-bucketed histogram of
// per-round message counts, and a fixed-capacity ring of the most recent
// rounds. Its memory is O(phases · tail) regardless of how many rounds a
// run executes, and runs keep no per-round record of their own, so a
// long-schedule run keeps full aggregate observability at O(1) memory in
// executed rounds.
//
// A MetricsSink is safe for concurrent use: the Observer contract delivers
// events from each run's coordinating goroutine, so a sink shared by
// concurrent Runs sees concurrent callbacks, and Snapshot may be called at
// any time from any goroutine while runs are in flight.
type MetricsSink struct {
	mu     sync.Mutex
	tail   int
	phases map[string]*phaseAgg
	order  []string
}

// phaseAgg is one phase's live aggregate.
type phaseAgg struct {
	rounds         int
	messages       int64
	completions    int
	billedRounds   int
	billedMessages int64
	hist           stats.LogHistogram
	ring           *stats.Ring[RoundSample]
}

// NewMetricsSink returns an empty sink whose per-phase ring buffers retain
// the given number of most recent rounds (non-positive means
// DefaultMetricsTail). Register it with WithObserver.
func NewMetricsSink(tail int) *MetricsSink {
	if tail <= 0 {
		tail = DefaultMetricsTail
	}
	return &MetricsSink{tail: tail, phases: make(map[string]*phaseAgg)}
}

// phase returns (creating on first sight) the named phase's aggregate. The
// caller must hold s.mu.
func (s *MetricsSink) phase(name string) *phaseAgg {
	p, ok := s.phases[name]
	if !ok {
		p = &phaseAgg{ring: stats.NewRing[RoundSample](s.tail)}
		s.phases[name] = p
		s.order = append(s.order, name)
	}
	return p
}

// RoundCompleted implements Observer.
func (s *MetricsSink) RoundCompleted(phase string, round int, messages int64) {
	s.mu.Lock()
	p := s.phase(phase)
	p.rounds++
	p.messages += messages
	p.hist.Observe(messages)
	p.ring.Push(RoundSample{Round: round, Messages: messages})
	s.mu.Unlock()
}

// PhaseCompleted implements Observer.
func (s *MetricsSink) PhaseCompleted(cost PhaseCost) {
	s.mu.Lock()
	p := s.phase(cost.Name)
	p.completions++
	p.billedRounds += cost.Rounds
	p.billedMessages += cost.Messages
	s.mu.Unlock()
}

// Snapshot returns a self-contained copy of the sink's current state.
func (s *MetricsSink) Snapshot() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := MetricsSnapshot{Phases: make([]PhaseMetrics, 0, len(s.order))}
	for _, name := range s.order {
		p := s.phases[name]
		snap.Phases = append(snap.Phases, PhaseMetrics{
			Name:             name,
			Rounds:           p.rounds,
			Messages:         p.messages,
			MaxRoundMessages: p.hist.Max(),
			Completions:      p.completions,
			BilledRounds:     p.billedRounds,
			BilledMessages:   p.billedMessages,
			Histogram:        p.hist.Buckets(),
			Tail:             p.ring.Tail(),
		})
		snap.TotalRounds += p.rounds
		snap.TotalMessages += p.messages
	}
	return snap
}

// Reset clears every aggregate, keeping the configured tail capacity.
func (s *MetricsSink) Reset() {
	s.mu.Lock()
	s.phases = make(map[string]*phaseAgg)
	s.order = nil
	s.mu.Unlock()
}

// MetricLabel is one label pair of an exposition sample.
type MetricLabel struct {
	Name, Value string
}

// MetricSample is one sample of a metric family: an optional name suffix
// (histogram series use "_bucket", "_sum", "_count"), its label pairs, and
// the value.
type MetricSample struct {
	Suffix string
	Labels []MetricLabel
	Value  float64
}

// MetricFamily is one Prometheus-style metric family derived from a
// snapshot: a bare name (no namespace prefix), its type and help text, and
// its samples. Encoders prepend their namespace and render the text
// exposition; see internal/serve for the HTTP endpoint that does.
type MetricFamily struct {
	Name    string // e.g. "phase_rounds_total"
	Type    string // "counter", "gauge", or "histogram"
	Help    string
	Samples []MetricSample
}

// MetricFamilies maps the snapshot onto Prometheus-style metric families,
// attaching base labels (e.g. {scheme="scheme1"}) to every sample alongside
// the per-phase "phase" label. The phase label values are the phase names
// listed on Observer. The log-bucketed per-round message histogram becomes a
// cumulative Prometheus histogram: each [lo, hi) power-of-two bucket turns
// into the inclusive upper bound le = hi−1 (message counts are integers),
// with _sum the executed messages and _count the executed rounds.
func (s MetricsSnapshot) MetricFamilies(base ...MetricLabel) []MetricFamily {
	labels := func(phase string) []MetricLabel {
		out := make([]MetricLabel, 0, len(base)+1)
		out = append(out, base...)
		return append(out, MetricLabel{Name: "phase", Value: phase})
	}
	fams := []MetricFamily{
		{Name: "phase_rounds_total", Type: "counter", Help: "LOCAL rounds executed, by pipeline phase."},
		{Name: "phase_messages_total", Type: "counter", Help: "Messages sent, by pipeline phase."},
		{Name: "phase_completions_total", Type: "counter", Help: "Pipeline stage completions, by phase."},
		{Name: "phase_billed_rounds_total", Type: "counter", Help: "Rounds billed by completed stages (gossip-backed phases may bill less than they execute)."},
		{Name: "phase_billed_messages_total", Type: "counter", Help: "Messages billed by completed stages."},
		{Name: "phase_round_messages_max", Type: "gauge", Help: "Largest single-round message count observed, by phase."},
		{Name: "phase_round_messages", Type: "histogram", Help: "Per-round message counts, log-bucketed by powers of two."},
	}
	for _, p := range s.Phases {
		l := labels(p.Name)
		fams[0].Samples = append(fams[0].Samples, MetricSample{Labels: l, Value: float64(p.Rounds)})
		fams[1].Samples = append(fams[1].Samples, MetricSample{Labels: l, Value: float64(p.Messages)})
		fams[2].Samples = append(fams[2].Samples, MetricSample{Labels: l, Value: float64(p.Completions)})
		fams[3].Samples = append(fams[3].Samples, MetricSample{Labels: l, Value: float64(p.BilledRounds)})
		fams[4].Samples = append(fams[4].Samples, MetricSample{Labels: l, Value: float64(p.BilledMessages)})
		fams[5].Samples = append(fams[5].Samples, MetricSample{Labels: l, Value: float64(p.MaxRoundMessages)})
		var cum uint64
		for _, b := range p.Histogram {
			cum += b.Count
			le := append(append([]MetricLabel(nil), l...), MetricLabel{Name: "le", Value: formatLE(b.Hi - 1)})
			fams[6].Samples = append(fams[6].Samples, MetricSample{Suffix: "_bucket", Labels: le, Value: float64(cum)})
		}
		inf := append(append([]MetricLabel(nil), l...), MetricLabel{Name: "le", Value: "+Inf"})
		fams[6].Samples = append(fams[6].Samples,
			MetricSample{Suffix: "_bucket", Labels: inf, Value: float64(p.Rounds)},
			MetricSample{Suffix: "_sum", Labels: l, Value: float64(p.Messages)},
			MetricSample{Suffix: "_count", Labels: l, Value: float64(p.Rounds)})
	}
	return fams
}

// formatLE renders a histogram bucket's inclusive upper bound.
func formatLE(v int64) string {
	return strconv.FormatInt(v, 10)
}
