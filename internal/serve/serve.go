// Package serve is the long-running simulation service behind cmd/serve: an
// HTTP/JSON facade over the scheme registry with engine pooling,
// backpressure, and Prometheus-style metrics.
//
// Requests route through a pool of engines sharded by graph fingerprint, so
// every client working the same topology lands on the same engine and
// shares its singleflight stage-1 spanner cache — the service-level
// realization of the paper's amortization argument: the spanner is built
// once and every subsequent simulation on that graph pays only the
// collection phases. Each shard carries a bounded queue; a full queue
// answers 429 with a Retry-After hint instead of letting work pile up, and
// every run is bounded by a wall-clock deadline (WithDeadline) and an
// optional round budget (WithMaxRounds).
//
// Endpoints:
//
//	POST /v1/simulate  run one simulation, reply with the bill
//	POST /v1/stream    same, streaming live round progress as SSE
//	GET  /v1/schemes   list the registered schemes
//	GET  /v1/metrics   Prometheus text exposition (server + per-scheme)
//	GET  /v1/healthz   liveness/drain probe
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config tunes a Server. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Shards is the number of pooled engines (default 4). Graphs route to
	// shards by fingerprint, so one topology always hits one engine.
	Shards int
	// QueueDepth bounds each shard's work queue (default 8); a submit
	// beyond it is rejected with 429.
	QueueDepth int
	// Workers is the number of concurrent runs per shard (default 1).
	Workers int
	// CacheSize is each shard engine's spanner cache capacity (default
	// repro.DefaultCacheSize).
	CacheSize int
	// Concurrency is each engine's simulator concurrency (default -1:
	// GOMAXPROCS workers).
	Concurrency int
	// MaxNodes caps requested graph sizes (default 4096) and MaxT caps
	// algorithm round budgets (default 64).
	MaxNodes int
	MaxT     int
	// GraphCacheSize bounds the generated-graph LRU (default 64).
	GraphCacheSize int
	// DefaultDeadline bounds runs whose request names no deadline (default
	// 30s); MaxDeadline clamps client-requested deadlines (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// MetricsTail sizes each per-scheme MetricsSink ring (default
	// repro.DefaultMetricsTail).
	MetricsTail int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CacheSize <= 0 {
		c.CacheSize = repro.DefaultCacheSize
	}
	if c.Concurrency == 0 {
		c.Concurrency = -1
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4096
	}
	if c.MaxT <= 0 {
		c.MaxT = 64
	}
	if c.GraphCacheSize <= 0 {
		c.GraphCacheSize = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the simulation service. Construct with New, mount Handler on an
// http.Server, and Close to drain.
type Server struct {
	cfg    Config
	pool   *pool
	graphs *graphCache
	mux    *http.ServeMux

	sinksMu sync.Mutex
	sinks   map[string]*repro.MetricsSink // per-scheme, feeds /v1/metrics

	draining  atomic.Bool
	closeOnce sync.Once

	// Server-level counters for the exposition.
	countMu      sync.Mutex
	httpRequests map[[2]string]int64 // {endpoint, code}
	outcomes     map[[2]string]int64 // {scheme, outcome}
	rejections   atomic.Int64
	spannerHits  atomic.Int64
	graphHits    atomic.Int64
	graphMisses  atomic.Int64
	streamDrops  atomic.Int64
	inflight     atomic.Int64
}

// New builds a Server: cfg.Shards engines (each configured with the shared
// cache/concurrency settings) plus their workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		graphs:       newGraphCache(cfg.GraphCacheSize),
		sinks:        make(map[string]*repro.MetricsSink),
		httpRequests: make(map[[2]string]int64),
		outcomes:     make(map[[2]string]int64),
	}
	s.pool = newPool(cfg.Shards, cfg.QueueDepth, cfg.Workers, func() *repro.Engine {
		return repro.NewEngine(
			repro.WithCacheSize(cfg.CacheSize),
			repro.WithConcurrency(cfg.Concurrency),
		)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.count("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/stream", s.count("stream", s.handleStream))
	mux.HandleFunc("GET /v1/schemes", s.count("schemes", s.handleSchemes))
	mux.HandleFunc("GET /v1/metrics", s.count("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/healthz", s.count("healthz", s.handleHealthz))
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the service: new submissions are refused with 503 while jobs
// already queued run to completion. It returns once every worker has
// stopped. Call http.Server.Shutdown first so in-flight handlers (each
// waiting on a queued job) finish before their jobs' results have nowhere
// to go.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.pool.close()
	})
}

// sink returns (creating once) the MetricsSink aggregating the named
// scheme's runs.
func (s *Server) sink(scheme string) *repro.MetricsSink {
	s.sinksMu.Lock()
	defer s.sinksMu.Unlock()
	sk, ok := s.sinks[scheme]
	if !ok {
		sk = repro.NewMetricsSink(s.cfg.MetricsTail)
		s.sinks[scheme] = sk
	}
	return sk
}

// recordOutcome bumps the {scheme, outcome} counter.
func (s *Server) recordOutcome(scheme, outcome string) {
	s.countMu.Lock()
	s.outcomes[[2]string{scheme, outcome}]++
	s.countMu.Unlock()
}

// statusWriter records the response code for the request counter while
// passing Flush through for SSE.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// count wraps a handler with the per-endpoint request counter.
func (s *Server) count(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.countMu.Lock()
		s.httpRequests[[2]string{endpoint, strconv.Itoa(sw.code)}]++
		s.countMu.Unlock()
	}
}

// httpError is a JSON error reply with its status code decided.
type httpError struct {
	status  int
	message string
}

func (e *httpError) Error() string { return e.message }

// classify maps a simulation failure to (HTTP status, outcome label).
func classify(err error) (*httpError, string) {
	switch {
	case errors.Is(err, repro.ErrDeadline):
		return &httpError{http.StatusGatewayTimeout, err.Error()}, "deadline"
	case errors.Is(err, repro.ErrRoundBudget):
		return &httpError{http.StatusUnprocessableEntity, err.Error()}, "round_budget"
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in the nginx tradition.
		return &httpError{499, err.Error()}, "canceled"
	case errors.As(err, new(errBadRequest)):
		return &httpError{http.StatusBadRequest, err.Error()}, "bad_request"
	default:
		return &httpError{http.StatusInternalServerError, err.Error()}, "error"
	}
}

// writeJSON replies with v at the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError replies with a JSON error body.
func writeError(w http.ResponseWriter, he *httpError) {
	writeJSON(w, he.status, map[string]string{"error": he.message})
}

// maxRequestBody bounds inline edge lists (and everything else) a client
// can post.
const maxRequestBody = 8 << 20

// decodeRequest parses and sanity-checks a simulate/stream body.
func decodeRequest(r *http.Request) (*SimulateRequest, *httpError) {
	var req SimulateRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &httpError{http.StatusBadRequest, "body: " + err.Error()}
	}
	if req.Scheme == "" {
		req.Scheme = "scheme1"
	}
	return &req, nil
}

// prepared is a request resolved against the registry and pool: everything
// needed to enqueue the run.
type prepared struct {
	scheme      *repro.Scheme
	graph       *repro.Graph
	fingerprint uint64
	spec        repro.AlgorithmSpec
	extras      []repro.Option
	shard       *shard
}

// prepare resolves the request — scheme lookup, graph build (through the
// LRU), algorithm spec, option overrides — and pre-validates the resulting
// option set against the scheme so malformed requests fail with 400 before
// consuming a queue slot.
func (s *Server) prepare(req *SimulateRequest) (*prepared, *httpError) {
	sch, err := repro.Lookup(req.Scheme)
	if err != nil {
		return nil, &httpError{http.StatusNotFound, err.Error()}
	}
	key := specKey(req.Graph, s.cfg.MaxNodes)
	g, ok := s.graphs.get(key)
	if ok {
		s.graphHits.Add(1)
	} else {
		s.graphMisses.Add(1)
		g, err = buildGraph(req.Graph, s.cfg.MaxNodes)
		if err != nil {
			he, _ := classify(err)
			return nil, he
		}
		s.graphs.put(key, g)
	}
	spec, err := buildSpec(req.Algorithm, g.NumNodes(), s.cfg.MaxT)
	if err != nil {
		he, _ := classify(err)
		return nil, he
	}
	fp := g.Fingerprint()
	sh := s.pool.shardFor(fp)
	extras, err := req.Options.extras(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		he, _ := classify(err)
		return nil, he
	}
	opts := sh.eng.Options()
	for _, fn := range extras {
		fn(&opts)
	}
	if err := sch.Validate(&opts); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return &prepared{
		scheme:      sch,
		graph:       g,
		fingerprint: fp,
		spec:        spec,
		extras:      extras,
		shard:       sh,
	}, nil
}

// run enqueues the prepared request on its shard and waits for the result.
// The extra observer (SSE) is layered after the scheme's MetricsSink.
func (s *Server) run(ctx context.Context, p *prepared, scheme string, obs repro.Observer) (*repro.SimulationResult, *httpError) {
	if s.draining.Load() {
		return nil, &httpError{http.StatusServiceUnavailable, "server draining"}
	}
	extras := append([]repro.Option(nil), p.extras...)
	extras = append(extras, repro.WithObserver(s.sink(scheme)))
	if obs != nil {
		extras = append(extras, repro.WithObserver(obs))
	}
	var (
		res    *repro.SimulationResult
		runErr error
	)
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.fn = func(ctx context.Context) {
		res, runErr = p.shard.eng.RunScheme(ctx, p.scheme, p.graph, p.spec, extras...)
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if err := p.shard.submit(j); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejections.Add(1)
			s.recordOutcome(scheme, "rejected")
			return nil, &httpError{http.StatusTooManyRequests, err.Error()}
		}
		return nil, &httpError{http.StatusServiceUnavailable, err.Error()}
	}
	<-j.done
	if j.panicked != nil {
		s.recordOutcome(scheme, "panic")
		return nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("simulation panic: %v", j.panicked)}
	}
	if runErr != nil {
		he, outcome := classify(runErr)
		s.recordOutcome(scheme, outcome)
		return nil, he
	}
	s.recordOutcome(scheme, "ok")
	if spannerCached(res) {
		s.spannerHits.Add(1)
	}
	return res, nil
}

// spannerCached reports whether the run's bill shows a stage-1 cache hit.
func spannerCached(res *repro.SimulationResult) bool {
	for _, ph := range res.Phases {
		if ph.Name == "sampler(cached)" {
			return true
		}
	}
	return false
}

// response renders a result.
func (s *Server) response(req *SimulateRequest, p *prepared, res *repro.SimulationResult, elapsed time.Duration) *SimulateResponse {
	out := &SimulateResponse{
		Scheme:           res.Scheme,
		GraphNodes:       p.graph.NumNodes(),
		GraphEdges:       p.graph.NumEdges(),
		GraphFingerprint: fmt.Sprintf("%016x", p.fingerprint),
		Rounds:           res.Rounds,
		Messages:         res.Messages,
		SpannerEdges:     res.SpannerEdges,
		StretchUsed:      res.StretchUsed,
		SpannerCached:    spannerCached(res),
		OutputsFNV:       outputsFNV(res.Outputs),
		ElapsedMS:        elapsed.Milliseconds(),
		ShardID:          p.shard.id,
	}
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, PhaseJSON{
			Name: ph.Name, Rounds: ph.Rounds, Messages: ph.Messages, Dilation: ph.Dilation,
			Dropped: ph.Dropped, Duplicated: ph.Duplicated,
		})
	}
	if req.IncludeOutputs {
		out.Outputs = res.Outputs
	}
	return out
}

// outputsFNV fingerprints the node outputs for cheap cross-run fidelity
// checks.
func outputsFNV(outputs []any) string {
	h := fnv.New64a()
	for i, v := range outputs {
		fmt.Fprintf(h, "%d=%v;", i, v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// handleSimulate is POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, &httpError{http.StatusServiceUnavailable, "server draining"})
		return
	}
	req, he := decodeRequest(r)
	if he != nil {
		writeError(w, he)
		return
	}
	p, he := s.prepare(req)
	if he != nil {
		writeError(w, he)
		return
	}
	start := time.Now()
	res, he := s.run(r.Context(), p, req.Scheme, nil)
	if he != nil {
		if he.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		}
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, s.response(req, p, res, time.Since(start)))
}

// streamEvent is one SSE frame's payload.
type streamEvent struct {
	kind string
	data any
}

// roundEvent / phaseEvent are the SSE data payloads.
type roundEvent struct {
	Phase    string `json:"phase"`
	Round    int    `json:"round"`
	Messages int64  `json:"messages"`
}

type phaseEvent struct {
	Phase    string  `json:"phase"`
	Rounds   int     `json:"rounds"`
	Messages int64   `json:"messages"`
	Dilation float64 `json:"dilation,omitempty"`
}

// handleStream is POST /v1/stream: the simulate pipeline with live Observer
// progress relayed as server-sent events. Round events are forwarded
// best-effort — a slow consumer drops rounds (counted in the exposition)
// rather than stalling the simulation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, &httpError{http.StatusServiceUnavailable, "server draining"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{http.StatusInternalServerError, "streaming unsupported by this connection"})
		return
	}
	req, he := decodeRequest(r)
	if he != nil {
		writeError(w, he)
		return
	}
	p, he := s.prepare(req)
	if he != nil {
		writeError(w, he)
		return
	}

	events := make(chan streamEvent, 256)
	obs := repro.ObserverFuncs{
		OnRound: func(phase string, round int, messages int64) {
			select {
			case events <- streamEvent{"round", roundEvent{phase, round, messages}}:
			default:
				s.streamDrops.Add(1)
			}
		},
		OnPhase: func(c repro.PhaseCost) {
			select {
			case events <- streamEvent{"phase", phaseEvent{c.Name, c.Rounds, c.Messages, c.Dilation}}:
			default:
				s.streamDrops.Add(1)
			}
		},
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	start := time.Now()
	done := make(chan struct{})
	var (
		res   *repro.SimulationResult
		runHE *httpError
	)
	go func() {
		defer close(done)
		res, runHE = s.run(r.Context(), p, req.Scheme, obs)
	}()

	writeSSE := func(ev streamEvent) {
		blob, err := json.Marshal(ev.data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, blob)
		flusher.Flush()
	}
	for running := true; running; {
		select {
		case ev := <-events:
			writeSSE(ev)
		case <-done:
			running = false
		}
	}
	// The run finished; no observer will send again. Drain what's buffered
	// so the client sees the tail before the terminal event.
	for {
		select {
		case ev := <-events:
			writeSSE(ev)
			continue
		default:
		}
		break
	}
	if runHE != nil {
		writeSSE(streamEvent{"error", map[string]any{"status": runHE.status, "error": runHE.message}})
		return
	}
	writeSSE(streamEvent{"result", s.response(req, p, res, time.Since(start))})
}

// handleSchemes is GET /v1/schemes.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"schemes": listSchemes()})
}

// handleMetrics is GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.writeExposition(w)
}

// handleHealthz is GET /v1/healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
