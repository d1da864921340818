package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer boots a Server on an httptest listener. The returned
// cleanup drains the pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		hs.Close()
		svc.Close()
	})
	return svc, hs
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// postSimulate sends one simulate request and decodes the reply.
func postSimulate(t *testing.T, base string, body string) (int, *SimulateResponse, map[string]string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.Unmarshal(blob, &e)
		return resp.StatusCode, nil, e
	}
	var out SimulateResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("decode response: %v\n%s", err, blob)
	}
	return resp.StatusCode, &out, nil
}

// scrapeMetric fetches /v1/metrics and returns the first sample value of
// the named (fully qualified) family.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindSubmatch(blob)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, blob)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestServeLoadSharedFingerprints is the service load test: dozens of
// concurrent clients hammering a handful of shared graph specs. Every
// request must succeed, responses for identical requests must agree
// bit-for-bit (outputs fingerprints), and after warmup the shared engines
// must be serving stage-1 spanners from cache.
func TestServeLoadSharedFingerprints(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 2, QueueDepth: 64, Workers: 2, MaxNodes: 512})

	specs := []string{
		`{"scheme":"scheme1","graph":{"family":"gnp","n":72,"deg":6,"seed":1},"algorithm":{"name":"maxid","t":3}}`,
		`{"scheme":"scheme1","graph":{"family":"gnp","n":72,"deg":6,"seed":2},"algorithm":{"name":"maxid","t":3}}`,
		`{"scheme":"scheme2en","graph":{"family":"complete","n":32},"algorithm":{"name":"maxid","t":2}}`,
		`{"scheme":"gossip-converge","graph":{"family":"grid","n":36},"algorithm":{"name":"bfs","t":3}}`,
	}

	// Warm each spec once so the concurrent wave can hit warm caches.
	for _, spec := range specs {
		if code, _, e := postSimulate(t, hs.URL, spec); code != http.StatusOK {
			t.Fatalf("warmup %s: status %d (%v)", spec, code, e)
		}
	}

	const clients = 16
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fnvs = make(map[string]string) // spec -> outputs fingerprint
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				spec := specs[(c+i)%len(specs)]
				code, res, e := postSimulate(t, hs.URL, spec)
				if code != http.StatusOK {
					t.Errorf("client %d: status %d (%v)", c, code, e)
					return
				}
				mu.Lock()
				if prev, ok := fnvs[spec]; ok && prev != res.OutputsFNV {
					t.Errorf("client %d: outputs diverged for %s: %s vs %s", c, spec, prev, res.OutputsFNV)
				}
				fnvs[spec] = res.OutputsFNV
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if hits := scrapeMetric(t, hs.URL, "freelunch_serve_spanner_cache_hits_total"); hits == 0 {
		t.Fatalf("no spanner cache hits after %d warm requests on shared fingerprints", clients*3)
	}
	if ok := scrapeMetric(t, hs.URL, "freelunch_serve_simulate_total"); ok == 0 {
		t.Fatalf("no ok outcomes recorded")
	}
}

// TestServeBackpressure fills the single shard's queue deterministically
// (a worker pinned on a blocking job plus a queued one) and checks that the
// next request bounces with 429 and a Retry-After hint, then that the pool
// recovers once unblocked.
func TestServeBackpressure(t *testing.T) {
	svc, hs := newTestServer(t, Config{Shards: 1, QueueDepth: 1, Workers: 1, RetryAfter: 2 * time.Second})

	// The worker must never outlive the test blocked on release: a Fatal
	// below would otherwise wedge the cleanup's pool drain forever.
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	block := func(context.Context) { <-release }
	running := &job{ctx: context.Background(), fn: block, done: make(chan struct{})}
	queued := &job{ctx: context.Background(), fn: block, done: make(chan struct{})}
	sh := svc.pool.shards[0]
	if err := sh.submit(running); err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	// Wait for the worker to dequeue it, freeing the one queue slot for the
	// second blocking job.
	waitUntil(t, "worker pickup", func() bool { return len(sh.jobs) == 0 })
	if err := sh.submit(queued); err != nil {
		t.Fatalf("submit queued job: %v", err)
	}

	body := `{"scheme":"direct","graph":{"family":"complete","n":16},"algorithm":{"t":2}}`
	resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with a full queue, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	unblock()
	<-running.done
	<-queued.done
	if code, _, e := postSimulate(t, hs.URL, body); code != http.StatusOK {
		t.Fatalf("after unblocking: status %d (%v)", code, e)
	}
	if rej := scrapeMetric(t, hs.URL, "freelunch_serve_rejections_total"); rej != 1 {
		t.Fatalf("rejections counter = %v, want 1", rej)
	}
}

// TestServeDrain checks the graceful-drain contract: work admitted before
// Close completes, work after Close bounces with 503, and the health probe
// flips to draining.
func TestServeDrain(t *testing.T) {
	svc, hs := newTestServer(t, Config{Shards: 1, QueueDepth: 4, Workers: 1})

	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	ran := false
	blocked := &job{ctx: context.Background(), done: make(chan struct{})}
	blocked.fn = func(context.Context) { <-release; ran = true }
	if err := svc.pool.shards[0].submit(blocked); err != nil {
		t.Fatalf("submit: %v", err)
	}

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()

	// Close must be waiting on the in-flight job, not abandoning it.
	select {
	case <-closed:
		t.Fatalf("Close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	unblock()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatalf("Close did not return after the blocking job finished")
	}
	<-blocked.done
	if !ran {
		t.Fatalf("queued job was dropped by drain instead of completing")
	}

	body := `{"scheme":"direct","graph":{"family":"complete","n":16},"algorithm":{"t":2}}`
	if code, _, _ := postSimulate(t, hs.URL, body); code != http.StatusServiceUnavailable {
		t.Fatalf("simulate while drained: status %d, want 503", code)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", resp.StatusCode)
	}
	if d := scrapeMetric(t, hs.URL, "freelunch_serve_draining"); d != 1 {
		t.Fatalf("draining gauge = %v, want 1", d)
	}
}

// TestServeErrorMapping pins the HTTP status for each failure class.
func TestServeErrorMapping(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxNodes: 256, MaxT: 16})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown scheme", `{"scheme":"nope","graph":{"family":"complete","n":16}}`, http.StatusNotFound},
		{"malformed json", `{"scheme":`, http.StatusBadRequest},
		{"unknown field", `{"scheme":"direct","bogus":1}`, http.StatusBadRequest},
		{"unknown family", `{"scheme":"direct","graph":{"family":"mobius","n":16}}`, http.StatusBadRequest},
		{"unreachable regular", `{"scheme":"direct","graph":{"family":"regular","n":200,"deg":12}}`, http.StatusBadRequest},
		{"self loop", `{"scheme":"direct","graph":{"edges":[[0,0]]}}`, http.StatusBadRequest},
		{"negative endpoint", `{"scheme":"direct","graph":{"edges":[[-1,2]]}}`, http.StatusBadRequest},
		{"over node cap", `{"scheme":"direct","graph":{"family":"complete","n":512}}`, http.StatusBadRequest},
		{"over round cap", `{"scheme":"direct","graph":{"family":"complete","n":16},"algorithm":{"t":64}}`, http.StatusBadRequest},
		{"unknown algorithm", `{"scheme":"direct","graph":{"family":"complete","n":16},"algorithm":{"name":"sat"}}`, http.StatusBadRequest},
		{"bad gamma", `{"scheme":"scheme1","graph":{"family":"complete","n":16},"options":{"gamma":-3}}`, http.StatusBadRequest},
		{"round budget", `{"scheme":"scheme1","graph":{"family":"gnp","n":120,"deg":6,"seed":9},"options":{"max_rounds":1}}`, http.StatusUnprocessableEntity},
		{"deadline", `{"scheme":"scheme1","graph":{"family":"gnp","n":200,"deg":8,"seed":11},"options":{"deadline_ms":1}}`, http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, e := postSimulate(t, hs.URL, tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d (error: %v)", code, tc.want, e)
			}
		})
	}
}

// TestServeStreamSSE runs one simulation over /v1/stream and checks the
// event protocol: round progress frames followed by a terminal result frame
// that matches the non-streaming response shape.
func TestServeStreamSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body := `{"scheme":"scheme1","graph":{"family":"gnp","n":80,"deg":6,"seed":3},"algorithm":{"t":3}}`
	resp, err := http.Post(hs.URL+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var rounds, phases int
	var result *SimulateResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "round":
				rounds++
			case "phase":
				phases++
			case "result":
				result = new(SimulateResponse)
				if err := json.Unmarshal([]byte(data), result); err != nil {
					t.Fatalf("result frame: %v\n%s", err, data)
				}
			case "error":
				t.Fatalf("error frame: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if rounds == 0 {
		t.Fatalf("no round events streamed")
	}
	if phases == 0 {
		t.Fatalf("no phase events streamed")
	}
	if result == nil {
		t.Fatalf("stream ended without a result frame")
	}
	if result.Rounds == 0 || result.Messages == 0 {
		t.Fatalf("result frame carries no costs: %+v", result)
	}
}

// TestServeSchemesAndExposition covers the registry listing and the
// exposition invariant that each family header appears exactly once even
// with several schemes contributing samples.
func TestServeSchemesAndExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/schemes")
	if err != nil {
		t.Fatalf("GET /v1/schemes: %v", err)
	}
	var listing struct {
		Schemes []SchemeJSON `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(listing.Schemes) < 8 {
		t.Fatalf("only %d schemes listed", len(listing.Schemes))
	}

	for _, scheme := range []string{"scheme1", "gossip"} {
		body := fmt.Sprintf(`{"scheme":%q,"graph":{"family":"complete","n":24},"algorithm":{"t":2}}`, scheme)
		if code, _, e := postSimulate(t, hs.URL, body); code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", scheme, code, e)
		}
	}
	mresp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	blob, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"freelunch_phase_rounds_total",
		"freelunch_phase_messages_total",
		"freelunch_phase_round_messages",
		"freelunch_serve_requests_total",
	} {
		if n := bytes.Count(blob, []byte("# TYPE "+family+" ")); n != 1 {
			t.Fatalf("family %s has %d TYPE headers, want exactly 1:\n%s", family, n, blob)
		}
	}
	// Both schemes' samples must sit under the one shared header.
	for _, scheme := range []string{"scheme1", "gossip"} {
		needle := []byte(`freelunch_phase_rounds_total{scheme="` + scheme + `"`)
		if !bytes.Contains(blob, needle) {
			t.Fatalf("no %s samples in exposition:\n%s", scheme, blob)
		}
	}
}

// TestServeDeterministicGraphCache checks that the generated-graph LRU
// serves repeat specs and that cached and rebuilt graphs fingerprint
// identically.
func TestServeDeterministicGraphCache(t *testing.T) {
	_, hs := newTestServer(t, Config{GraphCacheSize: 2})
	spec := `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":2}}`
	_, first, _ := postSimulate(t, hs.URL, spec)
	_, second, _ := postSimulate(t, hs.URL, spec)
	if first.GraphFingerprint != second.GraphFingerprint {
		t.Fatalf("fingerprint changed across cache hit: %s vs %s", first.GraphFingerprint, second.GraphFingerprint)
	}
	if hits := scrapeMetric(t, hs.URL, "freelunch_serve_graph_cache_hits_total"); hits == 0 {
		t.Fatalf("no graph cache hits after identical specs")
	}
	// Evict by inserting two fresh specs, then re-request: a rebuilt graph
	// must fingerprint the same.
	for _, s := range []string{
		`{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":8},"algorithm":{"t":2}}`,
		`{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":9},"algorithm":{"t":2}}`,
	} {
		if code, _, e := postSimulate(t, hs.URL, s); code != http.StatusOK {
			t.Fatalf("evictor: status %d (%v)", code, e)
		}
	}
	_, third, _ := postSimulate(t, hs.URL, spec)
	if first.GraphFingerprint != third.GraphFingerprint {
		t.Fatalf("rebuilt graph fingerprints differently: %s vs %s", first.GraphFingerprint, third.GraphFingerprint)
	}
}

// TestServeAdversary covers the HTTP adversary surface: a named shipped
// profile perturbs the bill and attributes damage in the phase JSON, two
// clients under the same profile agree bit for bit, and both an unknown
// profile name and an invalid inline profile bounce with 400.
func TestServeAdversary(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	clean := `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":3},"options":{"seed":5}}`
	named := `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":3},"options":{"seed":5,"adversary":{"name":"drop10"}}}`

	code, base, e := postSimulate(t, hs.URL, clean)
	if code != http.StatusOK {
		t.Fatalf("clean run: status %d (%v)", code, e)
	}
	for _, ph := range base.Phases {
		if ph.Dropped != 0 || ph.Duplicated != 0 {
			t.Fatalf("flawless run attributed damage: %+v", ph)
		}
	}

	code, hit, e := postSimulate(t, hs.URL, named)
	if code != http.StatusOK {
		t.Fatalf("drop10 run: status %d (%v)", code, e)
	}
	var dropped int64
	for _, ph := range hit.Phases {
		dropped += ph.Dropped
	}
	if dropped == 0 {
		t.Fatalf("drop10 run attributed no dropped messages: %+v", hit.Phases)
	}
	// Determinism across requests: same profile, same seed, same answer.
	code, again, e := postSimulate(t, hs.URL, named)
	if code != http.StatusOK {
		t.Fatalf("drop10 rerun: status %d (%v)", code, e)
	}
	if again.OutputsFNV != hit.OutputsFNV || again.Messages != hit.Messages {
		t.Fatalf("adversarial rerun diverged: %s/%d vs %s/%d",
			again.OutputsFNV, again.Messages, hit.OutputsFNV, hit.Messages)
	}

	// An inline profile (no registry name) is honoured as-is.
	inline := `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":3},"options":{"seed":5,"adversary":{"seed":9,"drop_rate":0.25}}}`
	code, inl, e := postSimulate(t, hs.URL, inline)
	if code != http.StatusOK {
		t.Fatalf("inline profile: status %d (%v)", code, e)
	}
	var inlineDropped int64
	for _, ph := range inl.Phases {
		inlineDropped += ph.Dropped
	}
	if inlineDropped == 0 {
		t.Fatal("inline quarter-drop profile attributed no damage")
	}

	// Client errors: unknown name and malformed inline profile are 400s.
	for name, body := range map[string]string{
		"unknown-name": `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":3},"options":{"adversary":{"name":"no-such-profile"}}}`,
		"bad-rate":     `{"scheme":"direct","graph":{"family":"gnp","n":60,"deg":5,"seed":7},"algorithm":{"t":3},"options":{"adversary":{"drop_rate":1.5}}}`,
	} {
		code, _, e := postSimulate(t, hs.URL, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%v), want 400", name, code, e)
		}
	}
}
