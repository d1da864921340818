package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{10: 0, 11: 9, 20: 50, 50: 80, 100: 90} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	for n := 11; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := tailPercentile(n)
		if beyond := n - 1 - int(percentile(xs, float64(p))); beyond < 10 {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond)
		}
		if beyond := n - 1 - int(percentile(xs, float64(p+1))); beyond >= 10 {
			t.Fatalf("n=%d: p%d is not the highest such percentile (p%d has %d beyond)", n, p, p+1, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// syntheticOp is one op: a sampler phase with two round spans (its first
// round folded into its self time), then a replay.
var syntheticOp = []span{
	{ID: 1, Name: "op", Start: 0, End: 10},
	{ID: 3, Parent: 2, Name: "round", Start: 1, End: 2, Messages: 100},
	{ID: 4, Parent: 2, Name: "round", Start: 2, End: 3.5, Messages: 50},
	{ID: 2, Parent: 1, Name: "phase:sampler", Start: 0, End: 4, Rounds: 3, Alloc: 2e6},
	{ID: 5, Parent: 1, Name: "replay", Start: 4, End: 10, Alloc: 6e6},
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	want := map[int]float64{1: 0, 2: 1.5, 3: 1, 4: 1.5, 5: 6}
	if got := selfTimes(syntheticOp); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	layers := opLayers(syntheticOp)
	if len(layers) != 1 {
		t.Fatalf("got %d ops, want 1", len(layers))
	}
	for name, want := range map[string]float64{
		"core.sampler_s":           4,
		"core.sampler_self_s":      1.5,
		"core.sampler_rounds":      3,
		"core.sampler_alloc_mb":    2,
		"simulate.replay_s":        6,
		"simulate.replay_share":    0.6,
		"simulate.replay_alloc_mb": 6,
		"local.round_s":            2.5,
		"local.rounds_executed":    3,
		"local.ns_per_message":     2.5e9 / 150,
	} {
		if got := layers[0][name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	opS, outputs, msgs := def("op_s.p50"), def("outputs_per_s"), def("messages_per_op")
	for _, c := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{opS, metricValue{Value: 1}, metricValue{Value: 1.19}, "ok"},
		{opS, metricValue{Value: 1}, metricValue{Value: 0.5}, "ok"},
		{opS, metricValue{Value: 1}, metricValue{Value: 1.21}, "worse"},
		{opS, metricValue{Value: 1, Spread: 0.3}, metricValue{Value: 1.5}, "unresolved"},
		{opS, metricValue{Value: 1}, metricValue{Value: 1, Spread: 0.21}, "unresolved"},
		{outputs, metricValue{Value: 100}, metricValue{Value: 81}, "ok"},
		{outputs, metricValue{Value: 100}, metricValue{Value: 79}, "worse"},
		{msgs, metricValue{Value: 100}, metricValue{Value: 100}, "ok"},
		{msgs, metricValue{Value: 100}, metricValue{Value: 101}, "worse"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rep := report{Workloads: []workloadReport{{Name: "w", Metrics: map[string]metricValue{
			"op_s.p50":        {Value: p50, Unit: "s"},
			"messages_per_op": {Value: 7, Unit: "count"},
		}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1), write("b.json", 1.1), write("c.json", 1.3)
	var out bytes.Buffer
	if err := compareReports(&out, base, same); err != nil {
		t.Fatalf("compare within bound failed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), " ok") != 2 {
		t.Fatalf("want two ok rows:\n%s", out.String())
	}
	out.Reset()
	if err := compareReports(&out, base, slow); err == nil {
		t.Fatalf("compare of a 30%% slower op succeeded:\n%s", out.String())
	}
}

func TestKernelHelperAnswersEachRequest(t *testing.T) {
	var out bytes.Buffer
	if err := serveKernel(strings.NewReader("\n\n\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 3 {
		t.Fatalf("got %d answers to 3 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		var s float64
		if err := json.Unmarshal([]byte(l), &s); err != nil || s <= 0 {
			t.Fatalf("answer %q is not a positive number of seconds", l)
		}
	}
	if f := factor(referenceKernelS / 2); f != 2 {
		t.Fatalf("a kernel twice as fast as the reference scales times by %v, want 2", f)
	}
	if f := factor(0); f != 1 {
		t.Fatalf("an untimed kernel scales times by %v, want 1", f)
	}
}

// smoke runs one op of every workload at its test-only size, traced, and
// returns the records.
func smoke(t *testing.T, corrupt bool) []*record {
	t.Helper()
	var recs []*record
	for _, w := range workloads {
		rec, err := run(context.Background(), w, 3, plan{ops: 1, trace: true, small: true, corrupt: corrupt})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestSmokeEveryWorkloadPasses(t *testing.T) {
	recs := smoke(t, false)
	for _, rec := range recs {
		if got := summarizeEndToEnd([]*record{rec})["fail_ratio"].Value; got != 0 || len(rec.Errors) > 0 {
			t.Errorf("%s: fail_ratio %v, errors %v", rec.Workload, got, rec.Errors)
		}
		layers := summarizeLayers(rec)
		if len(layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", rec.Workload, len(layers), len(perLayer))
		}
		hit := layers["facade.cache_hit_ratio"].Value
		if want := map[bool]float64{true: 1, false: 0}[rec.Workload == "dense-warm"]; hit != want {
			t.Errorf("%s: cache hit ratio %v, want %v", rec.Workload, hit, want)
		}
	}

	// The trace must parse, and every span must lie inside its parent.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	type key struct{ pid, id int }
	byID := map[key]traceEvent{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			byID[key{ev.PID, int(ev.Args["id"].(float64))}] = ev
		}
	}
	for k, ev := range byID {
		parent := int(ev.Args["parent"].(float64))
		if parent == 0 {
			continue
		}
		p, ok := byID[key{k.pid, parent}]
		if !ok || ev.TS < p.TS || ev.TS+ev.Dur > p.TS+p.Dur+1e-3 {
			t.Fatalf("span %s [%v, +%v] is not inside its parent %s [%v, +%v]", ev.Name, ev.TS, ev.Dur, p.Name, p.TS, p.Dur)
		}
	}
}

func TestSmokeCorruptReferenceFailsEveryOp(t *testing.T) {
	for _, rec := range smoke(t, true) {
		if got := summarizeEndToEnd([]*record{rec})["fail_ratio"].Value; got != 1 {
			t.Errorf("%s: fail_ratio %v with a corrupted reference, want 1", rec.Workload, got)
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json at the repository root to the
// tables in this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "cmd/e2ebench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"cmd/e2ebench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metric
	for _, d := range endToEnd {
		if d.listed {
			bound := d.bound
			e2e = append(e2e, metric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from the listed metrics")
	}
	var layers []metric
	for _, d := range perLayer {
		layers = append(layers, metric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer differs from perLayer")
	}
}
