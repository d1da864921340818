package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDef is one reported metric. bound is the share of the baseline's
// value by which the metric may worsen before a change is a regression; a
// bill (exact) must instead match exactly when two runs of one seed are
// compared, and its bound only absorbs the spread across seeds. per names
// what the sample count counts: ops or passes.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
	per                string
	// listed marks the end-to-end metrics a single-workload run reports,
	// the end_to_end list of BENCHMARK.json.
	listed bool
}

// endToEnd are the metrics a user of the simulator sees. op_s.p80 is the
// highest percentile with at least ten samples beyond it at the full run's
// fixed 50 samples; a timed run's op count varies, so there it would name a
// different percentile each time. spanner_edges and fail_ratio are 0 on some
// or all workloads. Those three are reported by the full run only.
var endToEnd = []metricDef{
	{name: "op_s.p50", unit: "s", better: "lower", bound: 0.20, per: "op", listed: true},
	{name: "op_s.p80", unit: "s", better: "lower", bound: 0.20, per: "op"},
	{name: "outputs_per_s", unit: "outputs/s", better: "higher", bound: 0.20, per: "op", listed: true},
	{name: "cpu_s_per_op", unit: "s", better: "lower", bound: 0.20, per: "op", listed: true},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.20, per: "op", listed: true},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.20, per: "pass", listed: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, per: "pass", listed: true},
	{name: "messages_per_op", unit: "count", better: "lower", bound: 0.15, exact: true, per: "op", listed: true},
	{name: "rounds_per_op", unit: "count", better: "lower", bound: 0.02, exact: true, per: "op", listed: true},
	{name: "spanner_edges", unit: "count", better: "lower", exact: true, per: "op"},
	{name: "msg_ratio_vs_direct", unit: "ratio", better: "lower", bound: 0.15, exact: true, per: "op", listed: true},
	{name: "fail_ratio", unit: "ratio", better: "lower", exact: true, per: "op"},
}

// perLayer are the traced run's metrics, medians over its ops unless noted.
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	{name: "simulate.replay_s", unit: "s", better: "lower"},
	{name: "simulate.replay_share", unit: "ratio", better: "lower"},
	{name: "simulate.replay_alloc_mb", unit: "MB", better: "lower"},
	{name: "simulate.replay_node_us.p50", unit: "us", better: "lower"},
	{name: "simulate.replay_node_us.p90", unit: "us", better: "lower"},
	{name: "simulate.ball_nodes.p50", unit: "count", better: "lower"},
	{name: "broadcast.known_origins.p50", unit: "count", better: "lower"},
	{name: "core.sampler_s", unit: "s", better: "lower"},
	{name: "core.sampler_self_s", unit: "s", better: "lower"},
	{name: "core.sampler_rounds", unit: "count", better: "lower"},
	{name: "core.sampler_alloc_mb", unit: "MB", better: "lower"},
	{name: "broadcast.collect_s", unit: "s", better: "lower"},
	{name: "broadcast.collect_self_s", unit: "s", better: "lower"},
	{name: "broadcast.collect_alloc_mb", unit: "MB", better: "lower"},
	{name: "broadcast.gossip_s", unit: "s", better: "lower"},
	{name: "broadcast.gossip_self_s", unit: "s", better: "lower"},
	{name: "globalcompute.converge_s", unit: "s", better: "lower"},
	{name: "globalcompute.converge_self_s", unit: "s", better: "lower"},
	{name: "local.round_s", unit: "s", better: "lower"},
	{name: "local.rounds_executed", unit: "count", better: "lower"},
	{name: "local.ns_per_message", unit: "ns", better: "lower"},
	{name: "facade.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "graph.build_s", unit: "s", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "sched.replay_speedup_2w", unit: "ratio", better: "higher"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
	{name: "host.kernel_ms", unit: "ms", better: "lower"},
}

// metricValue is one reported number. Spread is the interquartile range of
// the per-pass values as a share of their median (0 for a single pass).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Spread  float64 `json:"spread,omitempty"`
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	return s[max(rank, 1)-1]
}

// tailPercentile is the highest whole percentile of n samples that has at
// least ten samples beyond it, or 0 when n leaves no room for one.
func tailPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	return 100 * (n - 10) / n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose default
// exclusive method the repeatability check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return math.Abs(q3-q1) / math.Abs(m)
	}
	return 0
}

// endToEndValues computes every end-to-end metric over the pooled records,
// the tail at percentile tail (0 leaves it out). Times are in reference
// seconds; bills are means over the engine seeds the ops cycled through.
func endToEndValues(recs []*record, tail int) map[string]float64 {
	var ops, setups, rss []float64
	var cpu, opWall float64
	var alloc uint64
	var attempted, failed int
	var b bill
	var bills float64
	for _, r := range recs {
		for i, s := range r.OpS {
			f := factor(r.KernelS[i])
			ops = append(ops, s*f)
			opWall += s * f
			cpu += r.OpCPUS[i] * f
		}
		setups = append(setups, r.SetupS*factor(r.SetupKernelS))
		rss = append(rss, float64(r.MaxRSSKB)/1024)
		alloc += r.AllocBytes
		attempted += r.Attempted
		failed += r.Failed
		for _, x := range r.Bills {
			b.Messages += x.Messages
			b.Rounds += x.Rounds
			b.SpannerEdges += x.SpannerEdges
			b.DirectMessages += x.DirectMessages
			bills++
		}
	}
	n := float64(len(ops))
	v := map[string]float64{
		"op_s.p50":        percentile(ops, 50),
		"outputs_per_s":   float64(recs[0].Nodes) * n / opWall,
		"cpu_s_per_op":    cpu / n,
		"alloc_mb_per_op": float64(alloc) / 1e6 / n,
		"max_rss_mb":      median(rss),
		"setup_s":         median(setups),
		"fail_ratio":      float64(failed) / float64(attempted),
	}
	if bills > 0 {
		v["messages_per_op"] = float64(b.Messages) / bills
		v["rounds_per_op"] = float64(b.Rounds) / bills
		v["spanner_edges"] = float64(b.SpannerEdges) / bills
	}
	if b.DirectMessages > 0 {
		v["msg_ratio_vs_direct"] = float64(b.Messages) / float64(b.DirectMessages)
	}
	if tail > 0 {
		v[fmt.Sprintf("op_s.p%d", tail)] = percentile(ops, float64(tail))
	}
	return v
}

// summarizeEndToEnd reports the end-to-end metrics of one workload's
// records, with per-pass spreads when there are several.
func summarizeEndToEnd(recs []*record) map[string]metricValue {
	nOps := 0
	for _, r := range recs {
		nOps += len(r.OpS)
	}
	tail := tailPercentile(nOps)
	pooled := endToEndValues(recs, tail)
	passes := make([]map[string]float64, len(recs))
	for i, r := range recs {
		passes[i] = endToEndValues([]*record{r}, tail)
	}
	samples := map[string]int{"op": nOps, "pass": len(recs)}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		v, ok := pooled[d.name]
		if !ok {
			continue
		}
		per := make([]float64, len(passes))
		for i, p := range passes {
			per[i] = p[d.name]
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit, Samples: samples[d.per], Spread: spread(per)}
	}
	return out
}

// summarizeLayers reports the per-layer metrics of one traced record.
// Layers a workload does not reach read 0.
func summarizeLayers(rec *record) map[string]metricValue {
	ops := opLayers(rec.Spans)
	v := map[string]float64{}
	for _, d := range perLayer {
		per := make([]float64, len(ops))
		for i, m := range ops {
			per[i] = m[d.name]
		}
		v[d.name] = median(per)
	}
	// The hit ratio is a share of ops, not a per-op median.
	hits := 0.0
	for _, m := range ops {
		hits += m["facade.cache_hit_ratio"]
	}
	if len(ops) > 0 {
		v["facade.cache_hit_ratio"] = hits / float64(len(ops))
	}
	for k, x := range rec.Decomp {
		v[k] = x
	}
	v["graph.build_s"] = rec.BuildS
	if len(rec.OpS) > 0 {
		v["runtime.gc_cycles_per_op"] = float64(rec.GCCycles) / float64(len(rec.OpS))
	}
	v["host.kernel_ms"] = median(rec.KernelS) * 1e3
	if rec.RuntimeCPUS > 0 {
		v["runtime.gc_cpu_share"] = rec.GCCPUS / rec.RuntimeCPUS
	}
	if p := percentile(rec.OpS, 50); p > 0 {
		v["trace.overhead"] = percentile(rec.TracedOpS, 50)/p - 1
	}
	out := map[string]metricValue{}
	for _, d := range perLayer {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit, Samples: len(ops)}
	}
	return out
}

// report is the full run's output, the input of -compare.
type report struct {
	Seed       uint64           `json:"seed"`
	Passes     int              `json:"passes"`
	OpsPerPass int              `json:"ops_per_pass"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string                 `json:"name"`
	Metrics map[string]metricValue `json:"metrics"`
	Layers  map[string]metricValue `json:"layers,omitempty"`
	Errors  []string               `json:"errors,omitempty"`
}

// printMetrics writes one aligned row per metric present in vals, in defs
// order.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]metricValue) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\tn=%d", workload, d.name, v.Value, v.Unit, v.Samples)
		if v.Spread != 0 {
			fmt.Fprintf(tw, "\tspread %.3f", v.Spread)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// verdict judges b against the baseline a: worse when b is worse by more
// than the bound (by anything, for a bill), unresolved when either run's
// own spread exceeds the bound, ok otherwise.
func verdict(d metricDef, a, b metricValue) string {
	if d.exact {
		if a.Value == b.Value {
			return "ok"
		}
		return "worse"
	}
	if max(a.Spread, b.Spread) > d.bound {
		return "unresolved"
	}
	if d.better == "lower" && b.Value > a.Value*(1+d.bound) ||
		d.better == "higher" && b.Value < a.Value*(1-d.bound) {
		return "worse"
	}
	return "ok"
}

// compareReports prints one row per (workload, end-to-end metric) of two
// full-run reports and fails when any row is worse.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tratio\tbound\tverdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\tmissing from %s\n", wa.Name, pathB)
			worse++
			continue
		}
		for _, d := range endToEnd {
			va, okA := wa.Metrics[d.name]
			vb, okB := wb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			ratio := "-"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			bound := fmt.Sprintf("%.2f", d.bound)
			if d.exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wa.Name, d.name, va.Value, vb.Value, ratio, bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
