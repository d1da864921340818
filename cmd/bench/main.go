// Command bench runs the repository's performance benchmarks and emits a
// machine-readable snapshot — the repo's perf trajectory format. Each
// invocation runs `go test -bench` with -benchmem, parses every benchmark
// line into {name, iterations, metrics} (ns/op, B/op, allocs/op, plus any
// custom metrics like msgs/op or dropped/op), and writes them as JSON.
//
// The committed baseline lives at BENCH_10.json (regenerate with
// `go run ./cmd/bench`); CI runs the same entry point on every commit and
// archives the JSON, so any two commits' perf can be diffed structurally.
//
// -ceiling turns the run into a regression gate: it fails the process when a
// benchmark's gated metric exceeds its committed ceiling. Entries are
// "Name=max" (gating allocs/op, the default metric) or "Name:metric=max"
// for any reported metric — CI uses the allocs/op form to pin the message
// plane's allocation budget (reintroducing per-message boxing costs
// ~1 alloc/message and blows the ceiling immediately; ordinary noise does
// not) and the B/op + ns/op forms to pin the million-node flood round's
// O(edges) footprint and wall-clock smoke bound.
//
// Besides the main and steady-state series, a third pass runs the
// million-node scale benchmark (-millionbench, a few iterations: one Run
// executes all of them, so per-round cost is measured without paying the
// graph build per iteration).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Snapshot is the serialized form of one benchmark run.
type Snapshot struct {
	Schema     int         `json:"schema"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	BenchRegex string      `json:"bench_regex"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped, so names are stable across machines.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in. It is per benchmark, not
	// per snapshot: one cmd/bench run concatenates several go test passes
	// (the main series and the steady-state series run in different
	// packages).
	Pkg string `json:"pkg,omitempty"`
	// Iterations is b.N for the reported measurement.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the line:
	// the standard ns/op, B/op, allocs/op and any ReportMetric extras.
	Metrics map[string]float64 `json:"metrics"`
}

// defaultBench covers the registry-enumerated scheme benchmarks, the local
// engine hot-path benchmarks, the long-run memory benchmark, and the
// building-block micro-benchmarks — the perf surface of the simulator,
// without the E* experiment shape checks (those are correctness reproductions,
// not perf probes).
const defaultBench = "BenchmarkSchemes|BenchmarkLocalEngine|BenchmarkLongGossipMemory|BenchmarkSampler|BenchmarkCollectOnSpanner|BenchmarkReplay"

var procsSuffix = regexp.MustCompile(`-\d+$`)

// resultLine matches a benchmark result line (name, iterations, metrics).
// Benchmarked code printing to stdout can interleave arbitrary text with the
// result lines — such lines are context, not results, and must be skipped,
// not parse errors.
var resultLine = regexp.MustCompile(`^Benchmark\S+\s+\d+\s`)

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to go test -benchtime")
	pkg := flag.String("pkg", ".", "package to benchmark")
	steadyBench := flag.String("steadybench", "BenchmarkBusyRound", "steady-state benchmark regex (empty disables the pass)")
	steadyTime := flag.String("steadytime", "20000x", "benchtime for the steady-state pass (long enough to amortize setup to 0 allocs/op)")
	steadyPkg := flag.String("steadypkg", "./internal/local", "package for the steady-state pass")
	millionBench := flag.String("millionbench", "BenchmarkMillionNodeFloodRound", "million-node scale benchmark regex (empty disables the pass)")
	millionTime := flag.String("milliontime", "16x", "benchtime for the million-node pass (iterations share one Run's setup)")
	millionPkg := flag.String("millionpkg", "./internal/local", "package for the million-node pass")
	out := flag.String("out", "BENCH_10.json", "output JSON path (- for stdout)")
	raw := flag.String("raw", "", "optionally also write the raw go test output to this path")
	ceiling := flag.String("ceiling", "", "regression gate: comma-separated Name=max (allocs/op) or Name:metric=max pairs; exit non-zero when exceeded")
	diffOld := flag.String("diff", "", "diff mode: compare this baseline snapshot against the snapshot named by the positional arg (`bench -diff old.json new.json`) instead of running benchmarks; exit non-zero on regression")
	tolNS := flag.Float64("tolns", 8, "diff mode: max allowed ns/op ratio new/old (wall time is noisy across machine classes)")
	tolB := flag.Float64("tolb", 2, "diff mode: max allowed B/op ratio new/old")
	tolAllocs := flag.Float64("tolallocs", 0, "diff mode: max allowed allocs/op increase over baseline (allocation counts are deterministic)")
	flag.Parse()

	if *diffOld != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-diff needs exactly one positional argument: bench -diff old.json new.json"))
		}
		tol := diffTolerances{nsRatio: *tolNS, bytesRatio: *tolB, allocsDelta: *tolAllocs}
		if err := runDiff(*diffOld, flag.Arg(0), tol); err != nil {
			fatal(err)
		}
		return
	}

	ceilings, err := parseCeilings(*ceiling)
	if err != nil {
		fatal(err)
	}

	output, err := runBench(*bench, *benchtime, *pkg)
	if err != nil {
		fatal(err)
	}
	// The steady-state pass runs the per-round benchmarks for enough rounds
	// that setup amortizes to 0 allocs/op: it measures (and lets -ceiling
	// gate) the marginal cost of a busy round, which a single-iteration
	// pass cannot see under the run's setup allocations.
	if *steadyBench != "" {
		steady, serr := runBench(*steadyBench, *steadyTime, *steadyPkg)
		if serr != nil {
			fatal(serr)
		}
		output += steady
	}
	// The million-node pass prices a flood round at the scale target the CSR
	// core exists for. Few iterations suffice: the benchmark executes all of
	// b.N rounds inside one Run, so setup amortizes across them and B/op
	// approaches the steady-state (near-zero) footprint from above.
	if *millionBench != "" {
		million, merr := runBench(*millionBench, *millionTime, *millionPkg)
		if merr != nil {
			fatal(merr)
		}
		output += million
	}
	if *raw != "" {
		if err := os.WriteFile(*raw, []byte(output), 0o644); err != nil {
			fatal(err)
		}
	}

	snap, err := parse(output)
	if err != nil {
		fatal(err)
	}
	snap.BenchRegex = *bench
	snap.Benchtime = *benchtime

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: %d benchmarks recorded\n", len(snap.Benchmarks))

	if err := gate(snap, ceilings); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runBench executes one `go test -bench` pass and returns its stdout.
func runBench(bench, benchtime, pkg string) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	output, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(output)
		return "", fmt.Errorf("go test -bench %s %s failed: %w", bench, pkg, err)
	}
	return string(output), nil
}

// parse extracts header context and benchmark result lines from go test
// -bench output.
func parse(output string) (*Snapshot, error) {
	snap := &Snapshot{Schema: 1}
	pkg := ""
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case resultLine.MatchString(line):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			b.Pkg = pkg
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines in go test output")
	}
	return snap, nil
}

// parseLine parses one result line: name, iteration count, then
// "value unit" pairs. Trailing text that stops parsing as metric pairs is
// ignored (it is interleaved program output, not part of the result); the
// iteration count is guaranteed numeric by the resultLine filter.
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("malformed iteration count in %q: %w", line, err)
	}
	b := Benchmark{
		Name:       procsSuffix.ReplaceAllString(fields[0], ""),
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// ceilingSpec is one -ceiling entry: a benchmark name, the metric it gates
// (allocs/op unless "Name:metric=max" names another), and the maximum.
type ceilingSpec struct {
	name   string
	metric string
	max    float64
}

// parseCeilings parses "Name=max,Name:metric=max" into gate entries.
func parseCeilings(s string) ([]ceilingSpec, error) {
	var out []ceilingSpec
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("malformed -ceiling entry %q (want Name=max or Name:metric=max)", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed -ceiling value in %q: %w", pair, err)
		}
		metric := "allocs/op"
		if n, m, hasMetric := strings.Cut(name, ":"); hasMetric {
			name, metric = n, m
		}
		out = append(out, ceilingSpec{name: name, metric: metric, max: v})
	}
	return out, nil
}

// gate enforces metric ceilings. Every named ceiling must match at least
// one recorded benchmark — a renamed benchmark must not silently disarm its
// gate.
func gate(snap *Snapshot, ceilings []ceilingSpec) error {
	if len(ceilings) == 0 {
		return nil
	}
	var violations []string
	for _, c := range ceilings {
		matched := false
		for _, b := range snap.Benchmarks {
			if b.Name != c.name {
				continue
			}
			matched = true
			got, ok := b.Metrics[c.metric]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s reported no %s (run with -benchmem)", c.name, c.metric))
				continue
			}
			if got > c.max {
				violations = append(violations, fmt.Sprintf("%s: %.0f %s exceeds ceiling %.0f", c.name, got, c.metric, c.max))
			}
		}
		if !matched {
			violations = append(violations, fmt.Sprintf("ceiling names unknown benchmark %q", c.name))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("ceiling gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
