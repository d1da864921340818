// Command e2ebench is the repository's end-to-end benchmark. It times whole
// Engine.Run calls of four workloads from outside the program, checks every
// output against direct execution, and breaks each op down by layer in a
// separate traced run. README.md lists the workloads and metrics with the
// reasons for each.
//
// Every op is one Engine.Run on the sequential engine, and the next starts
// when it returns: a closed loop with one client. Measuring happens in
// passes, each in a child process of its own, so heaps, GC pacing and peak
// RSS do not carry over from one pass to the next. A pass builds its graph,
// constructs the engine and runs an untimed warm-up op (timed as a whole as
// setup_s), then times its ops.
//
// It runs in one of five modes:
//
//	e2ebench -seed 1 [-trace 1] [-out e2e.json] [-trace-out trace.json]
//	    The full run: 5 passes round-robin over the workloads, 10 timed ops
//	    per pass, then with -trace 1 one traced pass per workload. Prints
//	    every metric with its unit and sample count; exits non-zero on any
//	    failure.
//	e2ebench --workload W --seed N --seconds S --trace 0|1
//	    One workload: 3 passes of S/3 seconds of ops each, or with --trace 1
//	    one traced pass of S seconds, every op followed by a traced one, and
//	    the decomposition pass. The last line of standard output is one JSON
//	    object with the keys correct, attempted, failed and metrics: the
//	    end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer
//	    metrics.
//	e2ebench -compare a.json b.json
//	    One row per (workload, end-to-end metric) of two full-run reports,
//	    with a verdict each; exits non-zero when any row is worse.
//	e2ebench -child W -seed N -trace 0|1 [-seconds S]
//	    One pass: 10 ops, or ops for S seconds; prints its record as JSON.
//	e2ebench -kernel
//	    The calibration kernel's helper process (see host.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

const (
	// passes and opsPerPass fix the full run's length: 50 samples per
	// workload, enough for a p80 with ten samples beyond it.
	passes     = 5
	opsPerPass = 10
	// workloadPasses is how many passes a single-workload run splits its
	// seconds into; setup_s and max_rss_mb are medians over them.
	workloadPasses = 3
	// minTimedOps is the fewest ops a pass times however short its seconds.
	minTimedOps = 3
	// runSeconds is the single-workload run length BENCHMARK.json records.
	runSeconds = 20
)

func main() {
	workloadName := flag.String("workload", "", "measure one workload and print its result line")
	seed := flag.Uint64("seed", 1, "seed of the graph generator and the engine (WithSeed)")
	secondsFlag := flag.Float64("seconds", runSeconds, "with -workload: seconds of timed ops; with -child: 0 for a fixed 10 ops")
	traceOn := flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	out := flag.String("out", "", "full run: write the report to this file as JSON")
	compare := flag.Bool("compare", false, "compare two full-run reports: -compare a.json b.json")
	child := flag.String("child", "", "run one pass of this workload in this process")
	kernelHelper := flag.Bool("kernel", false, "serve the calibration kernel on standard input and output")
	flag.Parse()

	ctx := context.Background()
	var err error
	switch {
	case *kernelHelper:
		err = serveKernel(os.Stdin, os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two reports: -compare a.json b.json")
			break
		}
		err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *child != "":
		err = runChild(ctx, *child, *seed, *traceOn == 1, seconds(*secondsFlag))
	case *workloadName != "":
		err = runWorkload(ctx, *workloadName, *seed, seconds(*secondsFlag), *traceOn == 1, *traceOut)
	default:
		err = runFull(ctx, *seed, *traceOn == 1, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// result is the single-workload run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(ctx context.Context, name string, seed uint64, dur time.Duration, trace bool, traceOut string) error {
	if _, err := lookupWorkload(name); err != nil {
		return err
	}
	var recs []*record
	var defs []metricDef
	var vals map[string]metricValue
	if trace {
		rec, err := spawn(ctx, name, seed, true, dur)
		if err != nil {
			return err
		}
		recs = []*record{rec}
		defs, vals = perLayer, summarizeLayers(rec)
	} else {
		for i := 0; i < workloadPasses; i++ {
			rec, err := spawn(ctx, name, seed, false, dur/workloadPasses)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		for _, d := range endToEnd {
			if d.listed {
				defs = append(defs, d)
			}
		}
		vals = summarizeEndToEnd(recs)
	}
	printMetrics(os.Stdout, name, defs, vals)
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, rec := range recs {
		for _, e := range rec.Errors {
			fmt.Fprintln(os.Stderr, "e2ebench:", name+":", e)
		}
		res.Correct = res.Correct && len(rec.Errors) == 0
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
	}
	for _, d := range defs {
		res.Metrics[d.name] = resultValue{Value: vals[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if traceOut != "" && trace {
		if err := writeChromeTrace(traceOut, recs); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runChild is one pass: dur of ops, or opsPerPass ops when dur is 0. It
// prints the pass's record as its last line.
func runChild(ctx context.Context, name string, seed uint64, trace bool, dur time.Duration) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	p := plan{ops: opsPerPass, trace: trace, calibrate: true}
	if dur > 0 {
		p.ops, p.dur = minTimedOps, dur
	}
	rec, err := run(ctx, w, seed, p)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one pass of one workload in a child process and waits for it.
func spawn(ctx context.Context, name string, seed uint64, trace bool, dur time.Duration) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", name, "-seed", fmt.Sprint(seed),
		"-trace", traceArg, "-seconds", fmt.Sprint(dur.Seconds()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass of %s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return nil, fmt.Errorf("pass of %s: reading its record: %w", name, err)
	}
	return &rec, nil
}

func runFull(ctx context.Context, seed uint64, trace bool, out, traceOut string) error {
	recs := make([][]*record, len(workloads))
	for pass := 1; pass <= passes; pass++ {
		for i, w := range workloads {
			rec, err := spawn(ctx, w.name, seed, false, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pass %d/%d %-16s %d ops, %d failed\n", pass, passes, w.name, len(rec.OpS), rec.Failed)
			recs[i] = append(recs[i], rec)
		}
	}
	var traced []*record
	if trace {
		for _, w := range workloads {
			rec, err := spawn(ctx, w.name, seed, true, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "traced %-16s %d ops\n", w.name, len(rec.TracedOpS))
			traced = append(traced, rec)
		}
	}

	rep := report{Seed: seed, Passes: passes, OpsPerPass: opsPerPass}
	failures := 0
	for i, w := range workloads {
		wr := workloadReport{Name: w.name, Metrics: summarizeEndToEnd(recs[i])}
		for _, r := range recs[i] {
			wr.Errors = append(wr.Errors, r.Errors...)
		}
		if trace {
			wr.Layers = summarizeLayers(traced[i])
			wr.Errors = append(wr.Errors, traced[i].Errors...)
		}
		printMetrics(os.Stdout, w.name, endToEnd, wr.Metrics)
		printMetrics(os.Stdout, w.name, perLayer, wr.Layers)
		for _, e := range wr.Errors {
			fmt.Fprintln(os.Stderr, "e2ebench:", w.name+":", e)
		}
		failures += len(wr.Errors)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" && trace {
		if err := writeChromeTrace(traceOut, traced); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d failures", failures)
	}
	return nil
}
