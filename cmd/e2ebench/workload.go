package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// workload is one benchmark input: a graph family, a scheme, and the engine
// options that put the scheme in the regime the workload exists to measure.
type workload struct {
	name   string
	why    string
	scheme string
	t      int
	// graph is the benchmark size; small is the test-only size with the same
	// family and regime. Spec.Seed is set from -seed at build time.
	graph, small gen.Spec
	opts         []repro.Option
	// seeds is how many engine seeds the ops of one run cycle through (0
	// means 1). A workload whose work swings with the seed averages several
	// per run, so runs at different -seed agree.
	seeds int
	// prime runs the warm-up op at every engine seed instead of the first
	// only, so the spanner cache holds each seed's spanner before timing.
	prime bool
}

// workloads is the benchmark's fixed input set. Every op simulates MaxID,
// whose exact oracle is a BFS, so any replay or collection bug changes
// outputs.
var workloads = []workload{
	{
		name:   "dense-warm",
		why:    "scheme1 on K_112 with the spanner cache primed: replay is ~98% of the op and the sampler never runs",
		scheme: "scheme1", t: 2,
		graph: gen.Spec{Family: "complete", N: 112},
		small: gen.Spec{Family: "complete", N: 12},
		opts:  []repro.Option{repro.WithSpannerParams(2, 8, 0.5)},
		// Each seed samples another spanner: messages move ~6% across seeds.
		seeds: 4, prime: true,
	},
	{
		name:   "sparse-cold",
		why:    "scheme1 on a 36x36 torus with no cache: sampler, collection and 1296 tiny-ball replays all run each op",
		scheme: "scheme1", t: 2,
		graph: gen.Spec{Family: "torus", Rows: 36, Cols: 36},
		small: gen.Spec{Family: "torus", Rows: 4, Cols: 4},
		opts:  []repro.Option{repro.WithNoCache()},
	},
	{
		name:   "gossip-converge",
		why:    "push-pull gossip plus termination detection on the torus: no sampler and no flood",
		scheme: "gossip-converge", t: 2,
		graph: gen.Spec{Family: "torus", Rows: 36, Cols: 36},
		small: gen.Spec{Family: "torus", Rows: 4, Cols: 4},
		// The op's work follows the gossip's cover round: across seeds one
		// op allocates 180 to 230 MB and its time moves ~12%.
		seeds: 32,
	},
	{
		name:   "direct-large",
		why:    "direct on GNP n=65536 avg deg 16, t=5: round engine only, no replay, sampler or collection",
		scheme: "direct", t: 5,
		graph: gen.Spec{Family: "gnp", N: 65536, Degree: 16},
		small: gen.Spec{Family: "gnp", N: 200, Degree: 6},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plan fixes how much one pass measures: after the set-up, timed ops until
// at least ops ops have run and dur has passed. A traced plan pairs each op
// with a traced one and ends with the decomposition pass.
type plan struct {
	ops   int
	dur   time.Duration
	trace bool
	// calibrate times the host kernel around every set-up and op; without
	// it times stay unscaled.
	calibrate bool
	// small selects the workload's test-only graph.
	small bool
	// corrupt damages the reference outputs, so every op must fail.
	corrupt bool
}

// record is everything one pass measured on one workload. Times are raw
// seconds, each with the mean kernel time around it (see hostClock).
type record struct {
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	// SetupS is the set-up's wall time: graph build (BuildS), engine
	// construction and the untimed warm-up op.
	SetupS       float64 `json:"setup_s"`
	SetupKernelS float64 `json:"setup_kernel_s"`
	BuildS       float64 `json:"build_s"`
	// OpS and OpCPUS hold each untraced op's wall and process CPU time.
	// AllocBytes and GCCycles are summed over the same ops.
	OpS        []float64 `json:"op_s"`
	OpCPUS     []float64 `json:"op_cpu_s"`
	KernelS    []float64 `json:"kernel_s"`
	AllocBytes uint64    `json:"alloc_bytes"`
	GCCycles   uint64    `json:"gc_cycles"`
	// GCCPUS and RuntimeCPUS are the runtime's estimates of GC and total CPU
	// time over the timed loop.
	GCCPUS      float64 `json:"gc_cpu_s"`
	RuntimeCPUS float64 `json:"runtime_cpu_s"`
	// MaxRSSKB is the process's peak resident set after the timed loop.
	MaxRSSKB int64 `json:"max_rss_kb"`
	// Attempted and Failed count ops, traced ones included.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Bills holds the bill of each engine seed's first successful op.
	Bills []bill `json:"bills"`
	// TracedOpS, Spans and Decomp are set by traced plans only: the traced
	// ops' wall times, the facade and decomposition spans, and the metrics
	// the decomposition pass measures.
	TracedOpS []float64          `json:"traced_op_s,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Decomp    map[string]float64 `json:"decomp,omitempty"`
}

// bill is what one op cost, and what direct execution costs on the same
// graph and seed.
type bill struct {
	Messages       int64 `json:"messages"`
	Rounds         int   `json:"rounds"`
	SpannerEdges   int   `json:"spanner_edges"`
	DirectMessages int64 `json:"direct_messages"`
}

func (r *record) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runtimeSample reads the runtime counters the benchmark reports.
type runtimeSample struct {
	alloc, gcCycles uint64
	gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// processCPU returns the user+system CPU seconds the process has used, and
// its peak resident set in KiB.
func processCPU() (float64, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpu, int64(ru.Maxrss)
}

// engineSeed is the j-th engine seed of a run at seed; the first is the seed
// itself, and runs at different seeds share none.
func engineSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<32 }

// run measures w at the given seed under p. Failures of single ops are
// counted in the record; the error is for failures that leave nothing to
// measure (the graph or the set-up op cannot be built, the kernel helper
// dies).
func run(ctx context.Context, w workload, seed uint64, p plan) (rec *record, err error) {
	rec = &record{Workload: w.name}
	spec := w.graph
	if p.small {
		spec = w.small
	}
	spec.Seed = seed
	alg := repro.MaxID(w.t)
	seeds := max(w.seeds, 1)

	var clock *hostClock
	if p.calibrate {
		if clock, err = startHostClock(); err != nil {
			return nil, err
		}
		defer func() {
			if stopErr := clock.stop(); err == nil && stopErr != nil {
				err = fmt.Errorf("kernel helper: %w", stopErr)
			}
		}()
	}
	// calibrated runs fn between two kernel timings, with the garbage of
	// earlier work collected first so no collection overlaps either, and
	// returns fn's wall time and the mean kernel time.
	calibrated := func(fn func()) (float64, float64, error) {
		runtime.GC()
		k0, err := clock.kernel()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		fn()
		elapsed := time.Since(start).Seconds()
		k1, err := clock.kernel()
		return elapsed, (k0 + k1) / 2, err
	}

	var (
		g     *graph.Graph
		eng   *repro.Engine
		warm  *repro.SimulationResult
		built time.Duration
	)
	var setupErr error
	rec.SetupS, rec.SetupKernelS, err = calibrated(func() {
		start := time.Now()
		if g, setupErr = gen.Build(spec); setupErr != nil {
			setupErr = fmt.Errorf("%s: building %s: %w", w.name, spec.Key(), setupErr)
			return
		}
		built = time.Since(start)
		opts := append([]repro.Option{repro.WithSeed(seed), repro.WithConcurrency(0)}, w.opts...)
		eng = repro.NewEngine(opts...)
		warmSeeds := 1
		if w.prime {
			warmSeeds = seeds
		}
		for j := 0; j < warmSeeds && setupErr == nil; j++ {
			var res *repro.SimulationResult
			if res, setupErr = eng.RunWith(ctx, w.scheme, g, alg, repro.WithSeed(engineSeed(seed, j))); setupErr != nil {
				setupErr = fmt.Errorf("%s: warm-up op: %w", w.name, setupErr)
			} else if j == 0 {
				warm = res
			}
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	if err != nil {
		return nil, err
	}
	rec.BuildS = built.Seconds()
	rec.Nodes = g.NumNodes()

	// Each op is checked against the first successful op at its engine seed:
	// same bill, same outputs. The first ones are checked against the
	// references afterwards, so the references' memory does not count toward
	// the ops' peak RSS.
	firsts := make([]*repro.SimulationResult, seeds)
	var good []bool // per op
	var opSeed []int
	op := func(j int, extra ...repro.Option) time.Duration {
		start := time.Now()
		res, err := eng.RunWith(ctx, w.scheme, g, alg, append([]repro.Option{repro.WithSeed(engineSeed(seed, j))}, extra...)...)
		elapsed := time.Since(start)
		rec.Attempted++
		first, ok := firsts[j], false
		switch {
		case err != nil:
			rec.fail("op %d: %v", rec.Attempted, err)
		case first == nil:
			firsts[j], ok = res, true
		case !sameBill(res, first):
			rec.fail("op %d: bill %d msgs / %d rounds / %v differs from the first op's %d / %d / %v",
				rec.Attempted, res.Messages, res.Rounds, res.Phases, first.Messages, first.Rounds, first.Phases)
		case !sameOutputs(res.Outputs, first.Outputs):
			rec.fail("op %d: outputs differ from the first op's", rec.Attempted)
		default:
			ok = true
		}
		good = append(good, ok)
		opSeed = append(opSeed, j)
		return elapsed
	}

	// A traced plan follows every untraced op with a traced one, so drift
	// over the run hits both series alike and their ratio is the tracing
	// overhead.
	var tr *tracer
	if p.trace {
		tr = newTracer(w.scheme != "direct")
	}
	loop0 := readRuntime()
	start := time.Now()
	for i := 0; i < p.ops || time.Since(start) < p.dur; i++ {
		j := i % seeds
		var cpu0, cpu1 float64
		var rt0, rt1 runtimeSample
		var elapsed time.Duration
		_, kernelS, err := calibrated(func() {
			rt0 = readRuntime()
			cpu0, _ = processCPU()
			elapsed = op(j)
			cpu1, _ = processCPU()
			rt1 = readRuntime()
		})
		if err != nil {
			return nil, err
		}
		rec.OpS = append(rec.OpS, elapsed.Seconds())
		rec.OpCPUS = append(rec.OpCPUS, cpu1-cpu0)
		rec.KernelS = append(rec.KernelS, kernelS)
		rec.AllocBytes += rt1.alloc - rt0.alloc
		rec.GCCycles += rt1.gcCycles - rt0.gcCycles
		if p.trace {
			runtime.GC()
			tr.beginOp()
			elapsed := op(j, repro.WithObserver(tr))
			tr.endOp()
			rec.TracedOpS = append(rec.TracedOpS, elapsed.Seconds())
		}
	}
	_, rec.MaxRSSKB = processCPU()
	loop1 := readRuntime()
	rec.GCCPUS = loop1.gcCPU - loop0.gcCPU
	rec.RuntimeCPUS = loop1.totalCPU - loop0.totalCPU

	// References: direct on the concurrent engine, which must be
	// bit-identical to the sequential engine by contract.
	for j, first := range firsts {
		if first == nil {
			continue
		}
		ref, err := repro.NewEngine(repro.WithSeed(engineSeed(seed, j)), repro.WithConcurrency(2)).Run(ctx, "direct", g, alg)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", w.name, err)
		}
		if p.corrupt {
			ref.Outputs[0] = corrupted{}
		}
		rec.Bills = append(rec.Bills, bill{Messages: first.Messages, Rounds: first.Rounds,
			SpannerEdges: first.SpannerEdges, DirectMessages: ref.Messages})
		if !sameOutputs(first.Outputs, ref.Outputs) {
			rec.fail("engine seed %d: outputs differ from direct execution", engineSeed(seed, j))
			for i := range good {
				if opSeed[i] == j {
					good[i] = false
				}
			}
		}
	}
	for _, ok := range good {
		if !ok {
			rec.Failed++
		}
	}

	if p.trace {
		if firsts[0] != nil {
			decompose(ctx, rec, tr, w, eng.Options(), g, warm, firsts[0])
		}
		rec.Spans = tr.spans
	}
	return rec, nil
}

// corrupted is a value no algorithm outputs.
type corrupted struct{}

func sameBill(a, b *repro.SimulationResult) bool {
	return a.Messages == b.Messages && a.Rounds == b.Rounds &&
		a.SpannerEdges == b.SpannerEdges && reflect.DeepEqual(a.Phases, b.Phases)
}

func sameOutputs(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
