// Command flexminer mines a pattern in a graph, on the CPU engine or on the
// simulated accelerator.
//
// Usage:
//
//	flexminer -app TC -graph graph.txt
//	flexminer -pattern diamond -graph graph.bin -engine sim -pes 64 -cmap 8192
//	flexminer -app 3-MC -dataset Mi -engine both
//	flexminer -app 5-CL -dataset Or -timeout 2s -stats
//	flexminer -app 4-CL -dataset Lj -kernel merge -stats
//	flexminer -app TC -dataset Mi -engine sim -metrics out.json -trace out.trace.json
//	flexminer -app TC -dataset Mi -engine sim -timeseries out.ts.json -sample-window 4096
//	flexminer -app 3-MC -graph big.bin -mmap
//	flexminer -pattern triangle -graph shards/
//	flexminer serve -addr localhost:8080 -dataset Mi
//
// Either -graph (a file, or a sharded store directory written by gengraph
// -shards) or -dataset (a built-in Table I stand-in) selects the input; with
// -mmap a binary CSR file is memory-mapped zero-copy instead of loaded onto
// the heap (see README "Large graphs"); either -app (plan.AppForms: TC, k-CL,
// 3-MC, 4-MC, SL-<pattern> such as SL-4cycle or SL-diamond) or -pattern
// (catalog name, edge-induced SL) selects the workload. -timeout
// bounds the run: on expiry the partial counts and stats are printed and the
// command exits nonzero. -kernel selects the CPU engine's set-kernel policy
// (auto, or merge for the paper's merge-based baseline); it does not affect
// -engine sim.
//
// The serve subcommand is the asynchronous job service: POST /jobs, poll
// GET /jobs/{id}, with /metrics (Prometheus text), /healthz, /debug/jobs and
// /debug/pprof alongside; see README "Serve mode".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
)

// options carries every CLI knob through run.
type options struct {
	graphPath, dataset string
	useMmap            bool
	app, patName       string
	induced            bool
	engine             string
	cpu                core.Options // -threads -kernel -slice (engineFlags)
	pes                int
	cmapBytes          int
	timeout            time.Duration
	showPlan, statsOut bool

	metricsPath    string
	tracePath      string
	timeseriesPath string
	sampleWindow   int
	pprofAddr      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "flexminer serve:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.graphPath, "graph", "", "input graph file (edge list, or .bin CSR)")
	flag.StringVar(&o.dataset, "dataset", "", "built-in dataset stand-in (As, Mi, Pa, Yo, Lj, Or)")
	flag.BoolVar(&o.useMmap, "mmap", false, "memory-map the -graph .bin file zero-copy instead of loading it onto the heap")
	flag.StringVar(&o.app, "app", "", "application: "+plan.AppForms)
	flag.StringVar(&o.patName, "pattern", "", "pattern name for edge-induced subgraph listing")
	flag.BoolVar(&o.induced, "induced", false, "vertex-induced matching for -pattern")
	flag.StringVar(&o.engine, "engine", "cpu", "cpu, sim, or both")
	engine := engineFlags(flag.CommandLine)
	flag.IntVar(&o.pes, "pes", 64, "simulated processing elements")
	flag.IntVar(&o.cmapBytes, "cmap", 8<<10, "simulated c-map bytes (0 disables)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort after this long, printing partial results (0 = no limit)")
	flag.BoolVar(&o.showPlan, "show-plan", false, "print the compiled execution plan IR")
	flag.BoolVar(&o.statsOut, "stats", false, "print engine/simulator statistics")
	flag.StringVar(&o.metricsPath, "metrics", "", "write a metrics JSON artifact (counters + phase timers) to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON artifact to this file")
	flag.StringVar(&o.timeseriesPath, "timeseries", "", "write a flexminer-timeseries/v1 JSON artifact to this file (requires -engine sim or both)")
	flag.IntVar(&o.sampleWindow, "sample-window", 4096, "sim-cycle window between -timeseries samples")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	var err error
	if o.cpu, err = engine(); err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexminer:", err)
		os.Exit(1)
	}
}

// engineFlags declares the CPU-engine knobs (-threads -kernel -slice) on
// fs and returns the resolver to call once fs is parsed. The help text lists
// the values the parsers accept, spelled by their own String methods. (A job
// submitted to `flexminer serve` carries the same knobs in its "options".)
func engineFlags(fs *flag.FlagSet) func() (core.Options, error) {
	threads := fs.Int("threads", runtime.GOMAXPROCS(0), "CPU engine threads")
	kernel := fs.String("kernel", core.KernelAuto.String(),
		fmt.Sprintf("CPU set-kernel policy: %v, %v", core.KernelAuto, core.KernelMergeOnly))
	slice := fs.Int("slice", 0, "hub-slicing task size in adjacency elements (0 auto, -1 off)")
	return func() (core.Options, error) {
		k, err := core.ParseKernelPolicy(*kernel)
		if err != nil {
			return core.Options{}, err
		}
		return core.Options{Threads: *threads, SliceElems: *slice, Kernel: k}, nil
	}
}

func run(o options) (err error) {
	// Flag mistakes fail up front — a misspelt -app too, since the plan needs
	// only the flags — before any input is touched or artifact written:
	// loading can mean generating and orienting a dataset.
	runCPU := o.engine == "cpu" || o.engine == "both"
	runSim := o.engine == "sim" || o.engine == "both"
	switch {
	case !runCPU && !runSim:
		return fmt.Errorf("unknown engine %q (want cpu, sim, or both)", o.engine)
	case o.timeseriesPath != "" && !runSim:
		return fmt.Errorf("-timeseries samples on sim cycles; it requires -engine sim or both")
	}
	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "flexminer: pprof:", err)
			}
		}()
	}
	// Observability artifacts read the virtual clock, so repeated runs write
	// byte-identical files; wall-clock timing stays on stdout only.
	var reg *obs.Registry
	if o.metricsPath != "" {
		reg = obs.NewRegistry(nil)
	}
	var tracer *obs.Tracer
	if o.tracePath != "" {
		tracer = obs.NewTracer(nil, 0)
	}
	var sampler *obs.Sampler
	if o.timeseriesPath != "" {
		sampler = obs.NewSampler(int64(o.sampleWindow))
	}
	endPlan := phase(reg, "plan")
	pl, err := buildPlan(o.app, o.patName, o.induced)
	endPlan()
	if err != nil {
		return err
	}
	defer func() {
		// Written in a defer so timeout partial-result paths still produce
		// their artifacts; a failed write fails the run.
		err = errors.Join(err, writeArtifacts(o, reg, tracer, sampler))
	}()

	endLoad := phase(reg, "load")
	g, closeG, err := loadInput(o.graphPath, o.dataset, o.useMmap)
	endLoad()
	if err != nil {
		return err
	}
	defer closeG()
	fmt.Printf("graph: %s\n", graph.ComputeStats(inputName(o.graphPath, o.dataset), g))
	mineG, err := orientFor(pl, g)
	if err != nil {
		return err
	}
	if o.showPlan {
		fmt.Println(pl)
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if runCPU {
		copts := o.cpu
		copts.Trace = tracer
		start := time.Now()
		endBuild := phase(reg, "build-index")
		eng, err := core.NewEngine(mineG, pl, copts)
		endBuild()
		if err != nil {
			return err
		}
		endMine := phase(reg, "mine")
		res, err := eng.MineContext(ctx)
		endMine()
		registerResult(reg, "cpu", res.Counts, &res.Stats)
		if timedOut(err) {
			fmt.Printf("cpu engine (%d threads, %s kernels): PARTIAL after %v (timeout): %s\n",
				copts.Threads, copts.Kernel, time.Since(start), formatCounts(pl, res.Counts))
			printCPUStats(res.Stats)
			return fmt.Errorf("cpu engine: %w", err)
		}
		if pe := (*sched.PanicError)(nil); errors.As(err, &pe) {
			return fmt.Errorf("cpu engine: %w\n%s", err, pe.Stack) // what a crash would have printed; the artifacts are still written
		}
		if err != nil {
			return err
		}
		fmt.Printf("cpu engine (%d threads, %s kernels): %s in %v\n",
			copts.Threads, copts.Kernel, formatCounts(pl, res.Counts), time.Since(start))
		if o.statsOut {
			printCPUStats(res.Stats)
		}
	}
	if runSim {
		simG, ok := mineG.(*graph.Graph)
		if !ok {
			return fmt.Errorf("-engine sim runs on an in-heap graph; mapped and sharded stores are CPU-engine-only (drop -mmap, or point -graph at the original file)")
		}
		cfg := sim.DefaultConfig().WithPEs(o.pes).WithCMapBytes(o.cmapBytes)
		if o.cpu.SliceElems > 0 {
			cfg.TaskSliceElems = o.cpu.SliceElems
		}
		cfg.Trace = tracer
		cfg.Sample = sampler
		endSim := phase(reg, "simulate")
		res, err := sim.SimulateContext(ctx, simG, pl, cfg)
		endSim()
		registerResult(reg, "sim", res.Counts, &res.Stats)
		if timedOut(err) {
			fmt.Printf("accelerator (%d PEs, %s c-map): PARTIAL (timeout): %s after %d simulated cycles\n",
				o.pes, cmapLabel(o.cmapBytes), formatCounts(pl, res.Counts), res.Stats.Cycles)
			printSimStats(res.Stats)
			return fmt.Errorf("accelerator: %w", err)
		}
		if err != nil {
			return err
		}
		fmt.Printf("accelerator (%d PEs, %s c-map): %s in %d cycles = %.6fs @%.1fGHz\n",
			o.pes, cmapLabel(o.cmapBytes), formatCounts(pl, res.Counts),
			res.Stats.Cycles, res.Stats.Seconds, cfg.FreqGHz)
		if o.statsOut {
			printSimStats(res.Stats)
		}
	}
	return nil
}

// timedOut reports whether the error is a context deadline/cancellation —
// the "print partials, exit nonzero" path.
func timedOut(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// phase opens a named phase timer on reg, tolerating a nil (disabled)
// registry.
func phase(reg *obs.Registry, name string) func() {
	if reg == nil {
		return func() {}
	}
	return reg.StartPhase(name)
}

// registerResult records an engine run's counts and schedule-invariant stats
// under the given prefix (wall-clock float fields are skipped by AddStats).
func registerResult(reg *obs.Registry, prefix string, counts []int64, stats any) {
	if reg == nil {
		return
	}
	for i, c := range counts {
		reg.Set(fmt.Sprintf("%s.count.%d", prefix, i), c)
	}
	obs.AddStats(reg, prefix, stats)
}

// writeArtifacts flushes the metrics, trace and timeseries files requested on
// the command line; the trace also gets a text digest on stdout when -stats
// is set.
func writeArtifacts(o options, reg *obs.Registry, tr *obs.Tracer, sp *obs.Sampler) error {
	if reg != nil {
		if err := obs.WriteFile(o.metricsPath, reg.WriteJSON); err != nil {
			return err
		}
	}
	if tr.Enabled() {
		if err := obs.WriteFile(o.tracePath, tr.WriteChromeJSON); err != nil {
			return err
		}
		if o.statsOut {
			if err := tr.WriteSummary(os.Stdout); err != nil {
				return err
			}
		}
	}
	if sp.Enabled() {
		return obs.WriteFile(o.timeseriesPath, sp.WriteJSON)
	}
	return nil
}

func printCPUStats(s core.Stats) {
	fmt.Printf("  tasks=%d extensions=%d candidates=%d setop-iters=%d frontier-reuses=%d\n",
		s.Tasks, s.Extensions, s.Candidates, s.SetOpIterations, s.FrontierReuses)
	// Per-kernel attribution, so auto and merge runs are comparable: merge work
	// is setop-iters above; the rest of the set-op work shows up here
	// (bitmap-probes: every dense-structure access — c-map byte probes,
	// mark/unmark writes and distinctness probes, local-row position-map
	// accesses, build probes and words read; local-rows: the bit rows built;
	// closed-forms: the nodes counted by formula instead of extended;
	// searches: the binary searches no kernel counter sees — bounds, aux-row
	// positions, distinctness memberships).
	fmt.Printf("  gallop-probes=%d bitmap-probes=%d local-rows=%d closed-forms=%d searches=%d leaf-count-skips=%d\n",
		s.GallopProbes, s.BitmapProbes, s.LocalRows, s.ClosedForms, s.Searches, s.LeafCountsSkippedMaterialize)
	if s.AuxBuilt+s.AuxReused > 0 {
		fmt.Printf("  aux-built=%d aux-reused=%d aux-bytes-peak=%d\n",
			s.AuxBuilt, s.AuxReused, s.AuxBytesPeak)
	}
}

func printSimStats(s sim.Stats) {
	fmt.Printf("  util=%.2f noc=%d dram=%d l1miss=%d l2miss=%d siu=%d sdu=%d cmap-reads=%.0f%%\n",
		s.Utilization, s.NoCRequests, s.DRAMAccesses, s.L1Misses, s.L2Misses,
		s.SIUIters, s.SDUIters, s.CMap.ReadRatio()*100)
}

// loadInput resolves the input store: a -graph reference through graph.Open
// (sharded directory, -mmap, or heap), a -dataset stand-in through bench.Get.
// The returned closer (never nil) releases any mappings.
func loadInput(graphPath, dataset string, useMmap bool) (graph.Store, func() error, error) {
	noop := func() error { return nil }
	switch {
	case graphPath != "" && dataset != "":
		return nil, noop, fmt.Errorf("-graph and -dataset are mutually exclusive")
	case graphPath != "":
		return graph.Open(graphPath, useMmap)
	case dataset != "":
		if useMmap {
			return nil, noop, fmt.Errorf("-mmap maps a file; it cannot apply to the generated -dataset stand-ins")
		}
		g, err := bench.Get(dataset)
		return g, noop, err
	default:
		return nil, noop, fmt.Errorf("one of -graph or -dataset is required")
	}
}

func inputName(graphPath, dataset string) string {
	if dataset != "" {
		return dataset
	}
	return graphPath
}

// buildPlan compiles the requested workload: -app through the one workload
// grammar (plan.CompileApp), -pattern as an edge- or vertex-induced listing of
// a catalog pattern.
func buildPlan(app, patName string, induced bool) (*plan.Plan, error) {
	switch {
	case app != "" && patName != "":
		return nil, fmt.Errorf("-app and -pattern are mutually exclusive")
	case app != "":
		return plan.CompileApp(app, plan.Options{})
	case patName != "":
		p, err := pattern.ByName(patName)
		if err != nil {
			return nil, err
		}
		return plan.Compile(p, plan.Options{Induced: induced})
	default:
		return nil, fmt.Errorf("one of -app or -pattern is required")
	}
}

// orientFor returns the store pl must run on. Clique apps mine the
// degree-oriented DAG: an input that is already a DAG (gengraph -orient) is
// used as-is; a symmetric in-heap graph is oriented on the fly; a symmetric
// mapped or sharded store cannot be — the mapping is read-only, so the
// orientation must happen at generation time.
func orientFor(pl *plan.Plan, g graph.Store) (graph.Store, error) {
	if !pl.RequiresDAG || g.IsDAG() {
		return g, nil
	}
	hg, ok := g.(*graph.Graph)
	if !ok {
		return nil, fmt.Errorf("clique apps mine a degree-oriented DAG, and a mapped or sharded store is read-only; regenerate the input with `gengraph -orient` (or `gengraph shard -orient`), or drop -mmap to orient in memory")
	}
	return hg.Orient(), nil
}

func formatCounts(pl *plan.Plan, counts []int64) string {
	if len(counts) == 1 {
		return fmt.Sprintf("%s = %d", pl.Patterns[0].Name(), counts[0])
	}
	out := ""
	for i, c := range counts {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", pl.Patterns[i].Name(), c)
	}
	return out
}

func cmapLabel(b int) string {
	if b == 0 {
		return "no"
	}
	return fmt.Sprintf("%dB", b)
}
