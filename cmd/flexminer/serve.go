package main

// The serve subcommand: run workloads while exposing the observability spine
// over HTTP (internal/serve) and, with -jobs, the asynchronous multi-tenant
// job API (internal/jobs). The process stays up after the mining passes
// finish so /metrics can be scraped and /debug/pprof inspected, and shuts
// down gracefully on SIGINT/SIGTERM — draining the in-flight workload and
// any running job batches (bounded by serve.DrainGrace) before the listener
// closes.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// runServe implements `flexminer serve`: a long-lived process serving
// /metrics (Prometheus text), /healthz, /debug/progress and /debug/pprof
// while running the requested workload -runs times on the CPU engine, plus
// the /jobs API when -jobs is set.
func runServe(args []string) error {
	fs := flag.NewFlagSet("flexminer serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: flexminer serve -addr HOST:PORT (-graph FILE | -dataset NAME) (-app NAME | -pattern NAME) [flags]")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "localhost:8080", "HTTP listen address")
	graphPath := fs.String("graph", "", "input graph file (edge list, .bin CSR, or sharded store directory)")
	dataset := fs.String("dataset", "", "built-in dataset stand-in (As, Mi, Pa, Yo, Lj, Or)")
	useMmap := fs.Bool("mmap", false, "memory-map the -graph .bin file zero-copy instead of loading it onto the heap")
	app := fs.String("app", "", "application: TC, 4-CL, 5-CL, SL-4cycle, SL-diamond, 3-MC, 4-MC")
	patName := fs.String("pattern", "", "pattern name for edge-induced subgraph listing")
	induced := fs.Bool("induced", false, "vertex-induced matching for -pattern")
	engine := engineFlags(fs)
	runs := fs.Int("runs", 1, "mining passes to execute while serving (0 = serve endpoints only)")
	jobsOn := fs.Bool("jobs", false, "serve the async mining-job API under /jobs (the -graph/-dataset input is registered as graph \"default\")")
	jobsQueue := fs.Int("jobs-queue", 64, "job queue bound (submits beyond it get 429)")
	jobsBatch := fs.Int("jobs-batch", 8, "max distinct patterns merged into one batched plan (1 disables batching)")
	jobsRunning := fs.Int("jobs-running", 1, "max concurrently executing job batches")
	jobsGraphDir := fs.String("jobs-graph-dir", "", "root directory for job graph path references (empty = named graphs only)")
	jobsPaused := fs.Bool("jobs-paused", false, "start the job dispatcher paused (POST /jobs/queue/resume to release)")
	eventlogPath := fs.String("eventlog", "", "flush the job service's structured event log (NDJSON) here on shutdown (implies the in-memory log feeding /debug/jobs)")
	tracePath := fs.String("trace", "", "flush job lifecycle spans as a Chrome trace (chrome://tracing) here on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}
	copts, err := engine()
	if err != nil {
		return err
	}

	reg := obs.NewRegistry(nil)
	var prog serve.Progress

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Resolve inputs up front so flag mistakes fail fast, before a listener
	// is bound. The graph is shared between the serve-mode workload and the
	// job service's "default" registration.
	var g graph.Store
	if *graphPath != "" || *dataset != "" {
		var closeG func() error
		var err error
		g, closeG, err = loadInput(*graphPath, *dataset, *useMmap)
		if err != nil {
			return err
		}
		defer closeG() //nolint:errcheck // close on exit; nothing left to do with the error
		fmt.Printf("graph: %s\n", graph.ComputeStats(inputName(*graphPath, *dataset), g))
	}

	// With -jobs, a graph-only invocation (no -app/-pattern) is a pure job
	// server; without it, the workload is mandatory as before.
	var mine func(context.Context) error
	if *runs > 0 && (*app != "" || *patName != "" || !*jobsOn) {
		if g == nil {
			return fmt.Errorf("serve: one of -graph or -dataset is required")
		}
		pl, mineG, err := buildPlan(g, *app, *patName, *induced)
		if err != nil {
			return err
		}
		// Steal traffic feeds both the live /debug/progress view and the
		// registry's sched.* counters on /metrics.
		copts.SchedHooks = sched.MergeHooks(prog.Hooks(), obs.SchedHooks(reg))
		copts.OnTaskDone = prog.OnTaskDone
		mine = func(ctx context.Context) error {
			for r := 0; r < *runs; r++ {
				eng, err := core.NewEngine(mineG, pl, copts)
				if err != nil {
					return err
				}
				prog.BeginRun(eng.TaskCount())
				endMine := reg.StartPhase("mine")
				res, err := eng.MineContext(ctx)
				endMine()
				prog.EndRun()
				registerResult(reg, "cpu", res.Counts, &res.Stats)
				if err != nil {
					return err
				}
				fmt.Printf("run %d/%d: %s\n", r+1, *runs, formatCounts(pl, res.Counts))
			}
			return nil
		}
	}

	mux := serve.NewMux(reg, &prog, "flexminer")

	// Shutdown drainers, run after SIGINT but before the listener closes so
	// the final state of the run stays scrapeable on /metrics.
	var drainers []func(context.Context) error

	// Artifact sinks for the job service, flushed after the listener closes.
	// The event log always exists when -jobs is on (it feeds /debug/jobs);
	// -eventlog additionally flushes it to disk. Lifecycle spans are only
	// recorded when -trace asks for them.
	var elog *obs.EventLog
	var jtrace *obs.Tracer
	if *jobsOn {
		elog = obs.NewEventLog(0)
		if *tracePath != "" {
			jtrace = obs.NewTracer(nil, 0)
		}
		named := map[string]graph.Store{}
		if g != nil {
			named["default"] = g
		}
		js := jobs.New(jobs.Config{
			Registry:    reg,
			MaxQueue:    *jobsQueue,
			MaxBatch:    *jobsBatch,
			MaxRunning:  *jobsRunning,
			Graphs:      named,
			GraphDir:    *jobsGraphDir,
			StartPaused: *jobsPaused,
			Tracer:      jtrace,
			EventLog:    elog,
		})
		js.Routes(mux)
		drainers = append(drainers, js.Close)
	}

	if mine != nil {
		workloadDone := make(chan struct{})
		go func() {
			defer close(workloadDone)
			if err := mine(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "flexminer serve: workload:", err)
			}
		}()
		// The workload mines under the signal context, so after SIGINT it
		// unwinds promptly with partial counts; the drainer just waits for
		// that unwind to land in the registry.
		drainers = append(drainers, func(dctx context.Context) error {
			select {
			case <-workloadDone:
				return nil
			case <-dctx.Done():
				return dctx.Err()
			}
		})
	}

	err = serve.ListenAndServe(ctx, *addr, mux, func(bound string) {
		fmt.Printf("serving http://%s/{metrics,healthz,debug/progress,debug/pprof} — ^C to stop\n", bound)
	}, drainers...)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if ferr := flushJobArtifacts(*eventlogPath, elog, *tracePath, jtrace); err == nil {
		err = ferr
	}
	return err
}

// flushJobArtifacts writes the job service's shutdown artifacts: the
// structured event log as NDJSON and the lifecycle spans as a Chrome trace.
func flushJobArtifacts(eventlogPath string, elog *obs.EventLog, tracePath string, jtrace *obs.Tracer) error {
	write := func(path, what string, render func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close() //nolint:errcheck // render already failed
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s\n", what, path)
		return nil
	}
	if eventlogPath != "" && elog != nil {
		if err := write(eventlogPath, "eventlog", elog.WriteNDJSON); err != nil {
			return err
		}
	}
	if tracePath != "" && jtrace != nil {
		if err := write(tracePath, "trace", jtrace.WriteChromeJSON); err != nil {
			return err
		}
	}
	return nil
}
