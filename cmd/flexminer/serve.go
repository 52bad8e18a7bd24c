package main

// The serve subcommand: the asynchronous multi-tenant job service
// (internal/jobs) on the observability spine (internal/serve). Tenants POST
// jobs and poll them; /metrics, /debug/jobs and /debug/pprof stay live for
// the life of the process, which shuts down gracefully on SIGINT/SIGTERM —
// draining running job batches (bounded by serve.DrainGrace) before the
// listener closes.

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

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// runServe implements `flexminer serve`: a long-lived process serving the
// /jobs API plus /metrics (Prometheus text), /healthz, /debug/jobs and
// /debug/pprof. A job's worker count and timeout travel with its "options",
// not with the server, and the engine picks its kernels and hub slicing from
// the input; a one-shot run of an app the job API cannot express (DAG-oriented
// cliques, k-MC) is `flexminer -app … -metrics … -pprof …`.
func runServe(args []string) error {
	fs := flag.NewFlagSet("flexminer serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: flexminer serve -addr HOST:PORT (-graph FILE | -dataset NAME | -jobs-graph-dir DIR) [flags]")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "localhost:8080", "HTTP listen address")
	graphPath := fs.String("graph", "", "graph registered as \"default\" (edge list, .bin CSR, or sharded store directory)")
	dataset := fs.String("dataset", "", "built-in dataset stand-in registered as graph \"default\" (As, Mi, Pa, Yo, Lj, Or)")
	useMmap := fs.Bool("mmap", false, "memory-map the -graph .bin file zero-copy instead of loading it onto the heap")
	jobsQueue := fs.Int("jobs-queue", 64, "job queue bound, unfinished joiners included (submits beyond it get 429)")
	jobsGraphDir := fs.String("jobs-graph-dir", "", "root directory for job graph path references (empty = named graphs only)")
	jobsPaused := fs.Bool("jobs-paused", false, "start the job dispatcher paused (POST /jobs/queue/resume to release)")
	eventlogPath := fs.String("eventlog", "", "flush the job service's structured event log (NDJSON) here on shutdown")
	tracePath := fs.String("trace", "", "flush job lifecycle spans as a Chrome trace (chrome://tracing) here on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Resolve the input up front so flag mistakes fail fast, before a
	// listener is bound.
	named := map[string]graph.Store{}
	switch {
	case *graphPath != "" || *dataset != "":
		g, closeG, err := loadInput(*graphPath, *dataset, *useMmap)
		if err != nil {
			return err
		}
		defer closeG() //nolint:errcheck // close on exit; nothing left to do with the error
		fmt.Printf("graph: %s\n", graph.ComputeStats(inputName(*graphPath, *dataset), g))
		named["default"] = g
	case *jobsGraphDir == "":
		return fmt.Errorf("one of -graph, -dataset or -jobs-graph-dir is required (no job could name a graph)")
	}

	// The event log feeds /debug/jobs, so it always exists; -eventlog also
	// flushes it to disk. Lifecycle spans are recorded only when -trace asks.
	reg := obs.NewRegistry(nil)
	elog := obs.NewEventLog(0)
	var jtrace *obs.Tracer
	if *tracePath != "" {
		jtrace = obs.NewTracer(nil, 0)
	}
	js := jobs.New(jobs.Config{
		Registry:    reg,
		MaxQueue:    *jobsQueue,
		Graphs:      named,
		GraphDir:    *jobsGraphDir,
		StartPaused: *jobsPaused,
		Tracer:      jtrace,
		EventLog:    elog,
	})
	// No process-wide progress feed: a job's live progress is GET /jobs/{id}.
	mux := serve.NewMux(reg, nil, "flexminer")
	js.Routes(mux)

	// js.Close drains after SIGINT but before the listener closes, so the
	// final state of the jobs stays scrapeable on /metrics.
	err := serve.ListenAndServe(ctx, *addr, mux, func(bound string) {
		fmt.Printf("serving http://%s/{jobs,metrics,healthz,debug/jobs,debug/pprof} — ^C to stop\n", bound)
	}, js.Close)
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
		if err := obs.WriteFile(path, render); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s\n", what, path)
		return nil
	}
	if eventlogPath != "" {
		if err := write(eventlogPath, "eventlog", elog.WriteNDJSON); err != nil {
			return err
		}
	}
	if jtrace != nil {
		if err := write(tracePath, "trace", jtrace.WriteChromeJSON); err != nil {
			return err
		}
	}
	return nil
}
