// Package serve is the live observation surface of the system: an HTTP
// server exposing the obs.Registry in Prometheus text format (/metrics), a
// liveness probe (/healthz), a live mining-progress snapshot fed by the
// engine's per-task callback (/debug/progress), and the standard
// net/http/pprof endpoints — the serving half of the ROADMAP's
// production-service goal. Everything rendered here is a view over the
// observability spine (internal/obs) and core.Options.OnTaskDone; the
// server introduces no counters of its own (DESIGN.md decision 12).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Progress is a race-free live view of a mining run, updated from the
// engine's worker goroutines and read by the /debug/progress handler. The
// zero value is ready to use.
type Progress struct {
	tasksDone atomic.Int64
	matches   atomic.Int64 // raw (pre-divisor) matches found so far
	tasks     atomic.Int64 // total tasks of the current run
	runs      atomic.Int64 // completed engine runs
	running   atomic.Bool
}

// OnTaskDone is the core.Options.OnTaskDone callback that feeds p: one task
// done, and the partial matches it found.
func (p *Progress) OnTaskDone(worker int, matches int64) {
	p.tasksDone.Add(1)
	p.matches.Add(matches)
}

// BeginRun marks a run of total tasks as in flight.
func (p *Progress) BeginRun(totalTasks int) {
	p.tasks.Store(int64(totalTasks))
	p.running.Store(true)
}

// EndRun marks the current run finished.
func (p *Progress) EndRun() {
	p.running.Store(false)
	p.runs.Add(1)
}

// Snapshot is the JSON document served on /debug/progress.
type Snapshot struct {
	Running        bool  `json:"running"`
	Tasks          int64 `json:"tasks"`
	TasksDone      int64 `json:"tasks_done"`
	PartialMatches int64 `json:"partial_matches"` // raw, before symmetry divisors
	RunsCompleted  int64 `json:"runs_completed"`
}

// Snapshot returns a consistent-enough point-in-time view (each field is
// individually atomic; the run advances between loads, which is the nature
// of a live endpoint).
func (p *Progress) Snapshot() Snapshot {
	return Snapshot{
		Running:        p.running.Load(),
		Tasks:          p.tasks.Load(),
		TasksDone:      p.tasksDone.Load(),
		PartialMatches: p.matches.Load(),
		RunsCompleted:  p.runs.Load(),
	}
}

// NewMux builds the serving surface over a registry and a progress tracker
// (either may be nil; the corresponding endpoint then serves an empty
// document):
//
//	/metrics         Prometheus text exposition of every registry counter
//	/healthz         liveness: always "ok"
//	/debug/progress  live task/partial-count snapshot (JSON)
//	/debug/pprof/    the standard net/http/pprof endpoints
func NewMux(reg *obs.Registry, prog *Progress, namespace string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg == nil {
			return
		}
		if err := reg.WritePrometheus(w, namespace); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap Snapshot
		if prog != nil {
			snap = prog.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before forcing connections closed.
const shutdownGrace = 5 * time.Second

// DrainGrace bounds how long ListenAndServe waits for drainers (in-flight
// mining work) after ctx is cancelled, before abandoning them and shutting
// the listener down anyway. A variable so tests and operators with known-long
// workloads can tune it.
var DrainGrace = 30 * time.Second

// ListenAndServe serves handler on addr until ctx is cancelled (the SIGINT
// path in the CLI), then shuts down gracefully. onReady, when non-nil, is
// invoked with the bound address once the listener is accepting — the hook
// tests and callers use to learn the port when addr ends in ":0".
//
// Each drain function, when given, is invoked after ctx is cancelled but
// BEFORE the HTTP listener shuts down, with a context bounded by DrainGrace;
// this is how in-flight mining work (the job queue's running batches)
// finishes — and stays observable on /metrics and GET /jobs/{id} — instead
// of being orphaned the instant SIGINT lands.
// Drainers run in order; the first error is returned after the listener
// closes, but never aborts the shutdown itself.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, onReady func(boundAddr string), drain ...func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	var drainErr error
	if len(drain) > 0 {
		drainCtx, cancel := context.WithTimeout(context.Background(), DrainGrace)
		for _, d := range drain {
			if err := d(drainCtx); err != nil && drainErr == nil {
				drainErr = err
			}
		}
		cancel()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-errCh // Serve has returned http.ErrServerClosed
	return drainErr
}
