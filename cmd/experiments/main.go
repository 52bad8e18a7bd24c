// Command experiments regenerates every table and figure of the paper's
// evaluation (§VII) and prints the rows/series to stdout. See EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	experiments all            # everything (minutes)
//	experiments table1 fig14   # selected experiments
//	experiments -quick fig13   # reduced sweeps for smoke runs
//	experiments table2 -metrics out.json -trace out.trace.json
//	experiments report -metrics out.json -timeseries out.ts.json
//
// -metrics writes a JSON artifact of schedule-invariant counters and phase
// timers; -trace writes a Chrome trace_event file of phase markers. Both use
// the virtual clock, so two identical runs produce byte-identical files
// (golden-enforced by the bench tests). Flags may appear before or after the
// experiment names.
//
// A panicking experiment is caught, the suite continues, and the command
// exits nonzero after printing a per-experiment status summary; -exp-timeout
// bounds each experiment the same way (the artifacts recorded so far are
// still written). The report subcommand renders a markdown dashboard from
// previously written artifacts.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := runReport(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments report:", err)
			os.Exit(1)
		}
		return
	}
	quick := flag.Bool("quick", false, "reduced sweeps (fewer apps/datasets/configs)")
	metricsPath := flag.String("metrics", "", "write a metrics JSON artifact (counters + phase timers) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON artifact to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	expTimeout := flag.Duration("exp-timeout", 0, "abort any single experiment after this long (0 = no limit)")
	flag.Parse()

	// Accept flags after experiment names too (experiments table2 -metrics
	// out.json): the flag package stops at the first positional argument, so
	// re-parse whenever one of the remaining arguments looks like a flag.
	var names []string
	rest := flag.Args()
	for len(rest) > 0 {
		if strings.HasPrefix(rest[0], "-") {
			if err := flag.CommandLine.Parse(rest); err != nil {
				os.Exit(2)
			}
			rest = flag.Args()
			continue
		}
		names = append(names, rest[0])
		rest = rest[1:]
	}

	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-quick] [-metrics FILE] [-trace FILE] [-pprof ADDR] all|table1|table2|fig7|fig13|fig14|fig15|fig16|large|ablation ...")
		os.Exit(2)
	}
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "table2", "fig7", "fig13", "fig14", "fig15", "fig16", "large", "ablation"}
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}
	// Artifacts read the virtual clock so repeated runs are byte-identical;
	// wall-clock measurements stay in the printed tables only.
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry(nil)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(nil, 0)
	}

	// Every experiment runs guarded: a panic or an -exp-timeout expiry marks
	// that experiment failed, the rest of the suite still runs, the artifacts
	// recorded so far are still written, and the command exits nonzero after
	// a per-experiment summary — a half-written experiments_output.txt can no
	// longer masquerade as a clean suite.
	status := make(map[string]error, len(names))
	failed := false
	for _, a := range names {
		var end func()
		if reg != nil {
			end = reg.StartPhase(a)
		}
		tracer.Emit(obs.CatPhase, a, 0, 0)
		err := runGuarded(a, *quick, reg, *expTimeout)
		if end != nil {
			end()
		}
		status[a] = err
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", a, err)
		}
		fmt.Println()
	}

	if err := writeArtifacts(*metricsPath, *tracePath, reg, tracer); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		failed = true
	}
	if failed {
		fmt.Fprintln(os.Stderr, "experiments: suite FAILED:")
		for _, a := range names {
			if err := status[a]; err != nil {
				fmt.Fprintf(os.Stderr, "  FAIL %s: %v\n", a, firstLine(err.Error()))
			} else {
				fmt.Fprintf(os.Stderr, "  ok   %s\n", a)
			}
		}
		os.Exit(1)
	}
}

// runGuarded executes one experiment with panic recovery and an optional
// watchdog. On timeout the experiment's goroutine is abandoned (bench
// functions are not cancellable mid-table) — acceptable for a process that
// is about to report failure and exit.
func runGuarded(name string, quick bool, reg *obs.Registry, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		done <- runOne(name, quick, reg)
	}()
	if timeout <= 0 {
		return <-done
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("timed out after %v", timeout)
	}
}

// firstLine truncates multi-line errors (panic stacks) for the summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}

func writeArtifacts(metricsPath, tracePath string, reg *obs.Registry, tr *obs.Tracer) error {
	if reg != nil {
		if err := obs.WriteFile(metricsPath, reg.WriteJSON); err != nil {
			return err
		}
	}
	if tr.Enabled() {
		return obs.WriteFile(tracePath, tr.WriteChromeJSON)
	}
	return nil
}

func runOne(name string, quick bool, reg *obs.Registry) error {
	w := os.Stdout
	switch name {
	case "table1":
		bench.PrintTable1(w)
	case "table2":
		rows, err := bench.Table2(quick)
		if err != nil {
			return err
		}
		bench.PrintTable2(w, rows)
		if reg != nil {
			// Register the schedule-invariant row counters (AddStats skips
			// the wall-clock seconds fields) so -metrics artifacts are
			// deterministic.
			for i := range rows {
				r := &rows[i]
				obs.AddStats(reg, fmt.Sprintf("table2.%s.%s", r.App, r.Dataset), r)
			}
		}
	case "fig7":
		var threads []int
		if quick {
			threads = []int{1, 2, 4}
		}
		rows, err := bench.Fig7(threads)
		if err != nil {
			return err
		}
		bench.PrintFig7(w, rows)
	case "fig13":
		rows, err := bench.Fig13(quick)
		if err != nil {
			return err
		}
		bench.PrintFig13(w, rows)
	case "fig14":
		rows, err := bench.Fig14(quick)
		if err != nil {
			return err
		}
		bench.PrintFig14(w, rows)
		if reg != nil {
			for _, r := range rows {
				for size, cyc := range r.Cycles {
					reg.Set(fmt.Sprintf("fig14.%s.%s.cycles.%d", r.App, r.Dataset, size), cyc)
				}
			}
		}
	case "fig15":
		rows, err := bench.Fig15(quick)
		if err != nil {
			return err
		}
		bench.PrintFig15(w, rows)
		if reg != nil {
			for _, r := range rows {
				for pe, cyc := range r.Cycles {
					reg.Set(fmt.Sprintf("fig15.%s.%s.cycles.%d", r.App, r.Dataset, pe), cyc)
				}
			}
		}
	case "fig16":
		rows, err := bench.Fig16(quick)
		if err != nil {
			return err
		}
		bench.PrintFig16(w, rows)
		if reg != nil {
			for _, r := range rows {
				for size, n := range r.NoC {
					reg.Set(fmt.Sprintf("fig16.%s.%s.noc.%d", r.App, r.Dataset, size), n)
				}
				for size, n := range r.DRAM {
					reg.Set(fmt.Sprintf("fig16.%s.%s.dram.%d", r.App, r.Dataset, size), n)
				}
			}
		}
	case "large":
		rows, err := bench.LargePatterns(quick)
		if err != nil {
			return err
		}
		bench.PrintLargePatterns(w, rows)
	case "ablation":
		apps := []string{"TC", "4-CL", "SL-4cycle"}
		if quick {
			apps = apps[:1]
		}
		var rs []bench.AblationResult
		for _, app := range apps {
			r, err := bench.Ablation(app, "As", 40)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		bench.PrintAblation(w, rs)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
