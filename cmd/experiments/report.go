package main

// The report subcommand: render the markdown dashboard for one recorded run
// from its -metrics (and optionally -timeseries) artifacts.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// runReport implements `experiments report`: parse the artifacts and render
// obs.RenderReport to -o (default stdout).
func runReport(args []string) error {
	fs := flag.NewFlagSet("experiments report", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments report -metrics FILE [-timeseries FILE] [-o FILE]")
		fs.PrintDefaults()
	}
	metricsPath := fs.String("metrics", "", "metrics JSON artifact (flexminer-metrics/v1) to report on")
	timeseriesPath := fs.String("timeseries", "", "optional time-series JSON artifact (flexminer-timeseries/v1)")
	outPath := fs.String("o", "", "write the markdown report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("report: unexpected arguments %q", fs.Args())
	}
	if *metricsPath == "" {
		fs.Usage()
		return fmt.Errorf("report: -metrics is required")
	}

	mf, err := os.Open(*metricsPath)
	if err != nil {
		return err
	}
	m, err := obs.ReadMetricsJSON(mf)
	mf.Close()
	if err != nil {
		return err
	}

	var ts *obs.Timeseries
	if *timeseriesPath != "" {
		tf, err := os.Open(*timeseriesPath)
		if err != nil {
			return err
		}
		ts, err = obs.ReadTimeseriesJSON(tf)
		tf.Close()
		if err != nil {
			return err
		}
	}

	render := func(w io.Writer) error { return obs.RenderReport(w, m, ts) }
	if *outPath != "" {
		return obs.WriteFile(*outPath, render)
	}
	return render(os.Stdout)
}
