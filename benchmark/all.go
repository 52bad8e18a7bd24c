package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAll is the no -workload mode: every workload in round-robin sweeps, each
// run in a process of its own (so that peak_rss_mb is the workload's), then
// one traced sweep; it prints the medians and writes every record to out.
// Slow phases of a shared host last seconds, so a workload's runs are spread
// over the sweeps and not taken back to back.
func runAll(cfg config, sweeps int, out string, stdout, stderr io.Writer) int {
	if cfg.quick || sweeps < 1 {
		sweeps = 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var all []*record
	failed := false
	for sweep := 0; sweep <= sweeps; sweep++ {
		traced := sweep == sweeps
		for _, wl := range workloads {
			rec, err := runChild(self, cfg, wl.name, traced, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
				failed = true
				continue
			}
			failed = failed || !rec.Correct
			all = append(all, rec)
			fmt.Fprintf(stdout, "sweep %d  %-12s trace=%v correct=%v noisy=%v attempted=%d failed=%d\n",
				sweep, wl.name, traced, rec.Correct, rec.Noisy, rec.Phases["measure"].Attempted, rec.Phases["measure"].Failed)
		}
	}
	printSummary(stdout, all)
	if out != "" {
		if err := writeRecords(out, all); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and reads its record back.
func runChild(self string, cfg config, name string, traced bool, stderr io.Writer) (*record, error) {
	f, err := os.CreateTemp(cfg.dir, "record-*.json")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()             //nolint:errcheck // empty file, reopened by the child
	defer os.Remove(path) //nolint:errcheck // scratch file
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(b2i(traced)), "-dir", cfg.dir, "-out", path,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	recs, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("%s holds %d records, want 1", filepath.Base(path), len(recs))
	}
	return recs[0], nil
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// pool gathers, per workload and metric, the values of every record.
func pool(recs []*record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSummary prints every metric by name and unit: one row per metric, one
// column per workload, medians over the sweeps.
func printSummary(w io.Writer, recs []*record) {
	values := pool(recs)
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		fmt.Fprintf(w, "\n%-28s %-6s", "metric", "unit")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %12s", wl.name)
		}
		fmt.Fprintln(w)
		for _, d := range group {
			fmt.Fprintf(w, "%-28s %-6s", d.Name, d.Unit)
			for _, wl := range workloads {
				fmt.Fprintf(w, " %12.5g", median(values[wl.name][d.Name]))
			}
			fmt.Fprintln(w)
		}
	}
}
