// Command benchmark is the repo benchmark: seven workloads, from the set
// kernels up to the multi-tenant job service, measured against the repo's
// exported functions only. See README.md in this directory and BENCHMARK.json
// at the repo root.
//
//	go run ./benchmark -workload clique -seed 1 -seconds 8 -trace 0
//	go run ./benchmark                       # every workload, untraced then traced
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often a run sets its workload up; setup_s is the median.
const setupRepeats = 3

// env is what a workload's set-up receives.
type env struct {
	seed  uint64
	quick bool       // graphs ≈ 1/16 size
	rec   *recorder  // nil when tracing is off
	ref   *reference // the host's speed, taken around every timed interval
	dir   string     // scratch directory for graph files, inside the checkout

	// layer holds per-layer samples observed directly (set-up timings and
	// micro rows); a row's value is the median of its samples.
	layer map[string][]float64
	// counts holds every count mined (and sim cycles), keyed query.pattern;
	// they are compared with golden.json on seed 1 and written to -out.
	counts map[string]int64
	// inputs states the generated input sizes.
	inputs map[string]int64
}

func (e *env) observe(name string, v float64) { e.layer[name] = append(e.layer[name], v) }

// instance is a workload that has been set up.
type instance interface {
	// verify cross-checks the counts the measured operations must reproduce
	// against an independent path through the program.
	verify() error
	// measure runs operations back to back until the deadline.
	measure(deadline time.Time, res *result)
	// layers fills in the workload's per-layer rows after a traced run.
	layers(row map[string]float64)
	close() error
}

// result is what a measure phase produced. An operation is a mining pass, a
// sim pass or a job; a failed one contributes no latency sample.
type result struct {
	attempted, failed int
	latencyMS         []float64     // every successful operation, wall clock
	refMS             []float64     // the same operations in reference time (see reference.go)
	tracedMS          []float64     // the subset recorded by the span recorder
	untracedMS        []float64     // the subset run with the recorder off
	wall              time.Duration // of the measure phase, reference kernel runs left out
	errs              []string      // first few failure reasons, for the operator
}

func (r *result) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.note(fmt.Sprintf(format, args...))
}

func (r *result) note(reason string) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, reason)
	}
}

// ok records one successful operation; op is its recorder id (-1 = unrecorded).
func (r *result) ok(latency time.Duration, op int) {
	r.attempted++
	r.latencyMS = append(r.latencyMS, ms(latency))
	if op >= 0 {
		r.tracedMS = append(r.tracedMS, ms(latency))
	} else {
		r.untracedMS = append(r.untracedMS, ms(latency))
	}
}

// merge adds what another goroutine measured between two runs of the
// reference kernel. o's traced and untraced subsets are wall clock; r's are in
// reference time, like refMS.
func (r *result) merge(o *result, before, after time.Duration) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.latencyMS = append(r.latencyMS, o.latencyMS...)
	k := toReference(before, after)
	for _, l := range o.latencyMS {
		r.refMS = append(r.refMS, l*k)
	}
	for _, l := range o.tracedMS {
		r.tracedMS = append(r.tracedMS, l*k)
	}
	for _, l := range o.untracedMS {
		r.untracedMS = append(r.untracedMS, l*k)
	}
	for _, reason := range o.errs {
		r.note(reason)
	}
}

// measurePasses is the measure phase of the pass workloads: run pass until
// the deadline, at least once, with the reference kernel between passes, and
// hold every pass to the counts of the warm-up pass. A traced run records
// every other pass, so that the same run prices the recorder.
func measurePasses(e *env, deadline time.Time, res *result, want map[string]int64, pass func(op int) (map[string]int64, error)) {
	before := e.ref.run()
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		e.rec.alternate(n)
		var one result
		op := e.rec.begin("pass")
		start := time.Now()
		got, err := pass(op)
		latency := time.Since(start)
		e.rec.end(op)
		if err == nil {
			err = sameCounts(got, want)
		}
		if err != nil {
			one.fail("pass %d: %v", n, err)
		} else {
			one.ok(latency, op)
		}
		after := e.ref.run()
		res.merge(&one, before, after)
		before = after
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload states about itself; -out
// writes it, compare reads it. The last line of standard output is the
// contract subset: correct, attempted, failed, metrics.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Quick     bool              `json:"quick"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Noisy     bool              `json:"noisy"` // the reference kernel moved > 15 % during the run
	Phases    map[string]phase  `json:"phases"`
	Samples   int               `json:"samples"`
	Quartiles [3]float64        `json:"latency_quartiles_ms"` // wall clock
	Latencies []float64         `json:"latencies_ms"`         // wall clock
	RefTime   []float64         `json:"latencies_ref_ms"`     // the same operations in reference time
	Reference []float64         `json:"reference_ms"`         // every run of the reference kernel
	Inputs    map[string]int64  `json:"inputs"`
	Counts    map[string]int64  `json:"counts"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is the failure accounting of one phase of a run.
type phase struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	dir      string
}

// runOne sets one workload up, verifies it, measures it and returns its record.
func runOne(cfg config) (*record, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch files; nothing to do on failure

	e := &env{
		seed: cfg.seed, quick: cfg.quick, dir: scratch,
		layer: map[string][]float64{}, counts: map[string]int64{}, inputs: map[string]int64{},
	}
	if cfg.trace {
		e.rec = newRecorder()
	}
	e.ref = newReference()
	calibStart := e.ref.run()

	// Set-up, repeated so that setup_s is a median; the last one is kept.
	var inst instance
	var setupS, setupWallS []float64
	before := calibStart
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		e.dir = filepath.Join(scratch, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if inst, err = wl.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0)
		after := e.ref.run()
		setupWallS = append(setupWallS, wall.Seconds())
		setupS = append(setupS, wall.Seconds()*toReference(before, after))
		before = after
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Quick: cfg.quick, Trace: cfg.trace,
		Seconds: cfg.seconds, Phases: map[string]phase{}, Metrics: map[string]metric{},
	}
	verifyErr := inst.verify()
	if verifyErr == nil {
		verifyErr = checkGolden(cfg, e.counts)
	}
	rec.Phases["verify"] = phase{Attempted: 1, Succeeded: b2i(verifyErr == nil), Failed: b2i(verifyErr != nil)}

	var res result
	t0, spent := time.Now(), e.ref.spent
	inst.measure(t0.Add(time.Duration(cfg.seconds*float64(time.Second))), &res)
	res.wall = time.Since(t0) - (e.ref.spent - spent)
	rec.Phases["measure"] = phase{Attempted: res.attempted, Succeeded: res.attempted - res.failed, Failed: res.failed}

	layerRows := map[string]float64{}
	if cfg.trace {
		inst.layers(layerRows)
		microRows(e)
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	calibEnd := e.ref.run()

	rec.Errors = res.errs
	if verifyErr != nil {
		rec.Errors = append(rec.Errors, "verify: "+verifyErr.Error())
	}
	rec.Correct = verifyErr == nil && res.failed == 0 && len(res.latencyMS) > 0
	rec.Noisy = noisyHost(calibStart, calibEnd)
	rec.Samples = len(res.latencyMS)
	rec.Quartiles = [3]float64{quantile(res.latencyMS, 0.25), median(res.latencyMS), quantile(res.latencyMS, 0.75)}
	rec.Latencies = res.latencyMS
	rec.RefTime = res.refMS
	rec.Reference = e.ref.samples
	rec.Inputs, rec.Counts = e.inputs, e.counts

	if !cfg.trace {
		values := map[string]float64{
			"setup_s":     median(setupS),
			"op_p50_ms":   median(res.refMS),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
		return rec, nil
	}

	for name, xs := range e.layer {
		layerRows[name] = median(xs)
	}
	layerRows["host.calib_s_start"] = calibStart.Seconds()
	layerRows["host.calib_s_end"] = calibEnd.Seconds()
	layerRows["host.ref_ms"] = median(e.ref.samples)
	layerRows["host.setup_wall_s"] = median(setupWallS)
	layerRows["host.op_p50_wall_ms"] = median(res.latencyMS)
	layerRows["trace.explained_frac"] = e.rec.explainedFrac()
	layerRows["trace.ops_per_s"] = float64(len(res.latencyMS)) / res.wall.Seconds()
	layerRows["trace.op_p75_ms"] = quantile(res.latencyMS, 0.75)
	layerRows["trace.op_p95_ms"] = quantile(res.latencyMS, 0.95)
	if len(res.tracedMS) > 0 && len(res.untracedMS) > 0 {
		layerRows["obs.trace_overhead_frac"] = median(res.tracedMS)/median(res.untracedMS) - 1
	}
	for _, d := range perLayer {
		rec.Metrics[d.Name] = metric{Value: layerRows[d.Name], Unit: d.Unit}
	}
	for name := range layerRows {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer row %q is not in the metric table", name)
		}
	}
	if err := e.rec.writeChrome(filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	return rec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printRecord writes the human-readable report and, last, the one-line JSON
// result the driver reads.
func printRecord(w io.Writer, rec *record) error {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  quick=%v\n", rec.Workload, rec.Seed, mode, rec.Quick)
	for _, k := range sortedKeys(rec.Inputs) {
		fmt.Fprintf(w, "  input  %-34s %d\n", k, rec.Inputs[k])
	}
	for _, k := range sortedKeys(rec.Counts) {
		fmt.Fprintf(w, "  count  %-34s %d\n", k, rec.Counts[k])
	}
	for _, k := range sortedKeys(rec.Phases) {
		p := rec.Phases[k]
		fmt.Fprintf(w, "  phase  %-34s attempted %d succeeded %d failed %d\n", k, p.Attempted, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "  latency samples %d  wall-clock quartiles %.3f / %.3f / %.3f ms\n",
		rec.Samples, rec.Quartiles[0], rec.Quartiles[1], rec.Quartiles[2])
	fmt.Fprintf(w, "  reference kernel  quartiles %.3f / %.3f / %.3f ms (nominal %.3f)\n",
		quantile(rec.Reference, 0.25), median(rec.Reference), quantile(rec.Reference, 0.75), ms(referenceNominal))
	for _, k := range sortedKeys(rec.Metrics) {
		fmt.Fprintf(w, "  metric %-34s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	if rec.Noisy {
		fmt.Fprintln(w, "  NOISY: the reference kernel changed speed by more than 15 % during this run")
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	m := rec.Phases["measure"]
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, m.Attempted, m.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, sweeps int
	var out string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same graphs")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "length of the measure phase of one run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "graphs about 1/16 the size, one sweep, brute-force cross-check")
	fs.IntVar(&sweeps, "sweeps", 3, "with no -workload: untraced runs per workload, round-robin")
	fs.StringVar(&out, "out", "", "write the run records as JSON to this file (input of compare)")
	fs.StringVar(&cfg.dir, "dir", filepath.Join("benchmark", "out"), "directory for scratch graph files and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg.trace = trace != 0
	if cfg.workload == "" {
		return runAll(cfg, sweeps, out, stdout, stderr)
	}
	rec, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if out != "" {
		if err := writeRecords(out, []*record{rec}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
