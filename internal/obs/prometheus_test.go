package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("sim.cycles", 100)
	r.Add("sim.breakdown.c_map_probe", 40)
	r.Add("cpu.count.0", 7)
	end := r.StartPhase("mine")
	end()
	r.StartPhase("open-phase") // never closed: must not be exposed

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "flexminer"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Counters are emitted sorted and dot-sanitized under the namespace.
	wantOrder := []string{
		"flexminer_cpu_count_0 7",
		"flexminer_sim_breakdown_c_map_probe 40",
		"flexminer_sim_cycles 100",
		`flexminer_phase_duration_ticks{phase="mine"}`,
	}
	pos := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
		if i < pos {
			t.Errorf("%q out of order in:\n%s", want, out)
		}
		pos = i
	}
	if strings.Contains(out, "open-phase") {
		t.Errorf("open phase exposed:\n%s", out)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2, "flexminer"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

func TestWritePrometheusTypedFamilies(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("jobs.completed", 3)
	r.SetHelp("jobs.completed", "jobs that reached done")
	r.Add("sim.cycles", 9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "flexminer"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every counter is its own family: HELP (custom text when set, generated
	// otherwise) immediately followed by TYPE counter and the sample.
	wantBlocks := []string{
		"# HELP flexminer_jobs_completed jobs that reached done\n# TYPE flexminer_jobs_completed counter\nflexminer_jobs_completed 3\n",
		"# TYPE flexminer_sim_cycles counter\nflexminer_sim_cycles 9\n",
	}
	for _, want := range wantBlocks {
		if !strings.Contains(out, want) {
			t.Errorf("missing block %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "untyped") {
		t.Errorf("untyped family survived:\n%s", out)
	}
}

func TestWritePrometheusLabeledCounter(t *testing.T) {
	r := NewRegistry(nil)
	lc := r.LabeledCounter("jobs.submitted", "jobs accepted by Submit", "tenant", 4)
	lc.Add("beta", 2)
	lc.Add("alpha", 5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "flexminer"); err != nil {
		t.Fatal(err)
	}
	want := "# HELP flexminer_jobs_submitted jobs accepted by Submit\n" +
		"# TYPE flexminer_jobs_submitted counter\n" +
		"flexminer_jobs_submitted{tenant=\"alpha\"} 5\n" +
		"flexminer_jobs_submitted{tenant=\"beta\"} 2\n"
	if got := buf.String(); got != want {
		t.Errorf("labeled counter exposition:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry(nil)
	h := r.LabeledHistogram("jobs.queue_wait_ms", "queue wait, ms", "tenant", 4)
	h.Observe("t0", 1) // bucket le=1
	h.Observe("t0", 3) // bucket le=4
	h.Observe("t0", 3) // bucket le=4

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "flexminer"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# TYPE flexminer_jobs_queue_wait_ms histogram",
		`flexminer_jobs_queue_wait_ms_bucket{tenant="t0",le="1"} 1`,
		`flexminer_jobs_queue_wait_ms_bucket{tenant="t0",le="2"} 1`,
		`flexminer_jobs_queue_wait_ms_bucket{tenant="t0",le="4"} 3`, // cumulative
		`flexminer_jobs_queue_wait_ms_bucket{tenant="t0",le="1048576"} 3`,
		`flexminer_jobs_queue_wait_ms_bucket{tenant="t0",le="+Inf"} 3`,
		`flexminer_jobs_queue_wait_ms_sum{tenant="t0"} 7`,
		`flexminer_jobs_queue_wait_ms_count{tenant="t0"} 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDefaultNamespace(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("x", 1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flexminer_x 1") {
		t.Errorf("default namespace not applied:\n%s", buf.String())
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry(nil).WritePrometheus(&buf, "ns"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry rendered %q", buf.String())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sim.c_map.hits":      "sim_c_map_hits",
		"fig14.TC.As.size.64": "fig14_TC_As_size_64",
		"weird-name/σ":        "weird_name__",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// failWriter errors after n bytes, exercising the exposition's error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWritePrometheusPropagatesWriteErrors(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("a", 1)
	end := r.StartPhase("p")
	end()
	for _, budget := range []int{0, 60, 120} {
		if err := r.WritePrometheus(&failWriter{n: budget}, "ns"); err == nil {
			t.Errorf("budget %d: write error swallowed", budget)
		}
	}
}
