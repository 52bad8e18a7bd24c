package jobs

// Observability tests for the job service: byte-equal double-run goldens for
// the metrics JSON (histograms + labeled counters) and the event-log NDJSON
// under the virtual clock, the "instrumentation is inert" metamorphic suite,
// the /debug/jobs document, and the Status timestamp surface. Regenerate the
// goldens with:
//
//	go test ./internal/jobs -run JobObservabilityGolden -update
//
// after any deliberate change to the instrumentation points, the histogram
// layout, or the event-log schema.

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden observability artifacts")

// obsScenario runs the canonical observability workload — five jobs from
// three tenants, two of which (the 4-path twins) share one engine run, the
// other three each dispatching alone — on a paused server with deterministic
// clocks. A one-thread budget runs the four batches one after the other, so
// the clock reads come in one order on any host. The caller owns closing the
// returned server.
func obsScenario(t *testing.T, g graph.Store, tracer *obs.Tracer, elog *obs.EventLog) (*Server, *obs.Registry, []string) {
	t.Helper()
	reg := obs.NewRegistry(obs.NewVirtualClock())
	s := New(Config{
		Registry:    reg,
		Clock:       obs.NewVirtualClock(),
		Tracer:      tracer,
		EventLog:    elog,
		Graphs:      map[string]graph.Store{"g": g},
		StartPaused: true,
	})
	setThreads(s, 1)
	opts := EngineOptions{Workers: 1}
	var ids []string
	ids = append(ids, submitNamed(t, s, "alpha", "g", "4-path", opts))
	ids = append(ids, submitNamed(t, s, "beta", "g", "4-star", opts))
	ids = append(ids, submitNamed(t, s, "alpha", "g", "4-path", opts)) // job-1's twin: shares its run
	ids = append(ids, submitNamed(t, s, "gamma", "g", "diamond", opts))
	ids = append(ids, submitNamed(t, s, "beta", "g", "triangle", opts))
	s.Resume()
	for _, id := range ids {
		waitDone(t, s, id)
	}
	return s, reg, ids
}

func TestJobObservabilityGolden(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	run := func() (metrics, events, trace []byte) {
		tracer := obs.NewTracer(nil, 0)
		elog := obs.NewEventLog(0)
		s, reg, _ := obsScenario(t, g, tracer, elog)
		closeServer(t, s)
		var mb, eb, tb bytes.Buffer
		if err := reg.WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if err := elog.WriteNDJSON(&eb); err != nil {
			t.Fatal(err)
		}
		if err := tracer.WriteChromeJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return mb.Bytes(), eb.Bytes(), tb.Bytes()
	}
	m1, e1, tr1 := run()
	m2, e2, tr2 := run()
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs across identical runs")
	}
	if !bytes.Equal(e1, e2) {
		t.Error("event-log NDJSON differs across identical runs")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("lifecycle trace differs across identical runs")
	}

	// The trace carries the full span vocabulary plus the flow endpoints
	// linking batched jobs to their shared engine run.
	for _, want := range []string{`"queued"`, `"compiling"`, `"running"`, `"engine-run"`, `"batched-into"`, `"ph": "s"`, `"ph": "f"`} {
		if !bytes.Contains(tr1, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}

	goldens := []struct {
		name string
		got  []byte
	}{
		{"observability.metrics.json", m1},
		{"observability.events.ndjson", e1},
	}
	for _, gf := range goldens {
		path := filepath.Join("testdata", "golden", gf.name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, gf.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
		}
		if !bytes.Equal(gf.got, want) {
			t.Errorf("%s drifted from golden (%d vs %d bytes); rerun with -update and review the diff",
				gf.name, len(gf.got), len(want))
		}
	}
}

// The committed metrics golden must drive the `experiments report` renderer:
// per-tenant p50/p95/p99 latency tables and labeled-counter shares — the
// acceptance surface of the observability layer.
func TestReportRendersCommittedGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden", "observability.metrics.json"))
	if err != nil {
		t.Fatalf("missing golden (run TestJobObservabilityGolden with -update): %v", err)
	}
	defer f.Close()
	m, err := obs.ReadMetricsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.RenderReport(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Histogram: jobs.queue_wait_ms",
		"## Histogram: jobs.run_ms",
		"| tenant | count | mean | p50 | p95 | p99 |",
		"## Labeled counter: jobs.submitted",
		"## Labeled counter: jobs.finished",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
}

// TestInstrumentationInert is the metamorphic acceptance suite: per-job
// counts and the whole-batch engine statistics must be identical with every
// new instrumentation surface enabled vs all of it disabled.
func TestInstrumentationInert(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	run := func(instrumented bool) []Result {
		var tracer *obs.Tracer
		var elog *obs.EventLog
		if instrumented {
			tracer = obs.NewTracer(nil, 0)
			elog = obs.NewEventLog(0)
		}
		s, _, ids := obsScenario(t, g, tracer, elog)
		defer closeServer(t, s)
		out := make([]Result, 0, len(ids))
		for _, id := range ids {
			res, err := s.Result(id)
			if err != nil || res == nil {
				t.Fatalf("result %s: %v, %v", id, res, err)
			}
			out = append(out, *res)
		}
		return out
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("instrumentation changed results:\n on: %+v\noff: %+v", on, off)
	}
	for i, r := range on {
		if r.Count <= 0 {
			t.Errorf("job %d counted %d patterns, want > 0", i, r.Count)
		}
	}
}

func TestDebugJobsEndpoint(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	elog := obs.NewEventLog(0)
	s, reg, ids := obsScenario(t, g, nil, elog)
	defer closeServer(t, s)

	mux := http.NewServeMux()
	s.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc DebugDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 3 {
		t.Fatalf("tenants = %v, want alpha/beta/gamma", doc.Tenants)
	}
	alpha := doc.Tenants["alpha"]
	if alpha.Submitted != 2 || alpha.Done != 2 {
		t.Errorf("alpha summary %+v, want submitted=2 done=2", alpha)
	}
	if alpha.QueueWaitP50 <= 0 || alpha.RunP50 <= 0 {
		t.Errorf("alpha percentiles unset: %+v", alpha)
	}
	// Every transition of every job is in the tail: 5 submits + per-job
	// compiling/running/done.
	if len(doc.Events) != 4*len(ids) {
		t.Errorf("event tail has %d records, want %d", len(doc.Events), 4*len(ids))
	}
	if doc.EventsDropped != 0 {
		t.Errorf("dropped = %d, want 0", doc.EventsDropped)
	}
	terminal := doc.Events[len(doc.Events)-1]
	if terminal.State != string(StateDone) || terminal.Fields["matches"] < 0 || terminal.Batch == "" {
		t.Errorf("terminal record malformed: %+v", terminal)
	}

	// The per-tenant metric families carry the same totals.
	if v := reg.Get(MetricQueued); v != int64(len(ids)) {
		t.Errorf("%s = %d, want %d", MetricQueued, v, len(ids))
	}
	var mdoc struct {
		LabeledCounters map[string]obs.LabeledCounterSnapshot `json:"labeled_counters"`
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &mdoc); err != nil {
		t.Fatal(err)
	}
	sub := mdoc.LabeledCounters[MetricSubmitted].Values
	if sub["alpha"] != 2 || sub["beta"] != 2 || sub["gamma"] != 1 {
		t.Errorf("%s values = %v", MetricSubmitted, sub)
	}
}

func TestStatusTimestamps(t *testing.T) {
	g := graph.ChungLu(120, 600, 2.3, 5)
	s := New(Config{
		Clock:       obs.NewVirtualClock(),
		Graphs:      map[string]graph.Store{"g": g},
		StartPaused: true,
	})
	defer closeServer(t, s)

	done := submitNamed(t, s, "alice", "g", "triangle", EngineOptions{Workers: 1})
	victim := submitNamed(t, s, "bob", "g", "4-path", EngineOptions{Workers: 1})

	// Cancelled while queued: its whole life is queue wait, no run time.
	if _, err := s.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	vs := waitDone(t, s, victim)
	if vs.State != StateCancelled {
		t.Fatalf("victim state %s, want cancelled", vs.State)
	}
	if vs.SubmittedAt <= 0 || vs.FinishedAt <= vs.SubmittedAt {
		t.Errorf("victim timestamps: %+v", vs)
	}
	if vs.QueueWaitMS != vs.FinishedAt-vs.SubmittedAt || vs.RunMS != 0 || vs.StartedAt != 0 {
		t.Errorf("victim derived intervals wrong: %+v", vs)
	}

	s.Resume()
	st := waitDone(t, s, done)
	if st.State != StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	if !(st.SubmittedAt > 0 && st.StartedAt > st.SubmittedAt && st.FinishedAt > st.StartedAt) {
		t.Errorf("timestamps not ordered: %+v", st)
	}
	if st.QueueWaitMS <= 0 || st.QueueWaitMS >= st.StartedAt-st.SubmittedAt+1 {
		t.Errorf("queue wait %d out of range: %+v", st.QueueWaitMS, st)
	}
	if st.RunMS != st.FinishedAt-st.StartedAt {
		t.Errorf("run_ms %d != finished-started: %+v", st.RunMS, st)
	}
}
