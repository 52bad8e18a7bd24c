package jobs

// The -race httptest lifecycle suite: the job API end to end over real HTTP —
// concurrent multi-tenant submits with poll-until-done, queue-full
// rejection, cancellation, error statuses, and the admin pause/resume
// endpoints — layered on the serve mux so /metrics integration is exercised
// too.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry(nil)
	}
	s := New(cfg)
	mux := serve.NewMux(cfg.Registry, nil, "flexminer")
	s.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		closeServer(t, s)
	})
	return s, ts
}

func httpJSON(t *testing.T, method, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, url, data)
		}
	}
	return resp.StatusCode, doc
}

// scrapeMetrics returns the body of GET /metrics.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func jsonStr(t *testing.T, doc map[string]json.RawMessage, key string) string {
	t.Helper()
	var s string
	if raw, ok := doc[key]; ok {
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("field %q: %v", key, err)
		}
	}
	return s
}

func submitHTTP(t *testing.T, base, tenant, graphName, patName string, workers int) string {
	t.Helper()
	code, doc := httpJSON(t, "POST", base+"/jobs", map[string]any{
		"tenant":  tenant,
		"graph":   map[string]any{"name": graphName},
		"pattern": map[string]any{"name": patName},
		"options": map[string]any{"workers": workers},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, jsonStr(t, doc, "error"))
	}
	id := jsonStr(t, doc, "id")
	if id == "" {
		t.Fatal("submit returned no job ID")
	}
	return id
}

func pollUntilTerminal(t *testing.T, base, id string) (State, map[string]json.RawMessage) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, doc := httpJSON(t, "GET", base+"/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		st := State(jsonStr(t, doc, "state"))
		if st.Terminal() {
			return st, doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return "", nil
}

func TestHTTPSubmitPollResult(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	reg := obs.NewRegistry(nil)
	_, ts := newHTTPServer(t, Config{Registry: reg, Graphs: map[string]graph.Store{"default": g}})

	id := submitHTTP(t, ts.URL, "alice", "default", "triangle", 2)
	st, _ := pollUntilTerminal(t, ts.URL, id)
	if st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	code, doc := httpJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	var count int64
	if err := json.Unmarshal(doc["count"], &count); err != nil || count <= 0 {
		t.Fatalf("result count %s: %v", doc["count"], err)
	}
	if want := solo(t, g, "triangle"); count != want {
		t.Fatalf("HTTP count %d != engine count %d", count, want)
	}

	// The jobs.* counters surface on /metrics through the shared registry.
	body := scrapeMetrics(t, ts)
	for _, metric := range []string{"flexminer_jobs_queued 1", "flexminer_jobs_completed 1"} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %q:\n%s", metric, body)
		}
	}
}

// TestHTTPConcurrentTenants hammers the API from many tenants at once — the
// -race headline. Every job must complete with the same correct count.
func TestHTTPConcurrentTenants(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 8)
	_, ts := newHTTPServer(t, Config{
		Graphs:   map[string]graph.Store{"default": g},
		MaxQueue: 256,
	})
	want := solo(t, g, "triangle")

	const tenants, perTenant = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for tn := 0; tn < tenants; tn++ {
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				code, doc := httpJSON(t, "POST", ts.URL+"/jobs", map[string]any{
					"tenant":  tenant,
					"graph":   map[string]any{"name": "default"},
					"pattern": map[string]any{"name": "triangle"},
					"options": map[string]any{"workers": 2},
				})
				if code != http.StatusAccepted {
					errs <- fmt.Errorf("tenant %s: submit status %d", tenant, code)
					return
				}
				id := jsonStr(t, doc, "id")
				st, _ := pollUntilTerminal(t, ts.URL, id)
				if st != StateDone {
					errs <- fmt.Errorf("tenant %s job %s: state %s", tenant, id, st)
					return
				}
				rcode, rdoc := httpJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
				if rcode != http.StatusOK {
					errs <- fmt.Errorf("tenant %s job %s: result status %d", tenant, id, rcode)
					return
				}
				var count int64
				if err := json.Unmarshal(rdoc["count"], &count); err != nil || count != want {
					errs <- fmt.Errorf("tenant %s job %s: count %d, want %d", tenant, id, count, want)
				}
			}(fmt.Sprintf("tenant-%d", tn))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHTTPQueueFullRejection(t *testing.T) {
	g := graph.ChungLu(100, 500, 2.3, 2)
	reg := obs.NewRegistry(nil)
	_, ts := newHTTPServer(t, Config{
		Registry:    reg,
		Graphs:      map[string]graph.Store{"default": g},
		MaxQueue:    2,
		StartPaused: true,
	})
	for i := 0; i < 2; i++ {
		submitHTTP(t, ts.URL, "A", "default", "triangle", 1)
	}
	code, doc := httpJSON(t, "POST", ts.URL+"/jobs", map[string]any{
		"graph":   map[string]any{"name": "default"},
		"pattern": map[string]any{"name": "triangle"},
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit beyond bound: status %d (%s), want 429", code, jsonStr(t, doc, "error"))
	}
	if v := reg.Get(MetricRejectedQueueFull); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricRejectedQueueFull, v)
	}
}

// runningHouseJob submits a job heavy enough (≈ 1.6 s single-thread on a 2-vCPU
// Xeon) to still be running when the caller looks, and returns once it is.
func runningHouseJob(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	g := graph.ChungLu(4000, 100000, 2.3, 13)
	running := make(chan string, 4)
	_, ts := newHTTPServer(t, Config{
		Graphs: map[string]graph.Store{"default": g},
		OnTransition: func(id string, st State) {
			if st == StateRunning {
				running <- id
			}
		},
	})
	code, doc := httpJSON(t, "POST", ts.URL+"/jobs", map[string]any{
		"graph":   map[string]any{"name": "default"},
		"pattern": map[string]any{"name": "house"},
		"options": map[string]any{"workers": 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started running")
	}
	return ts, jsonStr(t, doc, "id")
}

// TestHTTPProgressKeySet pins the live surface of a running job: its
// "progress" object has exactly these keys, and /metrics has no scheduler
// family — the scheduler has no event besides a task retiring.
func TestHTTPProgressKeySet(t *testing.T) {
	ts, id := runningHouseJob(t)
	code, doc := httpJSON(t, "GET", ts.URL+"/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("poll: status %d", code)
	}
	var progress map[string]json.RawMessage
	if err := json.Unmarshal(doc["progress"], &progress); err != nil {
		t.Fatalf("running job has no progress object: %v in %s", err, doc["progress"])
	}
	keys := slices.Sorted(maps.Keys(progress))
	want := []string{"partial_matches", "running", "runs_completed", "tasks", "tasks_done"}
	if !slices.Equal(keys, want) {
		t.Errorf("progress keys = %v, want %v", keys, want)
	}
	if metrics := scrapeMetrics(t, ts); !strings.Contains(metrics, "flexminer_jobs_") || strings.Contains(metrics, "sched_") {
		t.Errorf("/metrics must carry the jobs families and no sched_ family:\n%s", metrics)
	}
	if ccode, _ := httpJSON(t, "POST", ts.URL+"/jobs/"+id+"/cancel", nil); ccode != http.StatusOK {
		t.Fatalf("cancel: status %d", ccode)
	}
	pollUntilTerminal(t, ts.URL, id)
}

func TestHTTPCancelMidRun(t *testing.T) {
	ts, id := runningHouseJob(t)
	ccode, _ := httpJSON(t, "POST", ts.URL+"/jobs/"+id+"/cancel", nil)
	if ccode != http.StatusOK {
		t.Fatalf("cancel: status %d", ccode)
	}
	st, _ := pollUntilTerminal(t, ts.URL, id)
	if st != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", st)
	}
	rcode, rdoc := httpJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if rcode != http.StatusOK {
		t.Fatalf("result after mid-run cancel: status %d, want 200 with partial result", rcode)
	}
	var partial bool
	if err := json.Unmarshal(rdoc["partial"], &partial); err != nil || !partial {
		t.Fatalf("partial = %s, want true", rdoc["partial"])
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	g := graph.ChungLu(100, 500, 2.3, 2)
	_, ts := newHTTPServer(t, Config{Graphs: map[string]graph.Store{"default": g}, StartPaused: true})

	// Unknown job: 404 on status, result, cancel.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/jobs/job-999"},
		{"GET", "/jobs/job-999/result"},
		{"POST", "/jobs/job-999/cancel"},
	} {
		code, _ := httpJSON(t, probe.method, ts.URL+probe.path, nil)
		if code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, code)
		}
	}
	// Malformed submit, a retired kernel policy, a retired option: 400.
	for _, body := range []string{
		"{not json",
		`{"graph":{"name":"default"},"pattern":{"name":"triangle"},"options":{"kernel":"bitmap"}}`,
		`{"graph":{"name":"default"},"pattern":{"name":"triangle"},"options":{"aux":"auto"}}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Result of a pending job: 409.
	id := submitHTTP(t, ts.URL, "A", "default", "triangle", 1)
	code, _ := httpJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != http.StatusConflict {
		t.Errorf("result of queued job: status %d, want 409", code)
	}
	// Cancel it (queued → no result document): result then returns 410.
	httpJSON(t, "POST", ts.URL+"/jobs/"+id+"/cancel", nil)
	code, _ = httpJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != http.StatusGone {
		t.Errorf("result of queued-cancelled job: status %d, want 410", code)
	}
}

func TestHTTPPauseResumeAndList(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	_, ts := newHTTPServer(t, Config{Graphs: map[string]graph.Store{"default": g}})

	code, _ := httpJSON(t, "POST", ts.URL+"/jobs/queue/pause", nil)
	if code != http.StatusOK {
		t.Fatalf("pause: %d", code)
	}
	id := submitHTTP(t, ts.URL, "A", "default", "wedge", 1)
	// Paused: the job must still be queued after a grace period.
	time.Sleep(50 * time.Millisecond)
	_, doc := httpJSON(t, "GET", ts.URL+"/jobs/"+id, nil)
	if st := State(jsonStr(t, doc, "state")); st != StateQueued {
		t.Fatalf("state while paused = %s, want queued", st)
	}
	code, _ = httpJSON(t, "POST", ts.URL+"/jobs/queue/resume", nil)
	if code != http.StatusOK {
		t.Fatalf("resume: %d", code)
	}
	if st, _ := pollUntilTerminal(t, ts.URL, id); st != StateDone {
		t.Fatalf("state after resume = %s, want done", st)
	}

	lcode, ldoc := httpJSON(t, "GET", ts.URL+"/jobs", nil)
	if lcode != http.StatusOK {
		t.Fatalf("list: %d", lcode)
	}
	var jobsList []Status
	if err := json.Unmarshal(ldoc["jobs"], &jobsList); err != nil || len(jobsList) != 1 {
		t.Fatalf("list: %s (%v)", ldoc["jobs"], err)
	}
}

// TestHTTPRetentionRing: the job table keeps the most recent `retain` finished
// jobs and nothing older, so a faster engine is not billed for the jobs it
// finishes. Submitting in waves shorter than the queue bound, with the ring
// lowered to 8: after every wave the table holds at most ring + in-flight
// jobs; at the end the newest 8 answer 200 on status and result, everything
// older answers 410 on both (and on cancel), a never-issued id still answers
// 404, and the listing shows the retained jobs only.
func TestHTTPRetentionRing(t *testing.T) {
	const ring = 8
	g := graph.ChungLu(100, 500, 2.3, 2)
	s, ts := newHTTPServer(t, Config{Graphs: map[string]graph.Store{"default": g}})
	s.mu.Lock()
	s.retain = ring
	s.mu.Unlock()

	var ids []string
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < ring; i++ {
			ids = append(ids, submitHTTP(t, ts.URL, fmt.Sprintf("t%d", i%2), "default", "triangle", 1))
			s.mu.Lock()
			table, inflight := len(s.jobs), len(s.jobs)-s.terminal
			s.mu.Unlock()
			if table > ring+inflight {
				t.Fatalf("job table holds %d jobs with %d in flight, ring is %d", table, inflight, ring)
			}
		}
		for _, id := range ids[len(ids)-ring:] {
			if err := s.Wait(context.Background(), id); err != nil { // the newest `ring` are never evicted
				t.Fatalf("waiting for %s: %v", id, err)
			}
		}
	}
	s.mu.Lock()
	table, order := len(s.jobs), len(s.order)
	s.mu.Unlock()
	if table != ring || order != ring {
		t.Fatalf("after drain: %d jobs in the table, %d in the listing order, want %d", table, order, ring)
	}

	want := func(id, suffix, method string, status int) {
		t.Helper()
		if code, _ := httpJSON(t, method, ts.URL+"/jobs/"+id+suffix, nil); code != status {
			t.Errorf("%s /jobs/%s%s: status %d, want %d", method, id, suffix, code, status)
		}
	}
	for i, id := range ids {
		status := http.StatusGone
		if i >= len(ids)-ring {
			status = http.StatusOK
		}
		want(id, "", "GET", status)
		want(id, "/result", "GET", status)
	}
	want(ids[0], "/cancel", "POST", http.StatusGone)
	want("job-999", "", "GET", http.StatusNotFound)
	for _, id := range []string{"job-01", "job-0", "job--1", "job-1x"} { // not ids the server ever issued
		want(id, "", "GET", http.StatusNotFound)
	}

	_, doc := httpJSON(t, "GET", ts.URL+"/jobs", nil)
	var listed []Status
	if err := json.Unmarshal(doc["jobs"], &listed); err != nil || len(listed) != ring {
		t.Fatalf("list: %d jobs (%v), want %d", len(listed), err, ring)
	}
	for i, st := range listed {
		if st.ID != ids[len(ids)-ring+i] {
			t.Errorf("list[%d] = %s, want %s", i, st.ID, ids[len(ids)-ring+i])
		}
	}
}
