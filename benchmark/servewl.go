package main

// The two job-service workloads. The service is wired exactly as
// cmd/flexminer/serve.go wires it — serve.NewMux + jobs.New with the default
// Config + Routes, event log on, tracer nil, served by serve.ListenAndServe
// with the job server's Close as drainer — on a loopback listener, and is
// driven over HTTP by two tenants with one connection each.
//
// Both are closed loops, because a tenant submits and then waits for its own
// results. serve_small keeps one job per tenant in flight, and its operation
// is the job: POST sent → result fetched. serve_burst posts eight per tenant
// behind a round barrier, which is what builds a queue, and its operation is
// the burst: first POST sent → last result fetched. (The job latencies of a
// burst fall into two groups, one per batch, and their median jumps between
// the groups from run to run; they are reported as per-layer rows.)

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/serve"
)

const (
	tenants      = 2
	pollEvery    = 2 * time.Millisecond
	jobDeadline  = 30 * time.Second
	graphName    = "g"
	smallChunk   = 16 // serve_small: jobs per tenant in a round
	scrapeEvery  = 200 * time.Millisecond
	healthzCalls = 50
)

var (
	smallCatalog = []string{"triangle", "diamond", "tailed-triangle", "4-clique"}
	burstCatalog = []string{"diamond", "tailed-triangle", "4-cycle", "4-clique", "4-star", "4-path", "triangle", "wedge"}
)

// stamp is one job state change seen through jobs.Config.OnTransition.
type stamp struct {
	state jobs.State
	at    time.Time
}

// jobSample is what the client learned about one finished job.
type jobSample struct {
	latency     time.Duration
	submit      time.Duration
	polls       int
	pollTime    time.Duration
	queueWaitMS float64
	runMS       float64
	compileMS   float64 // compiling → running, traced jobs only
	hasCompile  bool
	width       int
}

type service struct {
	e       *env
	burst   bool
	g       *graph.Graph
	catalog []string
	want    map[string]int64 // pattern name → count, fixed by the warm-up jobs

	base    string
	stop    context.CancelFunc
	served  chan error // serve.ListenAndServe's return
	clients [tenants]*http.Client

	tmu   sync.Mutex
	trans map[string][]stamp // job id → transitions, traced jobs only

	// Filled by measure.
	samples  []jobSample
	rejected int
	scrapeMS []float64
}

func setupServeSmall(e *env) (instance, error) {
	return setupService(e, e.generate(serveSmallShape), smallCatalog, false)
}

func setupServeBurst(e *env) (instance, error) {
	return setupService(e, e.generate(serveBurstShape), burstCatalog, true)
}

func setupService(e *env, g *graph.Graph, catalog []string, burst bool) (instance, error) {
	s := &service{e: e, burst: burst, g: g, catalog: catalog, want: map[string]int64{}, trans: map[string][]stamp{}}
	e.describe(g)

	reg := obs.NewRegistry(nil)
	var prog serve.Progress
	mux := serve.NewMux(reg, &prog, "flexminer")
	cfg := jobs.Config{
		Registry: reg,
		Graphs:   map[string]graph.Store{graphName: g},
		EventLog: obs.NewEventLog(0),
	}
	if e.rec != nil {
		cfg.OnTransition = func(id string, st jobs.State) {
			if !e.rec.on.Load() {
				return
			}
			now := time.Now()
			s.tmu.Lock()
			s.trans[id] = append(s.trans[id], stamp{st, now})
			s.tmu.Unlock()
		}
	}
	js := jobs.New(cfg)
	js.Routes(mux)

	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.served = make(chan error, 1)
	ready := make(chan string, 1)
	go func() {
		s.served <- serve.ListenAndServe(ctx, "127.0.0.1:0", mux, func(bound string) { ready <- bound }, js.Close)
	}()
	select {
	case bound := <-ready:
		s.base = "http://" + bound
	case err := <-s.served:
		cancel()
		return nil, fmt.Errorf("serve.ListenAndServe: %w", err)
	}
	for t := range s.clients {
		s.clients[t] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   jobDeadline,
		}
	}

	// Warm-up: every pattern once per tenant, unrecorded. The first answer for
	// a pattern fixes the count every later job must return.
	for t := 0; t < tenants; t++ {
		for _, p := range catalog {
			j := s.submit(t, p, -1)
			for j.err == nil && !j.finished {
				time.Sleep(pollEvery)
				s.poll(t, j)
			}
			if j.err != nil {
				s.close() //nolint:errcheck // the warm-up error is the one to report
				return nil, fmt.Errorf("warm-up job %s: %w", p, j.err)
			}
			if w, ok := s.want[p]; ok && w != j.count {
				s.close() //nolint:errcheck // as above
				return nil, fmt.Errorf("warm-up job %s: count %d, then %d", p, w, j.count)
			}
			s.want[p] = j.count
			e.counts["job."+p] = j.count
		}
	}
	return s, nil
}

// verify checks every job count against a one-shot core.Mine of the pattern.
func (s *service) verify() error {
	for _, name := range s.catalog {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			return err
		}
		res, err := core.Mine(s.g, pl, engineOptions())
		if err != nil {
			return err
		}
		if res.Count() != s.want[name] {
			return fmt.Errorf("job %s returned %d, one-shot core.Mine %d", name, s.want[name], res.Count())
		}
		if s.e.quick && s.g.NumVertices() <= 128 {
			if brute := core.BruteCount(s.g, p, false); brute != res.Count() {
				return fmt.Errorf("%s: engine %d, brute force %d", name, res.Count(), brute)
			}
		}
	}
	return nil
}

// job is one job in flight on the client side.
type job struct {
	pattern  string
	op       int // recorder operation, -1 = unrecorded
	id       string
	start    time.Time // POST sent
	posted   time.Time // POST answered
	seen     time.Time // terminal state first observed
	end      time.Time // result fetched
	polls    int
	pollTime time.Duration
	status   jobs.Status
	count    int64
	finished bool
	err      error
	refused  bool // 429
}

// do performs one request on tenant t's connection and decodes a 2xx JSON
// answer into out.
func (s *service) do(t int, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.clients[t].Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// submit POSTs one job for tenant t.
func (s *service) submit(t int, pat string, op int) *job {
	j := &job{pattern: pat, op: op}
	body, err := json.Marshal(jobs.SubmitRequest{
		Tenant:  fmt.Sprintf("tenant-%d", t),
		Graph:   jobs.GraphRef{Name: graphName},
		Pattern: jobs.PatternRef{Name: pat},
		Options: jobs.EngineOptions{Workers: 1}, // see workload.procs
	})
	if err != nil {
		j.err = err
		return j
	}
	var ack struct{ ID string }
	j.start = time.Now()
	code, err := s.do(t, http.MethodPost, "/jobs", body, &ack)
	j.posted = time.Now()
	j.id, j.err, j.refused = ack.ID, err, code == http.StatusTooManyRequests
	return j
}

// poll asks for j's status once and, when it is terminal, fetches the result.
func (s *service) poll(t int, j *job) {
	t0 := time.Now()
	_, err := s.do(t, http.MethodGet, "/jobs/"+j.id, nil, &j.status)
	j.polls++
	j.pollTime += time.Since(t0)
	switch {
	case err != nil:
		j.err = err
	case !j.status.State.Terminal():
		if time.Since(j.start) > jobDeadline {
			j.err = fmt.Errorf("job %s still %s after %v", j.id, j.status.State, jobDeadline)
		}
	case j.status.State != jobs.StateDone:
		j.err = fmt.Errorf("job %s ended %s: %s", j.id, j.status.State, j.status.Error)
	default:
		j.seen = time.Now()
		var r jobs.Result
		if _, j.err = s.do(t, http.MethodGet, "/jobs/"+j.id+"/result", nil, &r); j.err == nil {
			j.end = time.Now()
			j.count, j.finished = r.Count, true
		}
	}
}

// account books a finished or failed job into out and, for a recorded job,
// adds its spans: the client's own calls plus the server-side intervals
// between the transitions OnTransition reported.
func (s *service) account(j *job, out *tenantResult) error {
	rec := s.e.rec
	rec.end(j.op)
	if j.err == nil && j.count != s.want[j.pattern] {
		j.err = fmt.Errorf("job %s (%s) returned %d, want %d", j.id, j.pattern, j.count, s.want[j.pattern])
	}
	if j.err != nil {
		if j.refused {
			out.rejected++
		}
		return j.err
	}
	latency := j.end.Sub(j.start)
	sample := jobSample{
		latency: latency, submit: j.posted.Sub(j.start), polls: j.polls, pollTime: j.pollTime,
		queueWaitMS: float64(j.status.QueueWaitMS), runMS: float64(j.status.RunMS), width: j.status.BatchWidth,
	}
	if j.op >= 0 {
		s.tmu.Lock()
		stamps := s.trans[j.id]
		delete(s.trans, j.id)
		s.tmu.Unlock()
		at := map[jobs.State]time.Time{}
		for _, st := range stamps {
			at[st.state] = st.at
		}
		queued, compiling, running, done := at[jobs.StateQueued], at[jobs.StateCompiling], at[jobs.StateRunning], at[jobs.StateDone]
		if done.IsZero() {
			// The client can poll the terminal state before the server gets
			// round to reporting it; the poll then bounds the run.
			done = j.seen
		}
		rec.add("client.submit", j.start, j.posted, j.op)
		if !queued.IsZero() && !compiling.IsZero() && !running.IsZero() {
			rec.add("jobs.queued", queued, compiling, j.op)
			rec.add("jobs.compile", compiling, running, j.op)
			rec.add("jobs.run", running, done, j.op)
			rec.add("client.poll_lag", done, j.seen, j.op)
			sample.compileMS, sample.hasCompile = ms(running.Sub(compiling)), true
		}
		rec.add("client.result", j.seen, j.end, j.op)
	}
	out.samples = append(out.samples, sample)
	return nil
}

// tenantResult is what one tenant goroutine produced in one round.
type tenantResult struct {
	res      result
	samples  []jobSample
	rejected int
}

// runSmall is one round of tenant t's closed loop with one job in flight:
// submit, poll every 2 ms until terminal, fetch the result, next pattern. It
// stops after smallChunk jobs or at the deadline.
func (s *service) runSmall(t int, next *int, deadline time.Time, out *tenantResult) {
	for n := 0; n < smallChunk && (n == 0 || time.Now().Before(deadline)); n++ {
		pat := s.catalog[(*next+t)%len(s.catalog)]
		*next++
		j := s.submit(t, pat, s.e.rec.begin("job"))
		for j.err == nil && !j.finished {
			s.poll(t, j)
			if !j.finished && j.err == nil {
				time.Sleep(pollEvery)
			}
		}
		if err := s.account(j, out); err != nil {
			out.res.fail("%v", err)
			continue
		}
		out.res.ok(j.end.Sub(j.start), j.op)
	}
}

// runBurst is one burst of tenant t, and one operation: every catalog pattern
// posted back to back, then all polled until terminal. Its latency runs from
// the first POST to the last result; one failed job fails the burst.
func (s *service) runBurst(t int, out *tenantResult) {
	first := time.Now()
	op := -1
	var failed error
	pending := make([]*job, 0, len(s.catalog))
	for _, pat := range s.catalog {
		j := s.submit(t, pat, s.e.rec.begin("job"))
		op = j.op
		if j.err != nil {
			failed = s.account(j, out)
			continue
		}
		pending = append(pending, j)
	}
	for len(pending) > 0 {
		rest := pending[:0]
		for _, j := range pending {
			s.poll(t, j)
			if !j.finished && j.err == nil {
				rest = append(rest, j)
			} else if err := s.account(j, out); err != nil {
				failed = err
			}
		}
		if pending = rest; len(pending) > 0 {
			time.Sleep(pollEvery)
		}
	}
	if failed != nil {
		out.res.fail("burst: %v", failed)
		return
	}
	out.res.ok(time.Since(first), op)
}

// scrape fetches /metrics every scrapeEvery until stop is closed — the cost
// of observing the service while it is loaded (traced runs only).
func (s *service) scrape(stop <-chan struct{}, done chan<- []float64) {
	client := &http.Client{Timeout: jobDeadline}
	defer client.CloseIdleConnections()
	var samples []float64
	for {
		select {
		case <-stop:
			done <- samples
			return
		case <-time.After(scrapeEvery):
		}
		t0 := time.Now()
		resp, err := client.Get(s.base + "/metrics")
		if err != nil {
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close() //nolint:errcheck // read-only body
		if err == nil && resp.StatusCode == http.StatusOK {
			samples = append(samples, ms(time.Since(t0)))
		}
	}
}

// measure runs rounds until the deadline. In a round the tenants run
// concurrently and the round ends when both are done: for serve_burst that
// barrier is part of the workload (without it the tenants drift in and out of
// phase and throughput turns bimodal); serve_small is cut into rounds of
// smallChunk jobs per tenant (about 0.4 s). Between rounds no job is in
// flight, which is when the reference kernel runs and a traced run switches
// the recorder.
func (s *service) measure(deadline time.Time, res *result) {
	traced := s.e.rec != nil
	var stopScrape chan struct{}
	var scraped chan []float64
	if traced {
		stopScrape, scraped = make(chan struct{}), make(chan []float64, 1)
		go s.scrape(stopScrape, scraped)
	}
	var next [tenants]int
	before := s.e.ref.run()
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		s.e.rec.alternate(round)
		var outs [tenants]tenantResult
		var wg sync.WaitGroup
		for t := 0; t < tenants; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				if s.burst {
					s.runBurst(t, &outs[t])
				} else {
					s.runSmall(t, &next[t], deadline, &outs[t])
				}
			}(t)
		}
		wg.Wait()
		after := s.e.ref.run()
		for t := range outs {
			o := &outs[t]
			res.merge(&o.res, before, after)
			s.samples = append(s.samples, o.samples...)
			s.rejected += o.rejected
		}
		before = after
	}
	if traced {
		close(stopScrape)
		s.scrapeMS = <-scraped
	}
}

func (s *service) layers(row map[string]float64) {
	var submit, poll, wait, run, compile, overhead, latency []float64
	var polls int
	var batches float64
	for _, j := range s.samples {
		submit = append(submit, ms(j.submit))
		if j.polls > 0 {
			poll = append(poll, ms(j.pollTime)/float64(j.polls))
		}
		polls += j.polls
		wait = append(wait, j.queueWaitMS)
		run = append(run, j.runMS)
		if j.hasCompile {
			compile = append(compile, j.compileMS)
		}
		overhead = append(overhead, ms(j.latency)-j.queueWaitMS-j.runMS)
		latency = append(latency, ms(j.latency))
		if j.width > 0 {
			batches += 1 / float64(j.width)
		}
	}
	row["serve.submit_ms"] = median(submit)
	row["serve.poll_ms"] = median(poll)
	row["serve.polls_per_job"] = ratio(float64(polls), float64(len(s.samples)))
	row["serve.metrics_scrape_ms"] = median(s.scrapeMS)
	row["jobs.queue_wait_ms_p50"] = median(wait)
	row["jobs.queue_wait_ms_p95"] = quantile(wait, 0.95)
	row["jobs.run_ms_p50"] = median(run)
	row["jobs.run_ms_p95"] = quantile(run, 0.95)
	row["jobs.compile_ms_p50"] = median(compile)
	row["jobs.batches"] = batches
	row["jobs.batch_width_mean"] = ratio(float64(len(s.samples)), batches)
	row["jobs.rejected_429"] = float64(s.rejected)
	row["jobs.client_overhead_ms"] = median(overhead)
	row["jobs.latency_ms_p50"] = median(latency)
	row["jobs.latency_ms_p95"] = quantile(latency, 0.95)
	row["jobs.latency_ms_p99"] = quantile(latency, 0.99)

	var healthz []float64
	for i := 0; i < healthzCalls; i++ {
		t0 := time.Now()
		if _, err := s.do(0, http.MethodGet, "/healthz", nil, nil); err == nil {
			healthz = append(healthz, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	row["serve.healthz_us"] = median(healthz)
}

// close shuts the service down the way SIGINT does in the CLI: cancel, let
// ListenAndServe drain the job server and close the listener, wait for it.
func (s *service) close() error {
	s.stop()
	err := <-s.served
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
