// Package jobs is the asynchronous multi-tenant mining-job subsystem layered
// on the serving surface (internal/serve) and the CPU engine (internal/core):
// tenants submit jobs (tenant + graph reference + pattern + engine options)
// over HTTP, poll their state through queued → compiling → running → done /
// failed / cancelled, fetch results, and cancel mid-run (wired through
// MineContext's cancellation, which returns partial counts). A job turns
// compiling when the dispatcher admits its batch, before the batch resolves
// its graph, so a graph that fails to open reads queued → compiling → failed.
//
// Two properties distinguish it from a plain work queue:
//
//   - Per-tenant fairness: the bounded queue is drained round robin over
//     per-tenant FIFOs, one job per tenant per turn (queue.go), so one tenant
//     flooding the queue cannot starve another's single job.
//
//   - Twins share one run: a batch is one pattern and its jobs. Jobs are
//     twins when they name the same graph, matching semantics and engine
//     options and isomorphic patterns (batch.takes, DESIGN.md decision 16).
//     The dispatcher gathers the head's queued twins into its batch, and a
//     job submitted while a twin's batch is in flight (gathered, not yet
//     delivered) joins it instead of queueing. Either way the batch compiles
//     one plan, runs one engine pass and hands its count to every member. A
//     joiner never enters the fair queue, but holds a queue slot until it is
//     finalized; jobs with a timeout never join. Distinct patterns never
//     share a run: the engine's closed forms, factors and sweeps fire only
//     on a plan branch a pattern has to itself.
//
// The subsystem introduces only live counters (jobs.* in the shared
// obs.Registry) and never touches the paper runners, whose options come from
// core.PaperBaseline.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/serve"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateCompiling State = "compiling"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Registry counter names the subsystem feeds (live surfaces only, never
// golden-tested documents — queue traffic is load-dependent).
const (
	MetricQueued            = "jobs.queued"      // jobs accepted into the queue
	MetricBatched           = "jobs.batched"     // jobs dispatched in a ≥2-job batch
	MetricBatchWidth        = "jobs.batch_width" // sum of dispatched batch widths
	MetricRejectedQueueFull = "jobs.rejected_queue_full"
	MetricCancelled         = "jobs.cancelled"
	MetricCompleted         = "jobs.completed"
	MetricFailed            = "jobs.failed"
	MetricPanics            = "jobs.panics" // batches whose compile or run panicked (their jobs end failed)
)

// Sentinel errors mapped onto HTTP statuses by the handlers.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: server is shutting down")
	ErrNotFound  = errors.New("jobs: no such job")
	ErrEvicted   = errors.New("jobs: job finished and has left the retention ring")
)

// retainJobs is how many finished jobs the server keeps for polling; older
// ones are evicted (410 Gone), so memory is bounded under indefinite uptime.
const retainJobs = 1024

// Config parameterizes a Server. The zero value is usable: private registry,
// queue of 64, named graphs only. Not configurable: the queue pops one job per
// tenant per turn, a batch holds one pattern's twins, a request that leaves
// Options.Workers at 0 runs on GOMAXPROCS threads, the batches in flight share
// GOMAXPROCS engine threads (see admitsLocked), and the per-tenant metric
// families hold obs.DefaultLabelCap tenants.
type Config struct {
	// Registry receives the jobs.* counters. Nil creates a private registry.
	Registry *obs.Registry

	// MaxQueue bounds the number of queued (not yet dispatched) jobs plus
	// unfinished joiners (jobs attached to an in-flight twin at submit);
	// submits beyond it are rejected with ErrQueueFull. Default 64.
	MaxQueue int

	// Graphs are the preregistered named graphs (GraphRef.Name). The map is
	// read-only after New.
	Graphs map[string]graph.Store

	// GraphDir, when non-empty, enables GraphRef.Path references: paths
	// resolve relative to this directory and may not escape it. Empty
	// rejects all path references (the safe default for a network-facing
	// server).
	GraphDir string

	// StartPaused starts the dispatcher paused (Resume() releases it) —
	// jobs queue up but nothing dispatches, which is how tests and
	// maintenance windows make batching deterministic.
	StartPaused bool

	// Clock stamps job lifecycle timestamps (submitted/dispatched/started/
	// finished) and is the source of the queue-wait and run-time histogram
	// observations. Nil selects wall-clock milliseconds; tests pass an
	// obs.VirtualClock so timestamps — and every artifact derived from them
	// — are deterministic. All reads happen with the server mutex held, so
	// a serialized submission order yields one timestamp sequence.
	Clock obs.Clock

	// Tracer, when non-nil, receives lifecycle spans (queued/compiling/
	// running per job on its own lane, engine-run per batch) plus the flow
	// events linking batched jobs to their shared engine run. Nil disables
	// span emission at the cost of one pointer test per job.
	Tracer *obs.Tracer

	// EventLog, when non-nil, receives one structured NDJSON record per job
	// state transition. Nil disables the log.
	EventLog *obs.EventLog

	// OnTransition, when non-nil, observes every job state change. It runs
	// outside server locks, in dispatch order per job; implementations must
	// be concurrency-safe. Observation only — it must not call back into
	// the server synchronously with unbounded blocking.
	OnTransition func(id string, state State)
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.NewRegistry(nil)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Clock == nil {
		c.Clock = wallMillis{}
	}
	return c
}

// Job is one submitted mining job. All mutable fields are guarded by the
// server mutex; the public accessors return snapshots.
type Job struct {
	id      string
	seq     int // numeric suffix of id; the job's trace lane
	tenant  string
	pat     *pattern.Pattern
	induced bool
	gref    GraphRef
	gkey    string
	opts    EngineOptions

	state     State
	errMsg    string
	res       *Result
	cancelled bool   // cancellation requested while dispatched
	joined    bool   // attached to an in-flight batch at submit, never queued
	batch     *batch // non-nil from gather (or join) on
	finalized chan struct{}

	// Lifecycle timestamps in Config.Clock units (wall ms in production,
	// virtual ticks in tests). Zero means "never reached". All writes and
	// reads happen under the server mutex.
	submittedAt  int64
	dispatchedAt int64 // popped from the queue into a batch (a joiner: its submit)
	startedAt    int64 // batch's engine run began
	finishedAt   int64 // terminal state recorded
}

// Result is a finished job's outcome: the count and engine statistics of the
// one run its batch made of its pattern, which every twin in the batch shares.
// BatchWidth is the batch's final width: every job that took its count,
// twins that joined it in flight included.
type Result struct {
	Pattern    string     `json:"pattern"`
	Count      int64      `json:"count"`
	Partial    bool       `json:"partial"`
	BatchWidth int        `json:"batch_width"`
	Stats      core.Stats `json:"stats"`
}

// batch is one dispatch unit: one pattern's twins, compiled into one plan and
// run on one engine.
type batch struct {
	pat       *pattern.Pattern // the head's; every member's pattern is isomorphic to it
	jobs      []*Job           // gather order, then join order; its length is the batch's width
	seq       int              // dispatch order; names the batch in logs and traces
	gref      GraphRef
	gkey      string
	induced   bool
	opts      EngineOptions
	ctx       context.Context
	cancel    context.CancelFunc
	live      int   // jobs not yet individually cancelled; 0 closes it to joins
	startedAt int64 // engine run began (Config.Clock units)
	prog      serve.Progress
}

// Server owns the queue, the dispatcher and the job table.
type Server struct {
	cfg Config
	reg *obs.Registry

	// Observability surfaces (observe.go). clock is never nil; tracer and
	// elog may be nil (inert).
	clock      obs.Clock
	tracer     *obs.Tracer
	elog       *obs.EventLog
	mSubmitted *obs.LabeledCounter
	mFinished  *obs.LabeledCounter
	hQueueWait *obs.LabeledHistogram
	hRun       *obs.LabeledHistogram

	rootCtx context.Context
	stopAll context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	q         *drrQueue
	jobs      map[string]*Job
	order     []string // submission order, for deterministic listings
	retain    int      // terminal jobs kept in jobs/order (retainJobs; tests lower it)
	terminal  int      // terminal jobs currently in jobs/order
	evicted   int      // highest seq evicted: ids are sequential, so an id at or below it that is not in jobs was evicted
	nextID    int
	nextBatch int
	threads   int      // engine threads the running batches share (GOMAXPROCS; tests lower it)
	apart     bool     // every job runs alone, twins too (tests of the exact round-robin schedule set it)
	busy      int      // engine threads the running batches hold
	flying    []*batch // gathered, not yet delivered or failed: the batches a twin may join
	paused    bool
	closing   bool
	notes     []transition

	// widthFields memoizes the {"batch_width": w} payload of compiling and
	// running records, one read-only map per distinct width: every finished
	// job keeps two such records in the event-log ring, and a map apiece was
	// a fifth of what the server retains per job.
	widthFields map[int]map[string]int64

	// Path graphs (graphFor): gmu guards the map and gclosed, never an open.
	gmu     sync.Mutex
	graphs  map[string]*pathGraph
	gclosed bool
	open    func(path string, mmap bool) (graph.Store, func() error, error) // graph.Open; tests replace it

	dispatcherDone chan struct{}
}

type transition struct {
	id    string
	state State
}

// pathGraph is one path graph, opened once for every request of its key: done is
// closed, under gmu, when the open has finished; store, close and err are set
// before. A failed open's entry leaves the map, its error going to the requests
// that waited for it.
type pathGraph struct {
	done  chan struct{}
	store graph.Store
	close func() error
	err   error
}

// New starts a job server (and its dispatcher goroutine). Callers must Close
// it to release the dispatcher and any graphs opened through GraphDir.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		reg:            cfg.Registry,
		clock:          cfg.Clock,
		tracer:         cfg.Tracer,
		elog:           cfg.EventLog,
		rootCtx:        ctx,
		stopAll:        cancel,
		q:              newDRRQueue(cfg.MaxQueue),
		jobs:           map[string]*Job{},
		retain:         retainJobs,
		threads:        runtime.GOMAXPROCS(0),
		widthFields:    map[int]map[string]int64{},
		paused:         cfg.StartPaused,
		graphs:         map[string]*pathGraph{},
		open:           graph.Open,
		dispatcherDone: make(chan struct{}),
	}
	s.registerMetrics()
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// Registry returns the registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Pause stops dispatching new batches; queued jobs accumulate. Running
// batches are unaffected.
func (s *Server) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume releases a paused dispatcher.
func (s *Server) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Submit validates the (already parsed) request against server state and
// enqueues a job — or joins it to an in-flight twin (twinLocked) — returning
// its ID. The request must come from ParseSubmit — Submit assumes validated
// options.
func (s *Server) Submit(req SubmitRequest, pat *pattern.Pattern) (string, error) {
	opts := req.Options
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if req.Graph.Name != "" {
		if _, ok := s.cfg.Graphs[req.Graph.Name]; !ok {
			return "", fmt.Errorf("jobs: unknown graph %q", req.Graph.Name)
		}
	} else if s.cfg.GraphDir == "" {
		return "", fmt.Errorf("jobs: graph path references are disabled (no graph root configured); use a named graph")
	} else if _, err := confinePath(s.cfg.GraphDir, req.Graph.Path); err != nil {
		return "", err
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return "", ErrClosed
	}
	j := &Job{
		id:        fmt.Sprintf("job-%d", s.nextID+1),
		seq:       s.nextID + 1,
		tenant:    req.Tenant,
		pat:       pat,
		induced:   req.Pattern.Induced,
		gref:      req.Graph,
		gkey:      req.Graph.key(),
		opts:      opts,
		state:     StateQueued,
		finalized: make(chan struct{}),
	}
	b := s.twinLocked(j)
	var err error
	if b != nil {
		err = s.q.hold()
	} else {
		err = s.q.push(j)
	}
	if err != nil {
		s.mu.Unlock()
		s.reg.Add(MetricRejectedQueueFull, 1)
		return "", err
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	j.submittedAt = s.clock.Now()
	s.logTransition(j, j.submittedAt, StateQueued, nil)
	s.notes = append(s.notes, transition{j.id, StateQueued})
	if b != nil {
		s.joinLocked(j, b)
	}
	notes := s.takeNotesLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.reg.Add(MetricQueued, 1)
	s.mSubmitted.Add(req.Tenant, 1)
	s.fire(notes)
	return j.id, nil
}

// Cancel requests cancellation of a job. Queued jobs leave the queue
// immediately; dispatched jobs cancel through the engine context — the last
// live job of a batch to be cancelled tears the whole engine run down, which
// returns the partial counts accumulated so far. Cancelling a job whose
// batch continues for its twins detaches it without a result (the shared
// engine pass goes on for them). Cancelling a terminal job is a no-op.
// Returns the job's state after the call.
func (s *Server) Cancel(id string) (State, error) {
	s.mu.Lock()
	j, err := s.lookupLocked(id)
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	if j.state.Terminal() {
		st := j.state
		s.mu.Unlock()
		return st, nil
	}
	if j.batch == nil {
		s.q.remove(j)
		s.finishLocked(j, StateCancelled, "cancelled while queued", nil)
		s.cond.Broadcast() // j may have been a head waiting for threads; the next may fit
	} else if !j.cancelled {
		j.cancelled = true
		b := j.batch
		b.live--
		if b.live == 0 {
			b.cancel() // engine unwinds; the runner finalizes with partials
		} else {
			s.finishLocked(j, StateCancelled, "cancelled; batch continues for co-batched jobs", nil)
		}
	}
	st := j.state
	notes := s.takeNotesLocked()
	s.mu.Unlock()
	s.fire(notes)
	return st, nil
}

// Wait blocks until the job is finalized (terminal state reached and any
// result recorded) or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) error {
	s.mu.Lock()
	j, err := s.lookupLocked(id)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-j.finalized:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain stops accepting submissions, cancels every still-queued job, and
// waits for in-flight batches to finish. If ctx expires first, the running
// engines are cancelled (they return partial results promptly) and Drain
// returns ctx's error after they unwind. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		s.stopAll()
		<-s.dispatcherDone
		return ctx.Err()
	}
}

// Close drains the server (bounded by ctx) and releases every graph opened
// through GraphDir. The drain error, if any, is returned after cleanup.
func (s *Server) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.stopAll()
	s.gmu.Lock()
	s.gclosed = true
	for key, r := range s.graphs {
		select {
		case <-r.done:
			if cerr := r.close(); cerr != nil && err == nil {
				err = cerr
			}
			delete(s.graphs, key)
		default: // still opening: its opener closes it
		}
	}
	s.gmu.Unlock()
	return err
}

// dispatch is the scheduler loop: it waits until the queue's head admits (see
// admitsLocked), pops it, gathers a compatible batch around it, marks the batch
// compiling and hands it to a runner goroutine. The head is never skipped, so
// batches dispatch — and their compiling transitions fire, all from this
// goroutine — in exact round-robin order; gathering after the wait lets a head that
// waited for threads take every compatible job queued meanwhile.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	s.mu.Lock()
	for {
		for !s.closing && (s.paused || !s.admitsLocked()) {
			s.cond.Wait()
		}
		if s.closing {
			for j := s.q.pop(); j != nil; j = s.q.pop() {
				s.finishLocked(j, StateCancelled, "server shutting down", nil)
			}
			if s.busy == 0 {
				break
			}
			s.cond.Wait()
			continue
		}
		b := s.gatherLocked(s.q.pop())
		s.busy += b.opts.Workers
		s.markLocked(b, StateCompiling)
		notes := s.takeNotesLocked()
		w := int64(len(b.jobs)) // read under s.mu: a twin may join b (and count itself) once it is released
		s.mu.Unlock()
		s.reg.Add(MetricBatchWidth, w)
		if w > 1 {
			s.reg.Add(MetricBatched, w)
		}
		s.fire(notes)
		go s.runBatch(b)
		s.mu.Lock()
	}
	notes := s.takeNotesLocked()
	s.mu.Unlock()
	s.fire(notes)
}

// admitsLocked reports whether the queue's head may dispatch now: its engine
// threads — its normalized Workers, shared by every job a batch gathers — fit
// in s.threads beside those the running batches hold, or nothing runs, so a
// batch asking for more than the budget runs alone. A default job (Workers 0,
// so GOMAXPROCS) fills the budget and never shares the processors. Called with
// s.mu held.
func (s *Server) admitsLocked() bool {
	head := s.q.peek()
	return head != nil && (s.busy == 0 || s.busy+head.opts.Workers <= s.threads)
}

// takes reports whether j is a twin of b's jobs, so may share its engine run:
// the same graph, matching semantics and normalized engine options, and an
// isomorphic pattern. The gather and the join at submit both ask it.
func (b *batch) takes(j *Job) bool {
	return j.gkey == b.gkey && j.induced == b.induced && j.opts == b.opts && b.pat.IsIsomorphic(j.pat)
}

// gatherLocked builds the dispatch batch around the queue's head: every queued
// job the batch takes joins it, unless s.apart. The batch is in flight, open
// to twins (twinLocked), until deliver or failBatch lands it. Called with s.mu
// held.
func (s *Server) gatherLocked(head *Job) *batch {
	b := &batch{
		pat:     head.pat,
		jobs:    []*Job{head},
		gref:    head.gref,
		gkey:    head.gkey,
		induced: head.induced,
		opts:    head.opts,
	}
	if !s.apart {
		b.jobs = append(b.jobs, s.q.collect(b.takes)...)
	}
	s.nextBatch++
	b.seq = s.nextBatch
	b.ctx, b.cancel = context.WithCancel(s.rootCtx)
	b.live = len(b.jobs)
	dispatched := s.clock.Now() // one read per batch: members share the instant
	for _, j := range b.jobs {
		j.batch = b
		j.dispatchedAt = dispatched
	}
	s.flying = append(s.flying, b)
	return b
}

// twinLocked finds the in-flight batch that takes j, or nil when j may not join
// one: s.apart, j has a timeout (its deadline would start at the batch's run,
// not at its submit), or every such batch is being torn down (no live member).
// Called with s.mu held.
func (s *Server) twinLocked(j *Job) *batch {
	if s.apart || j.opts.TimeoutMS > 0 {
		return nil
	}
	for _, b := range s.flying {
		if b.live > 0 && b.takes(j) {
			return b
		}
	}
	return nil
}

// joinLocked attaches j, just logged queued, to b, its twin's in-flight batch:
// j becomes one more recipient of b's count, never enters the fair queue and
// holds no engine thread. At the clock read that submitted it, j turns
// compiling, and running too if b's run has begun (otherwise b's markLocked
// moves it on with the rest); its queue wait is 0. Called with s.mu held.
func (s *Server) joinLocked(j *Job, b *batch) {
	b.jobs = append(b.jobs, j)
	j.batch, j.joined, j.dispatchedAt = b, true, j.submittedAt
	b.live++
	batched := int64(1)
	if len(b.jobs) == 2 {
		batched = 2 // the batch's first job counts as batched from now on
	}
	s.reg.Add(MetricBatchWidth, 1)
	s.reg.Add(MetricBatched, batched)
	fields := s.widthFieldsLocked(len(b.jobs))
	j.state = StateCompiling
	s.logTransition(j, j.submittedAt, StateCompiling, fields)
	s.notes = append(s.notes, transition{j.id, StateCompiling})
	if b.startedAt > 0 {
		j.state, j.startedAt = StateRunning, j.submittedAt
		s.logTransition(j, j.submittedAt, StateRunning, fields)
		s.notes = append(s.notes, transition{j.id, StateRunning})
	}
}

// landLocked closes b to joins: its member list is final from here on.
// deliver and failBatch call it before they read b's jobs, so no twin joins a
// batch whose members were already finalized. Called with s.mu held.
func (s *Server) landLocked(b *batch) {
	if i := slices.Index(s.flying, b); i >= 0 {
		s.flying = slices.Delete(s.flying, i, i+1)
	}
}

// runBatch compiles and executes one batch, then hands its count to the
// member jobs.
func (s *Server) runBatch(b *batch) {
	defer func() {
		b.cancel()
		s.mu.Lock()
		// Every member is terminal now, so nothing cancels this batch again
		// (Cancel returns early on terminal jobs); finished jobs keep b for
		// their status, and need not keep its context alive with it.
		b.ctx, b.cancel = nil, nil
		s.busy -= b.opts.Workers
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	if res, mineErr, ok := s.mineBatch(b); ok {
		s.deliver(b, res, mineErr)
	}
}

// mineBatch is compile → lower → run for b. ok stays false when the batch has
// failed already — an error before the run, or a panic anywhere in here, which
// fails this batch's jobs and not the server; a panic inside a task arrives as
// the run's error (*sched.PanicError), with the partial result.
func (s *Server) mineBatch(b *batch) (res core.Result, mineErr error, ok bool) {
	defer func() {
		if v := recover(); v != nil {
			s.notePanic(b, v, debug.Stack())
			s.failBatch(b, fmt.Errorf("panic: %v", v))
		}
	}()
	store, err := s.graphFor(b.gref)
	if err != nil {
		s.failBatch(b, fmt.Errorf("resolving graph: %w", err))
		return
	}
	pl, err := plan.Compile(b.pat, plan.Options{Induced: b.induced})
	if err != nil {
		s.failBatch(b, err)
		return
	}
	eng, err := core.NewEngine(store, pl, core.Options{Threads: b.opts.Workers, OnTaskDone: b.prog.OnTaskDone})
	if err != nil {
		s.failBatch(b, err)
		return
	}
	ctx := b.ctx
	if b.opts.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(b.ctx, time.Duration(b.opts.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	s.setBatchState(b, StateRunning)
	b.prog.BeginRun(eng.TaskCount())
	res, mineErr = eng.MineContext(ctx)
	b.prog.EndRun()
	if pe := (*sched.PanicError)(nil); errors.As(mineErr, &pe) {
		s.notePanic(b, pe.Value, pe.Stack)
	}
	return res, mineErr, true
}

// deliver hands a finished run's count to b's member jobs.
func (s *Server) deliver(b *batch, res core.Result, mineErr error) {
	s.mu.Lock()
	s.landLocked(b)
	for _, j := range b.jobs {
		if j.state.Terminal() {
			continue // cancelled mid-batch while its twins continued
		}
		r := &Result{
			Pattern:    j.pat.Name(),
			Count:      res.Count(),
			Partial:    mineErr != nil,
			BatchWidth: len(b.jobs),
			Stats:      res.Stats,
		}
		switch {
		case mineErr == nil:
			s.finishLocked(j, StateDone, "", r)
		case errors.Is(mineErr, context.Canceled) || errors.Is(mineErr, context.DeadlineExceeded):
			s.finishLocked(j, StateCancelled, mineErr.Error(), r)
		default:
			s.finishLocked(j, StateFailed, mineErr.Error(), r)
		}
	}
	s.batchRunObs(b, s.clock.Now())
	notes := s.takeNotesLocked()
	s.mu.Unlock()
	s.fire(notes)
}

// notePanic counts a panic under b and appends its event-log record, the one
// place the stack is kept (its first 4 KB: the panic site is at the top).
func (s *Server) notePanic(b *batch, v any, stack []byte) {
	s.reg.Add(MetricPanics, 1)
	s.mu.Lock()
	ts := s.clock.Now()
	s.mu.Unlock()
	s.elog.Append(obs.LogRecord{TS: ts, Event: "panic", Batch: batchID(b.seq), Error: fmt.Sprint(v),
		Stack: string(stack[:min(len(stack), 4<<10)])})
}

// failBatch finalizes every non-terminal member as failed.
func (s *Server) failBatch(b *batch, err error) {
	s.mu.Lock()
	s.landLocked(b)
	for _, j := range b.jobs {
		if !j.state.Terminal() {
			s.finishLocked(j, StateFailed, err.Error(), nil)
		}
	}
	notes := s.takeNotesLocked()
	s.mu.Unlock()
	s.fire(notes)
}

// setBatchState advances every non-terminal member of b (running).
func (s *Server) setBatchState(b *batch, st State) {
	s.mu.Lock()
	s.markLocked(b, st)
	notes := s.takeNotesLocked()
	s.mu.Unlock()
	s.fire(notes)
}

// markLocked moves every non-terminal member of b to st (compiling, running)
// and queues the transitions for the caller to fire. Called with s.mu held.
func (s *Server) markLocked(b *batch, st State) {
	now := s.clock.Now() // one read per transition: members share the instant
	if st == StateRunning {
		b.startedAt = now
	}
	fields := s.widthFieldsLocked(len(b.jobs))
	for _, j := range b.jobs {
		if !j.state.Terminal() {
			j.state = st
			if st == StateRunning {
				j.startedAt = now
			}
			s.logTransition(j, now, st, fields)
			s.notes = append(s.notes, transition{j.id, st})
		}
	}
}

// widthFieldsLocked returns the shared {"batch_width": w} record payload.
// Called with s.mu held.
func (s *Server) widthFieldsLocked(w int) map[string]int64 {
	fields := s.widthFields[w]
	if fields == nil {
		fields = map[string]int64{"batch_width": int64(w)}
		s.widthFields[w] = fields
	}
	return fields
}

// finishLocked moves a job to a terminal state exactly once, records the
// result, closes the finalized channel and counts the outcome. Called with
// s.mu held.
func (s *Server) finishLocked(j *Job, st State, msg string, r *Result) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.errMsg = msg
	j.res = r
	j.finishedAt = s.clock.Now()
	close(j.finalized)
	if j.joined {
		s.q.release()
	}
	s.notes = append(s.notes, transition{j.id, st})
	s.finalizeObs(j)
	switch st {
	case StateDone:
		s.reg.Add(MetricCompleted, 1)
	case StateFailed:
		s.reg.Add(MetricFailed, 1)
	case StateCancelled:
		s.reg.Add(MetricCancelled, 1)
	}
	// The retention ring: past s.retain finished jobs the oldest leaves the
	// table and the listing. Callers that still hold j are unaffected.
	s.terminal++
	for i := 0; s.terminal > s.retain && i < len(s.order); {
		old := s.jobs[s.order[i]]
		if !old.state.Terminal() {
			i++ // still queued or running: stays, whatever its age
			continue
		}
		delete(s.jobs, old.id)
		s.order = slices.Delete(s.order, i, i+1)
		s.evicted = max(s.evicted, old.seq)
		s.terminal--
	}
}

// lookupLocked resolves a job id: ErrEvicted for one the retention ring
// dropped, ErrNotFound for one never issued. Called with s.mu held.
func (s *Server) lookupLocked(id string) (*Job, error) {
	if j := s.jobs[id]; j != nil {
		return j, nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n >= 1 && n <= s.evicted && id == fmt.Sprintf("job-%d", n) {
		return nil, ErrEvicted
	}
	return nil, ErrNotFound
}

func (s *Server) takeNotesLocked() []transition {
	notes := s.notes
	s.notes = nil
	return notes
}

func (s *Server) fire(notes []transition) {
	if s.cfg.OnTransition == nil {
		return
	}
	for _, n := range notes {
		s.cfg.OnTransition(n.id, n.state)
	}
}

// graphFor resolves a graph reference: named graphs come straight from the
// config; path references open (and cache, keyed by the canonical ref) a
// file or sharded directory under GraphDir. Each key is opened once, outside
// gmu: a request for a key being opened waits for that open and shares its
// store or its error, one for any other key does not wait at all. A failed open
// is not cached, so the next request tries again; a store whose open ends after
// Close began is closed, not cached.
func (s *Server) graphFor(ref GraphRef) (graph.Store, error) {
	if ref.Name != "" {
		g := s.cfg.Graphs[ref.Name]
		if g == nil {
			return nil, fmt.Errorf("jobs: unknown graph %q", ref.Name)
		}
		return g, nil
	}
	full, err := confinePath(s.cfg.GraphDir, ref.Path)
	if err != nil {
		return nil, err
	}
	key := ref.key()
	s.gmu.Lock()
	r, owner := s.graphs[key], false
	if r == nil && !s.gclosed {
		r, owner = &pathGraph{done: make(chan struct{})}, true
		s.graphs[key] = r
	}
	s.gmu.Unlock()
	switch {
	case r == nil:
		return nil, errServerClosed
	case owner:
		s.openGraph(r, key, full, ref.Mmap)
	}
	<-r.done
	return r.store, r.err
}

var errServerClosed = errors.New("jobs: server closed")

// openGraph opens r, key's entry, and publishes the outcome under gmu — a
// panicking open as an error to the waiters, the panic going on to the caller's.
func (s *Server) openGraph(r *pathGraph, key, path string, mmap bool) {
	store, closeStore, err := graph.Store(nil), func() error { return nil }, errors.New("jobs: the graph open panicked")
	defer func() {
		s.gmu.Lock()
		defer s.gmu.Unlock()
		if err == nil && s.gclosed {
			_ = closeStore() // no batch read the store, so nothing waits on how its close went
			err = errServerClosed
		}
		if err != nil {
			r.err = err
			delete(s.graphs, key)
		} else {
			r.store, r.close = store, closeStore
		}
		close(r.done)
	}()
	store, closeStore, err = s.open(path, mmap)
}

// confinePath resolves rel under root, rejecting absolute paths and any
// traversal that would escape the root.
func confinePath(root, rel string) (string, error) {
	if root == "" {
		return "", fmt.Errorf("jobs: graph path references are disabled")
	}
	if filepath.IsAbs(rel) {
		return "", fmt.Errorf("jobs: graph path must be relative to the graph root")
	}
	clean := filepath.Clean(rel)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("jobs: graph path escapes the graph root")
	}
	return filepath.Join(root, clean), nil
}
