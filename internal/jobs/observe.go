package jobs

// Request-level observability for the job service (DESIGN.md decision 17):
// per-tenant labeled counters and latency histograms in the shared registry,
// lifecycle spans in the Chrome tracer, and one structured event-log line
// per transition. Everything here is nil-inert — a server configured without
// a tracer or event log pays one pointer test per site — and deterministic
// under a virtual clock: every clock read happens with s.mu held, so a
// serialized submission/dispatch order yields one timestamp sequence, and
// the flushed artifacts (histogram JSON, event-log NDJSON, trace) are
// byte-identical across runs.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Labeled metric families and latency histograms, all keyed by tenant with
// bounded cardinality (obs.DefaultLabelCap, obs.OverflowLabel spill).
const (
	MetricSubmitted   = "jobs.submitted"     // labeled counter: jobs accepted, by tenant
	MetricFinished    = "jobs.finished"      // labeled counter: jobs reaching a terminal state, by tenant
	MetricQueueWaitMS = "jobs.queue_wait_ms" // labeled histogram: submit → dispatch, ms
	MetricRunMS       = "jobs.run_ms"        // labeled histogram: engine start → finalize, ms
)

// wallMillis is the production job clock: Unix milliseconds, the unit the
// lifecycle histograms are bucketed for. Tests substitute an
// obs.VirtualClock via Config.Clock so timestamps are deterministic.
type wallMillis struct{}

func (wallMillis) Now() int64 { return time.Now().UnixMilli() }

// batchLaneBase offsets batch (engine-run) trace lanes away from the
// per-job lanes, whose TIDs are small job sequence numbers.
const batchLaneBase = 1_000_000

// registerMetrics creates the server's metric families in the shared
// registry eagerly — scrape-before-traffic shows zeroed families rather
// than nothing — and attaches HELP text to the plain jobs.* counters.
func (s *Server) registerMetrics() {
	const cap = obs.DefaultLabelCap
	s.mSubmitted = s.reg.LabeledCounter(MetricSubmitted, "jobs accepted into the queue, by tenant", "tenant", cap)
	s.mFinished = s.reg.LabeledCounter(MetricFinished, "jobs reaching a terminal state, by tenant", "tenant", cap)
	s.hQueueWait = s.reg.LabeledHistogram(MetricQueueWaitMS, "job queue wait (submit to dispatch), milliseconds, by tenant", "tenant", cap)
	s.hRun = s.reg.LabeledHistogram(MetricRunMS, "job run time (engine start to finalize), milliseconds, by tenant", "tenant", cap)
	for name, help := range map[string]string{
		MetricQueued:            "jobs accepted into the queue",
		MetricBatched:           "jobs dispatched in a multi-job batch",
		MetricBatchWidth:        "sum of dispatched batch widths",
		MetricRejectedQueueFull: "submissions rejected because the queue was full",
		MetricCancelled:         "jobs finalized cancelled",
		MetricCompleted:         "jobs finalized done",
		MetricFailed:            "jobs finalized failed",
		MetricPanics:            "batches whose compile or run panicked",
	} {
		s.reg.Add(name, 0)
		s.reg.SetHelp(name, help)
	}
}

// batchID renders a batch's stable identifier for logs and trace args.
func batchID(seq int) string { return fmt.Sprintf("batch-%d", seq) }

// logTransition appends one structured line for a job state change. Called
// with s.mu held (the event log has its own short lock; lock order is
// strictly jobs → obs, never back).
func (s *Server) logTransition(j *Job, ts int64, st State, fields map[string]int64) {
	if !s.elog.Enabled() {
		return
	}
	rec := obs.LogRecord{
		TS:     ts,
		Event:  string(st),
		Job:    j.id,
		Tenant: j.tenant,
		State:  string(st),
		Error:  j.errMsg,
		Fields: fields,
	}
	if j.batch != nil {
		rec.Batch = batchID(j.batch.seq)
	}
	s.elog.Append(rec)
}

// finalizeObs records everything derived from a job's completed lifecycle:
// the per-tenant outcome counter, queue-wait and run-time observations, the
// terminal event-log line, and the job's trace spans. Called from
// finishLocked with s.mu held, after the terminal state and finishedAt are
// set, so each job emits exactly once.
func (s *Server) finalizeObs(j *Job) {
	s.mFinished.Add(j.tenant, 1)

	// Queue wait: submit → dispatch for jobs that left the queue, submit →
	// finalize for jobs that died queued (their whole life was queue wait).
	waitEnd := j.dispatchedAt
	if waitEnd == 0 {
		waitEnd = j.finishedAt
	}
	queueWait := waitEnd - j.submittedAt
	s.hQueueWait.Observe(j.tenant, queueWait)

	fields := map[string]int64{"queue_wait_ms": queueWait}
	var runDur int64
	if j.startedAt > 0 {
		runDur = j.finishedAt - j.startedAt
		s.hRun.Observe(j.tenant, runDur)
		fields["run_ms"] = runDur
	}
	if j.batch != nil {
		fields["batch_width"] = int64(j.batch.width)
	}
	if j.res != nil {
		fields["matches"] = j.res.Count
	}
	s.logTransition(j, j.finishedAt, j.state, fields)

	if !s.tracer.Enabled() {
		return
	}
	// Lifecycle spans on the job's own lane, EmitAt-stamped from the
	// recorded timestamps so the trace is deterministic under the virtual
	// clock. Zero-duration phases still emit (Chrome renders them as
	// instants), keeping the span count per job a function of how far the
	// job got, not of timing.
	if j.dispatchedAt > 0 {
		s.tracer.EmitAt(obs.CatJobs, "queued", j.seq, j.submittedAt, j.dispatchedAt-j.submittedAt)
		compileEnd := j.startedAt
		if compileEnd == 0 {
			compileEnd = j.finishedAt
		}
		s.tracer.EmitAt(obs.CatJobs, "compiling", j.seq, j.dispatchedAt, compileEnd-j.dispatchedAt)
	} else {
		s.tracer.EmitAt(obs.CatJobs, "queued", j.seq, j.submittedAt, j.finishedAt-j.submittedAt)
	}
	if j.startedAt > 0 {
		s.tracer.EmitAt(obs.CatJobs, "running", j.seq, j.startedAt, runDur,
			obs.Arg{Key: "batch_width", Val: int64(j.batch.width)})
		// Flow arrow from this job's running span to the shared engine-run
		// span on the batch lane; the job's sequence number is the bind id.
		s.tracer.EmitFlowAt(obs.CatJobs, "batched-into", j.seq, j.startedAt, int64(j.seq), true)
		s.tracer.EmitFlowAt(obs.CatJobs, "batched-into", batchLaneBase+j.batch.seq, j.finishedAt, int64(j.seq), false)
	}
}

// batchRunObs emits the shared engine-run span on the batch's lane. Called
// with s.mu held after the batch's members are finalized.
func (s *Server) batchRunObs(b *batch, endAt int64) {
	if !s.tracer.Enabled() || b.startedAt == 0 {
		return
	}
	s.tracer.EmitAt(obs.CatJobs, "engine-run", batchLaneBase+b.seq, b.startedAt, endAt-b.startedAt,
		obs.Arg{Key: "batch", Val: int64(b.seq)},
		obs.Arg{Key: "width", Val: int64(b.width)},
		obs.Arg{Key: "legs", Val: int64(len(b.legs))})
}
