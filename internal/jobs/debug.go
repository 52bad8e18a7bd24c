package jobs

// The /debug/jobs endpoint: one JSON document with a per-tenant summary
// (outcome counts plus queue-wait/run-time percentiles read from the shared
// histogram families) and the live tail of the structured event log. The
// operator's first stop when a tenant reports slow jobs — it answers "is the
// time going to queueing or to running, and for whom" without scraping and
// re-aggregating /metrics.

import (
	"net/http"

	"repro/internal/obs"
)

// DebugTailLimit caps the event-log tail served by /debug/jobs.
const DebugTailLimit = 256

// TenantSummary is one tenant's row of the /debug/jobs document. The counts
// cover the jobs the server retains (in flight plus the retention ring); the
// lifetime totals are the jobs.* counters on /metrics.
type TenantSummary struct {
	Submitted int64 `json:"submitted"`
	Queued    int64 `json:"queued"`
	Compiling int64 `json:"compiling"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	// Percentile estimates (bucket upper bounds, server clock units) from
	// the per-tenant latency histograms; zero until the tenant has a
	// finalized job.
	QueueWaitP50 int64 `json:"queue_wait_ms_p50"`
	QueueWaitP95 int64 `json:"queue_wait_ms_p95"`
	RunP50       int64 `json:"run_ms_p50"`
	RunP95       int64 `json:"run_ms_p95"`
}

// DebugDoc is the /debug/jobs response body. Maps marshal with sorted keys,
// so the document layout is deterministic for a fixed server state.
type DebugDoc struct {
	Tenants       map[string]TenantSummary `json:"tenants"`
	Events        []obs.LogRecord          `json:"events"`
	EventsDropped int64                    `json:"events_dropped"`
}

// DebugSummary assembles the /debug/jobs document from the job table, the
// latency histograms and the event-log tail (at most tail records; tail <= 0
// selects DebugTailLimit).
func (s *Server) DebugSummary(tail int) DebugDoc {
	if tail <= 0 {
		tail = DebugTailLimit
	}
	doc := DebugDoc{Tenants: map[string]TenantSummary{}}

	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		t := doc.Tenants[j.tenant]
		t.Submitted++
		switch j.state {
		case StateQueued:
			t.Queued++
		case StateCompiling:
			t.Compiling++
		case StateRunning:
			t.Running++
		case StateDone:
			t.Done++
		case StateFailed:
			t.Failed++
		case StateCancelled:
			t.Cancelled++
		}
		doc.Tenants[j.tenant] = t
	}
	s.mu.Unlock()

	qw, run := s.hQueueWait.Snapshot(), s.hRun.Snapshot()
	for tenant, t := range doc.Tenants {
		// A tenant past the label cap reads the overflow series — shared
		// percentiles, but still an answer.
		qs, ok := qw.Series[tenant]
		if !ok {
			qs = qw.Series[obs.OverflowLabel]
		}
		rs, ok := run.Series[tenant]
		if !ok {
			rs = run.Series[obs.OverflowLabel]
		}
		t.QueueWaitP50 = obs.HistogramQuantile(qw.Bounds, qs, 0.50)
		t.QueueWaitP95 = obs.HistogramQuantile(qw.Bounds, qs, 0.95)
		t.RunP50 = obs.HistogramQuantile(run.Bounds, rs, 0.50)
		t.RunP95 = obs.HistogramQuantile(run.Bounds, rs, 0.95)
		doc.Tenants[tenant] = t
	}

	doc.Events = s.elog.Tail(tail)
	if doc.Events == nil {
		doc.Events = []obs.LogRecord{} // serve [], not null, with no log
	}
	doc.EventsDropped = s.elog.Dropped()
	return doc
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.DebugSummary(DebugTailLimit))
}
