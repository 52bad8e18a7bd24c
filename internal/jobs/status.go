package jobs

// Read-side accessors: point-in-time job status documents (with live
// progress for running batches, fed by the batch's serve.Progress) and
// result retrieval. These are what the HTTP polling handlers serialize.

import "repro/internal/serve"

// Status is a job's poll document.
type Status struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Graph   string `json:"graph"`
	Pattern string `json:"pattern"`
	State   State  `json:"state"`
	Error   string `json:"error,omitempty"`

	// BatchWidth is the number of jobs sharing this job's engine run
	// (0 until dispatched, 1 for an unbatched run). It grows while twins
	// join the run in flight, and is final once the run's jobs finish.
	BatchWidth int `json:"batch_width,omitempty"`

	// Lifecycle timestamps in the server clock's units (wall milliseconds
	// in production, virtual ticks under a test clock); zero means the job
	// has not reached that point. SubmittedAt is set on accept, StartedAt
	// when the batch's engine run begins, FinishedAt on finalization.
	SubmittedAt int64 `json:"submitted_at,omitempty"`
	StartedAt   int64 `json:"started_at,omitempty"`
	FinishedAt  int64 `json:"finished_at,omitempty"`

	// QueueWaitMS is submit → dispatch (or submit → finalize for jobs that
	// died queued); RunMS is engine start → finalize. Both appear once the
	// interval they measure has closed.
	QueueWaitMS int64 `json:"queue_wait_ms,omitempty"`
	RunMS       int64 `json:"run_ms,omitempty"`

	// Progress is the live engine snapshot while the batch is compiling or
	// running (task totals appear once the engine is built). Nil otherwise.
	Progress *serve.Snapshot `json:"progress,omitempty"`
}

func (s *Server) statusLocked(j *Job) Status {
	st := Status{
		ID:          j.id,
		Tenant:      j.tenant,
		Graph:       j.gref.Display(),
		Pattern:     j.pat.Name(),
		State:       j.state,
		Error:       j.errMsg,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
	}
	switch {
	case j.dispatchedAt > 0:
		st.QueueWaitMS = j.dispatchedAt - j.submittedAt
	case j.finishedAt > 0: // never dispatched: its whole life was queue wait
		st.QueueWaitMS = j.finishedAt - j.submittedAt
	}
	if j.startedAt > 0 && j.finishedAt > 0 {
		st.RunMS = j.finishedAt - j.startedAt
	}
	if j.batch != nil {
		st.BatchWidth = j.batch.width
		if !j.state.Terminal() {
			snap := j.batch.prog.Snapshot()
			st.Progress = &snap
		}
	} else if j.res != nil {
		st.BatchWidth = j.res.BatchWidth
	}
	return st
}

// Status returns the job's current status document.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return Status{}, err
	}
	return s.statusLocked(j), nil
}

// List returns every retained job's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Result returns a finished job's result. ErrNotFound for unknown IDs,
// ErrEvicted for ones the retention ring dropped; (nil, nil) while the job is
// still pending; terminal jobs without results
// (cancelled while queued, failed before running) also return (nil, nil) —
// callers distinguish via Status.
func (s *Server) Result(id string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	return j.res, nil
}
