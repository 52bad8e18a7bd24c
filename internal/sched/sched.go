package sched

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what a run returns when a task function (or a hook) panicked:
// the run stopped, every other worker retired at its next task boundary, and the
// first panic's value and stack are kept. Callers hold partial results.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("sched: task panicked: %v", e.Value) }

// Hooks observe scheduler events for the observability layer. The zero value
// observes nothing; callbacks run on the worker goroutine that triggered the
// event, so implementations must be cheap and safe for concurrent use.
type Hooks struct {
	// OnSteal is fired by nothing: there is no stealing. Retired — delete
	// with benchmark round two (ROADMAP 1f): only benchmark/mining.go still
	// sets it.
	OnSteal func(thief, victim, ntasks int)

	// OnStealTier is fired by nothing. Retired — delete with benchmark round
	// two (ROADMAP 1f): only benchmark/mining.go still sets it.
	OnStealTier func(thief, victim, ntasks, tier int)

	// OnTask fires after fn returns for a task — the task was executed
	// (possibly partially, when cancellation latched mid-task). Only
	// benchmark/mining.go sets it: a job's "progress" counts tasks through
	// core.Options.OnTaskDone, and ROADMAP 1f deletes this field.
	OnTask func(worker int, t Task)
}

// StealCross is read by nothing. Retired — delete with benchmark round two
// (ROADMAP 1f): only benchmark/mining.go's OnStealTier callback still names it.
const StealCross = 1

// RunHooked executes every task at most once across workers goroutines, and
// exactly once when the run is neither cancelled nor halted. The workers share
// one cursor into tasks: whichever is idle claims the next position, so the
// schedule is greedy list scheduling in slice order — longest-processing-time
// first when the list is OrderByDegreeDesc's — and holds no lock. fn is invoked
// with the worker index (0 ≤ w < workers) and the task; returning false halts
// the whole run (cooperative cancellation detected inside a task). h observes
// scheduler events; the zero Hooks observes nothing. RunHooked returns a
// *PanicError if a task panicked, else ctx.Err() — nil unless the context was
// cancelled or expired; either way every goroutine is joined and callers hold
// partial results.
func RunHooked(ctx context.Context, workers int, tasks []Task, fn func(worker int, t Task) bool, h Hooks) error {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64 // the cursor: tasks[:next] are claimed
	var stopped atomic.Bool
	done := ctx.Done()
	halted := func() bool {
		if stopped.Load() {
			return true
		}
		select {
		case <-done:
			stopped.Store(true)
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	var perr atomic.Pointer[PanicError]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					stopped.Store(true)
					perr.CompareAndSwap(nil, &PanicError{Value: v, Stack: debug.Stack()})
				}
			}()
			for !halted() {
				i := next.Add(1) - 1
				if i >= int64(len(tasks)) {
					return
				}
				ok := fn(w, tasks[i])
				if h.OnTask != nil {
					h.OnTask(w, tasks[i])
				}
				if !ok {
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if pe := perr.Load(); pe != nil {
		return pe
	}
	return ctx.Err()
}
