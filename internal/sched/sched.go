package sched

import (
	"context"
	"fmt"
	"runtime"
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

// Hooks observe scheduler-internal events for the observability layer
// (internal/obs). The zero value observes nothing; callbacks run on the
// worker goroutine that triggered the event, so implementations must be
// cheap and safe for concurrent use.
type Hooks struct {
	// OnSteal fires after a successful steal: thief took ntasks tasks from
	// victim's deque (both are worker indices).
	OnSteal func(thief, victim, ntasks int)

	// OnStealTier fires after a successful steal under a sharded run, with
	// the locality tier: StealLocal when thief and victim share a worker
	// group, StealCross otherwise. Runs without shard grouping (RunHooked)
	// never fire it.
	OnStealTier func(thief, victim, ntasks, tier int)

	// OnTask fires after fn returns for a task — the task was executed
	// (possibly partially, when cancellation latched mid-task). This is the
	// live-progress feed behind serve.Progress (a job's "progress").
	OnTask func(worker int, t Task)
}

// MergeHooks fans every scheduler event out to each of hs in order, so two
// independent observers (say, a live Progress tracker and an obs.Registry
// feed) can watch one run. Nil callbacks are skipped; merging zero or one
// hook sets is the identity.
func MergeHooks(hs ...Hooks) Hooks {
	var out Hooks
	for _, h := range hs {
		if h.OnSteal != nil {
			prev := out.OnSteal
			out.OnSteal = func(thief, victim, ntasks int) {
				if prev != nil {
					prev(thief, victim, ntasks)
				}
				h.OnSteal(thief, victim, ntasks)
			}
		}
		if h.OnStealTier != nil {
			prev := out.OnStealTier
			out.OnStealTier = func(thief, victim, ntasks, tier int) {
				if prev != nil {
					prev(thief, victim, ntasks, tier)
				}
				h.OnStealTier(thief, victim, ntasks, tier)
			}
		}
		if h.OnTask != nil {
			prev := out.OnTask
			out.OnTask = func(worker int, t Task) {
				if prev != nil {
					prev(worker, t)
				}
				h.OnTask(worker, t)
			}
		}
	}
	return out
}

// RunHooked executes every task at most once across workers goroutines using
// per-worker deques with work stealing, and exactly once when the run is
// neither cancelled nor stopped. fn is invoked with the worker index
// (0 ≤ w < workers) and the task; returning false halts the whole run
// (cooperative cancellation detected inside a task). h observes scheduler
// events; the zero Hooks observes nothing. RunHooked returns a *PanicError
// if a task panicked, else ctx.Err() — nil unless the context was cancelled or
// expired; either way callers hold partial results.
func RunHooked(ctx context.Context, workers int, tasks []Task, fn func(worker int, t Task) bool, h Hooks) error {
	if workers < 1 {
		workers = 1
	}
	deques := make([]deque, workers)
	for i := range deques {
		share := len(tasks)/workers + 1
		deques[i].ts = make([]Task, 0, share)
	}
	// Deal round-robin: after degree-descending ordering, every deque gets
	// an interleaved heavy-to-light run of the global LPT sequence.
	for i, t := range tasks {
		d := &deques[i%workers]
		d.ts = append(d.ts, t)
	}
	// Victims swept cyclically from self+1; no locality grouping.
	order := make([][]int, workers)
	for w := 0; w < workers; w++ {
		ord := make([]int, 0, workers-1)
		for off := 1; off < workers; off++ {
			ord = append(ord, (w+off)%workers)
		}
		order[w] = ord
	}
	return runLoop(ctx, deques, order, nil, int64(len(tasks)), fn, h)
}

// runLoop is the work-stealing engine shared by RunHooked and RunSharded:
// deques are pre-seeded, order[w] is worker w's victim sweep sequence, and
// groupOf (nil for ungrouped runs) classifies steals into locality tiers.
func runLoop(ctx context.Context, deques []deque, order [][]int, groupOf []int, total int64, fn func(worker int, t Task) bool, h Hooks) error {
	// unclaimed counts tasks not yet popped for execution. Steals move
	// tasks between deques without changing it, so unclaimed == 0 means no
	// deque will ever hold work again and idle workers may retire.
	var unclaimed atomic.Int64
	unclaimed.Store(total)

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
	var panicked sync.Once
	var perr *PanicError
	for w := range deques {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					stopped.Store(true)
					panicked.Do(func() { perr = &PanicError{Value: v, Stack: debug.Stack()} })
				}
			}()
			self := &deques[w]
			for !halted() {
				t, ok := self.popFront()
				if !ok {
					if unclaimed.Load() == 0 {
						return
					}
					victim, n := steal(deques, order[w], self)
					if n == 0 {
						// Work exists but is in flight (being executed, or
						// mid-transfer in a thief's hands); tasks never
						// respawn, so yield and re-sweep.
						runtime.Gosched()
						continue
					}
					if h.OnSteal != nil {
						h.OnSteal(w, victim, n)
					}
					if h.OnStealTier != nil && groupOf != nil {
						tier := StealLocal
						if groupOf[w] != groupOf[victim] {
							tier = StealCross
						}
						h.OnStealTier(w, victim, n, tier)
					}
					continue
				}
				unclaimed.Add(-1)
				ok = fn(w, t)
				if h.OnTask != nil {
					h.OnTask(w, t)
				}
				if !ok {
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if perr != nil {
		return perr
	}
	return ctx.Err()
}

// steal sweeps the victim order and moves the first non-empty victim's back
// half into the thief's own deque, reporting the victim index and the number
// of tasks taken (0 when every sweep came up empty).
func steal(deques []deque, order []int, into *deque) (victim, n int) {
	for _, vi := range order {
		v := &deques[vi]
		if loot := v.stealTail(); len(loot) > 0 {
			into.push(loot)
			return vi, len(loot)
		}
	}
	return 0, 0
}
