package obs

import "repro/internal/sched"

// Scheduler counter names registered by SchedHooks. The cross-shard count is
// the locality figure of merit for the sharded substrate: shard-local seeding
// exists to drive it down, and the repo benchmark's store workload reports it
// (sched.steals_cross_shard).
const (
	SchedSteals           = "sched.steals"
	SchedTasksStolen      = "sched.tasks_stolen"
	SchedStealsLocal      = "sched.steals_local"
	SchedStealsCrossShard = "sched.steals_cross_shard"
)

// SchedHooks returns scheduler hooks that accumulate steal traffic into r:
// total steals and tasks moved for every run, plus the locality split
// (steals_local / steals_cross_shard) when the run is sharded. Steal counts
// are schedule-dependent — they belong on live surfaces (`flexminer serve`'s
// /metrics) and benchmark reports, never in golden-tested documents.
// Combine with other observers via sched.MergeHooks.
func SchedHooks(r *Registry) sched.Hooks {
	if r == nil {
		return sched.Hooks{}
	}
	return sched.Hooks{
		OnSteal: func(thief, victim, ntasks int) {
			r.Add(SchedSteals, 1)
			r.Add(SchedTasksStolen, int64(ntasks))
		},
		OnStealTier: func(thief, victim, ntasks, tier int) {
			if tier == sched.StealCross {
				r.Add(SchedStealsCrossShard, 1)
			} else {
				r.Add(SchedStealsLocal, 1)
			}
		},
	}
}
