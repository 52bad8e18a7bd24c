package sim

import "fmt"

// Breakdown attributes every PE cycle of a run to exactly one bucket — the
// per-resource cycle decomposition the paper's evaluation reasons with
// (PE utilization, c-map effectiveness, DRAM saturation, §VI–§VII). The
// buckets are orthogonal to the Busy/Stall split of Stats: Busy cycles
// spread over Compute, CMapProbe, L1Stall and DispatchWait, Stall cycles
// over L2Stall and DRAMStall, and the cycles a retired PE spends waiting
// for the makespan land in Idle. The accounting is total: the bucket sum
// equals PEs × makespan on every run, enforced by CheckTotal on every
// Simulate return.
type Breakdown struct {
	// Compute is extender-FSM, pruner, SIU/SDU merge and bound-comparator
	// work — the cycles the PE spends doing the algorithm.
	Compute int64
	// CMapProbe is c-map scratchpad activity: insert/remove/lookup accesses
	// plus extra probe groups and rejected-insertion checks.
	CMapProbe int64
	// L1Stall is private-cache access latency: hit latency on reads and the
	// local-scratch charge for frontier-table traffic that never leaves
	// the PE.
	L1Stall int64
	// L2Stall is time blocked on a shared-side line that the L2 served.
	L2Stall int64
	// DRAMStall is time blocked on a shared-side line that missed the L2
	// and went to a DRAM channel.
	DRAMStall int64
	// DispatchWait is the scheduler hand-off cost paid at every task
	// acceptance (Config.SchedLatency per task).
	DispatchWait int64
	// Idle is the tail: cycles between a PE's retirement and the global
	// makespan, during which the PE has no work left.
	Idle int64
}

// Add accumulates o into b, field by field (every bucket).
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.CMapProbe += o.CMapProbe
	b.L1Stall += o.L1Stall
	b.L2Stall += o.L2Stall
	b.DRAMStall += o.DRAMStall
	b.DispatchWait += o.DispatchWait
	b.Idle += o.Idle
}

// Total returns the bucket sum.
func (b Breakdown) Total() int64 {
	return b.Compute + b.CMapProbe + b.L1Stall + b.L2Stall + b.DRAMStall +
		b.DispatchWait + b.Idle
}

// CheckTotal enforces the accounting invariant: the buckets must sum to
// pes × makespan, i.e. every cycle of every PE is attributed to exactly one
// bucket. A non-nil error means the simulator's cycle charging and its
// attribution diverged — an internal bug, never an input problem.
func (b Breakdown) CheckTotal(pes int, makespan int64) error {
	want := int64(pes) * makespan
	if got := b.Total(); got != want {
		return fmt.Errorf("sim: cycle accounting broken: breakdown sums to %d, want PEs×makespan = %d×%d = %d (%+v)",
			got, pes, makespan, want, b)
	}
	return nil
}
