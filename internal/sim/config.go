// Package sim models the FlexMiner accelerator of §IV at cycle level: a
// scheduler dispatching per-vertex tasks to a collection of processing
// elements (PEs), each with the extender finite-state machine, a pruner
// backed by the banked c-map scratchpad, SIU/SDU set-operation units, an
// ancestor stack, a private cache with a frontier-list table — all behind a
// NoC, a shared L2 and a DDR4-like DRAM model.
//
// Timing model: the simulation is event-driven over a global cycle timeline.
// Each PE advances a local cycle counter as it executes; the scheduler always
// dispatches the next task to the PE whose clock is smallest (dynamic
// assignment to idle PEs, §IV-A). Shared resources — L2 banks and DRAM
// channels — are modeled as next-free-cycle reservations, so bandwidth
// contention between PEs is captured without lockstep iteration. Unit costs
// mirror the paper: 1 merge-loop iteration per SIU/SDU cycle (Fig 9), 1 c-map
// access per cycle for single-group probes (§VI-A), 1.3 GHz PEs.
package sim

import (
	"fmt"

	"repro/internal/obs"
)

// Config describes an accelerator configuration. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	// PEs is the processing-element count (the paper scales 1..64).
	PEs int

	// FreqGHz converts cycles to seconds; the paper's PE runs at 1.3 GHz
	// (synthesized, Silvaco 15nm, 0.18 mm² per PE — recorded here for
	// reference; area is not modeled).
	FreqGHz float64

	// LineBytes is the cache-line size.
	LineBytes int

	// PrivateCacheBytes/PrivateWays size each PE's private cache (32 kB).
	PrivateCacheBytes int
	PrivateWays       int

	// SharedCacheBytes/SharedWays/SharedBanks size the shared L2 (4 MB).
	SharedCacheBytes int
	SharedWays       int
	SharedBanks      int

	// CMapBytes sizes each PE's c-map scratchpad at 5 B/entry (§VI-A);
	// 0 disables the c-map (the "no-cmap" configurations of Fig 13).
	// CMapUnlimited overrides with an unbounded map ("cmap-unlimited").
	CMapBytes     int
	CMapBanks     int
	CMapUnlimited bool

	// Latencies, in PE cycles.
	L1Latency    int // private cache hit
	NoCLatency   int // one-way PE↔L2 hop
	L2Latency    int // L2 array access on hit
	DRAMLatency  int // row access after channel grant
	SchedLatency int // task dispatch

	// Occupancy/service costs.
	L2ServiceCycles   int // L2 bank busy per request
	DRAMServiceCycles int // DRAM channel busy per line (bandwidth)
	DRAMChannels      int

	// ScalarSetOps charges extra cycles per merge iteration, modeling a
	// general-purpose core without the specialized SIU/SDU (the PE
	// specialization ablation of §VII-E).
	ScalarSetOpCycles int

	// TaskSliceElems, when positive, splits each start-vertex task into
	// slices of at most this many level-1 adjacency elements. The paper
	// schedules whole vertices (its graphs supply millions of tasks); our
	// scaled stand-ins have only thousands, so a single hub subtree would
	// otherwise dominate the makespan and mask every other effect. Slicing
	// restores the paper's task-count-to-PE ratio. 0 = per-vertex tasks.
	TaskSliceElems int

	// Trace, when non-nil, receives scheduler dispatch decisions, SIU/SDU
	// operation spans, and PE task/retire transitions, all timestamped in PE
	// cycles (obs.Tracer.EmitAt — the tracer clock is never consulted).
	// Tracing never calls tick(), so cycle counts are invariant under it,
	// and because the coordinator serializes PE execution the emission
	// sequence — hence the exported trace — is deterministic.
	Trace *obs.Tracer

	// Sample, when non-nil, receives fixed-window snapshots of cumulative
	// activity counters (PE occupancy, SIU/SDU iterations, c-map hit
	// totals, per-channel DRAM busy, NoC requests), timestamped in global
	// simulated cycles. The coordinator drives it in event order, so the
	// recorded series is deterministic, and sampling only reads simulator
	// state — cycle counts are invariant under it (tested alongside the
	// tracing invariance).
	Sample *obs.Sampler
}

// DefaultConfig mirrors the paper's evaluation setup (§VII-A): 1.3 GHz PEs,
// 32 kB private caches, 8 kB c-map with 4 banks, 4 MB shared L2 and
// DDR4-2666 with 4 channels.
func DefaultConfig() Config {
	return Config{
		PEs:               16,
		FreqGHz:           1.3,
		LineBytes:         64,
		PrivateCacheBytes: 32 << 10,
		PrivateWays:       4,
		SharedCacheBytes:  4 << 20,
		SharedWays:        8,
		SharedBanks:       16,
		CMapBytes:         8 << 10,
		CMapBanks:         4,
		L1Latency:         1,
		NoCLatency:        8,
		L2Latency:         12,
		DRAMLatency:       120,
		SchedLatency:      16,
		L2ServiceCycles:   2,
		DRAMServiceCycles: 4, // 64 B line at ~21 GB/s/channel, 1.3 GHz
		DRAMChannels:      4,
		ScalarSetOpCycles: 0,
	}
}

// WithPEs returns a copy with the PE count replaced.
func (c Config) WithPEs(n int) Config { c.PEs = n; return c }

// WithCMapBytes returns a copy with the c-map size replaced (0 disables).
func (c Config) WithCMapBytes(b int) Config {
	c.CMapBytes = b
	c.CMapUnlimited = false
	return c
}

// WithUnlimitedCMap returns a copy using the impractical unlimited c-map
// upper bound of Fig 14.
func (c Config) WithUnlimitedCMap() Config {
	c.CMapUnlimited = true
	return c
}

func (c Config) validate() error {
	switch {
	case c.PEs < 1:
		return errf("PEs=%d", c.PEs)
	case c.FreqGHz <= 0:
		return errf("FreqGHz=%v", c.FreqGHz)
	case c.LineBytes < 8 || c.LineBytes&(c.LineBytes-1) != 0:
		return errf("LineBytes=%d (want power of two ≥ 8)", c.LineBytes)
	case c.PrivateCacheBytes < c.LineBytes || c.PrivateWays < 1:
		return errf("private cache %dB/%d-way", c.PrivateCacheBytes, c.PrivateWays)
	case c.SharedCacheBytes < c.LineBytes || c.SharedWays < 1 || c.SharedBanks < 1:
		return errf("shared cache %dB/%d-way/%d banks", c.SharedCacheBytes, c.SharedWays, c.SharedBanks)
	case c.DRAMChannels < 1:
		return errf("DRAMChannels=%d", c.DRAMChannels)
	case c.CMapBytes < 0:
		return errf("CMapBytes=%d", c.CMapBytes)
	case c.CMapBytes > 0 && !c.CMapUnlimited && c.CMapBanks < 1:
		return errf("CMapBanks=%d with a %dB hash c-map", c.CMapBanks, c.CMapBytes)
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("sim: bad config: "+format, args...)
}
