package sim

// Tests for the cycle-accounting layer: every PE cycle must land in exactly
// one Breakdown bucket (the sum invariant), the attribution must mirror the
// coarse Busy/Stall/Idle split, and — the metamorphic contract backing the
// observability layer — attaching a tracer or a sampler must not move a
// single cycle between buckets.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// breakdownConfigs sweeps the attribution-relevant axes: c-map off (merge
// path, no CMapProbe), banked c-map (probe charging), unlimited c-map, task
// slicing, and the scalar-set-op ablation.
func breakdownConfigs() []Config {
	sliced := DefaultConfig().WithPEs(4)
	sliced.TaskSliceElems = 16
	scalar := DefaultConfig().WithPEs(4).WithCMapBytes(0)
	scalar.ScalarSetOpCycles = 3
	return []Config{
		DefaultConfig().WithPEs(4).WithCMapBytes(0),
		DefaultConfig().WithPEs(4),
		DefaultConfig().WithPEs(2).WithUnlimitedCMap(),
		sliced,
		scalar,
	}
}

func TestBreakdownSumsToMakespan(t *testing.T) {
	g := graph.ChungLu(500, 4000, 2.3, 17)
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.Diamond()} {
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range breakdownConfigs() {
			res, err := Simulate(g, pl, cfg)
			if err != nil {
				t.Fatalf("%s cmap=%d: %v", p.Name(), cfg.CMapBytes, err)
			}
			b := res.Stats.Breakdown
			if err := b.CheckTotal(cfg.PEs, res.Stats.Cycles); err != nil {
				t.Errorf("%s cmap=%d: %v", p.Name(), cfg.CMapBytes, err)
			}
			// The buckets refine Busy/Stall/Idle: busy work is compute +
			// c-map + L1 + dispatch, stalls are L2 + DRAM, and the remainder
			// of PEs × makespan is idle tail.
			if busy := b.Compute + b.CMapProbe + b.L1Stall + b.DispatchWait; busy != res.Stats.BusyCycles {
				t.Errorf("%s cmap=%d: busy buckets sum to %d, Stats.BusyCycles=%d",
					p.Name(), cfg.CMapBytes, busy, res.Stats.BusyCycles)
			}
			if stall := b.L2Stall + b.DRAMStall; stall != res.Stats.StallCycles {
				t.Errorf("%s cmap=%d: stall buckets sum to %d, Stats.StallCycles=%d",
					p.Name(), cfg.CMapBytes, stall, res.Stats.StallCycles)
			}
			if b.Compute <= 0 || b.DispatchWait <= 0 || b.L1Stall <= 0 {
				t.Errorf("%s cmap=%d: degenerate breakdown %+v", p.Name(), cfg.CMapBytes, b)
			}
			if cfg.CMapBytes == 0 && !cfg.CMapUnlimited && b.CMapProbe != 0 {
				t.Errorf("%s: c-map disabled but CMapProbe=%d", p.Name(), b.CMapProbe)
			}
			if (cfg.CMapBytes > 0 || cfg.CMapUnlimited) && b.CMapProbe == 0 {
				t.Errorf("%s cmap=%d: c-map enabled but no CMapProbe cycles", p.Name(), cfg.CMapBytes)
			}
		}
	}
}

// TestBreakdownDRAMStallAppears: a graph far beyond the private caches must
// show DRAM-attributed stalls, and a single-PE run has no idle tail.
func TestBreakdownDRAMStallAppears(t *testing.T) {
	g := graph.ChungLu(4000, 40000, 2.3, 22)
	pl, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, pl, DefaultConfig().WithPEs(1).WithCMapBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Stats.Breakdown
	if b.DRAMStall == 0 {
		t.Errorf("no DRAM-attributed stall on a cache-exceeding graph: %+v", b)
	}
	if b.L2Stall == 0 {
		t.Errorf("no L2-attributed stall: %+v", b)
	}
	if b.Idle != 0 {
		t.Errorf("single-PE run reports idle tail %d", b.Idle)
	}
}

// TestBreakdownInvariantUnderObservers is the metamorphic half of the
// acceptance criterion: tracing and sampling (separately and together) must
// leave the whole Stats block — the Breakdown included — untouched.
func TestBreakdownInvariantUnderObservers(t *testing.T) {
	g := graph.ChungLu(500, 4000, 2.3, 17)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithPEs(4)
	cfg.TaskSliceElems = 16
	plain, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	observers := map[string]func(*Config){
		"traced":  func(c *Config) { c.Trace = obs.NewTracer(obs.NewVirtualClock(), 1<<17) },
		"sampled": func(c *Config) { c.Sample = obs.NewSampler(1 << 10) },
		"both": func(c *Config) {
			c.Trace = obs.NewTracer(obs.NewVirtualClock(), 1<<17)
			c.Sample = obs.NewSampler(1 << 10)
		},
	}
	for name, attach := range observers {
		c := cfg
		attach(&c)
		got, err := Simulate(g, pl, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Counts, plain.Counts) {
			t.Errorf("%s: observer changed counts: %v vs %v", name, got.Counts, plain.Counts)
		}
		if !reflect.DeepEqual(got.Stats, plain.Stats) {
			t.Errorf("%s: observer changed stats:\nwith    %+v\nwithout %+v", name, got.Stats, plain.Stats)
		}
		if c.Sample.Enabled() && len(c.Sample.Samples()) == 0 {
			t.Errorf("%s: sampler attached but recorded nothing", name)
		}
	}
}

// TestBreakdownHoldsOnCancelledRun: partial results from a cancelled
// simulation still account for every cycle.
func TestBreakdownHoldsOnCancelledRun(t *testing.T) {
	g := graph.ChungLu(500, 4000, 2.3, 17)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the scheduler dispatches nothing
	cfg := DefaultConfig().WithPEs(4)
	res, err := SimulateContext(ctx, g, pl, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if ierr := res.Stats.Breakdown.CheckTotal(cfg.PEs, res.Stats.Cycles); ierr != nil {
		t.Error(ierr)
	}
}
