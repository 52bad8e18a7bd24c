package main

// The sim workload: the cycle-level accelerator model at 20 PEs. One
// operation is one pass of three simulations. Simulated cycles are model
// time and repeat exactly for one seed; host time is what this workload's
// end-to-end metrics measure.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sim"
)

type simLeg struct {
	name string
	pl   *plan.Plan
	g    *graph.Graph
}

type simulator struct {
	e    *env
	legs []simLeg
	want map[string]int64 // counts and cycles of the warm-up pass

	// Model statistics of one pass (identical on every pass).
	stats []sim.Stats
}

func setupSim(e *env) (instance, error) {
	g := e.generate(simShape)
	e.describe(g)
	fourCycle, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		return nil, err
	}
	motifs3, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		return nil, err
	}
	clique4, err := plan.CompileCliqueDAG(4)
	if err != nil {
		return nil, err
	}
	s := &simulator{e: e, legs: []simLeg{
		{"SL-4cycle", fourCycle, g},
		{"3-MC", motifs3, g},
		{"4-CL", clique4, g.Orient()},
	}}
	got, stats, err := s.pass(-1)
	if err != nil {
		return nil, err
	}
	s.want, s.stats = got, stats
	for k, v := range got {
		e.counts[k] = v
	}
	return s, nil
}

// pass simulates every leg and returns counts plus, per leg, name.cycles.
func (s *simulator) pass(op int) (map[string]int64, []sim.Stats, error) {
	got := map[string]int64{}
	var stats []sim.Stats
	for _, l := range s.legs {
		var res sim.Result
		var err error
		s.e.rec.call("sim.Simulate", op, func() {
			res, err = sim.Simulate(l.g, l.pl, sim.DefaultConfig().WithPEs(20))
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: sim.Simulate: %w", l.name, err)
		}
		for i, p := range l.pl.Patterns {
			got[l.name+"."+p.Name()] = res.Counts[i]
		}
		got[l.name+".cycles"] = res.Stats.Cycles
		stats = append(stats, res.Stats)
	}
	return got, stats, nil
}

// verify checks the simulator's counts against the CPU engine's.
func (s *simulator) verify() error {
	for _, l := range s.legs {
		res, err := core.Mine(l.g, l.pl, engineOptions())
		if err != nil {
			return err
		}
		for i, p := range l.pl.Patterns {
			key := l.name + "." + p.Name()
			if res.Counts[i] != s.want[key] {
				return fmt.Errorf("%s: simulator %d, CPU engine %d", key, s.want[key], res.Counts[i])
			}
			if s.e.quick {
				if brute := core.BruteCount(l.g, p, l.pl.Induced); brute != res.Counts[i] {
					return fmt.Errorf("%s: engines %d, brute force %d", key, res.Counts[i], brute)
				}
			}
		}
	}
	return nil
}

func (s *simulator) measure(deadline time.Time, res *result) {
	measurePasses(s.e, deadline, res, s.want, func(op int) (map[string]int64, error) {
		got, _, err := s.pass(op)
		return got, err
	})
}

func (s *simulator) layers(row map[string]float64) {
	var cycles, peCycles, l2, dram int64
	var busy float64
	var bd sim.Breakdown
	var cm = s.stats[0].CMap
	for i, st := range s.stats {
		cycles += st.Cycles
		peCycles += st.Breakdown.Total()
		busy += st.Utilization * float64(st.Breakdown.Total())
		l2 += st.NoCRequests
		dram += st.DRAMAccesses
		bd.Add(st.Breakdown)
		if i > 0 {
			cm.Add(st.CMap)
		}
	}
	total := float64(peCycles)
	row["sim.cycles"] = float64(cycles)
	row["sim.host_ns_per_cycle"] = ratio(median(s.e.rec.secondsPerOp("sim.Simulate"))*1e9, float64(cycles))
	row["sim.pe_util"] = ratio(busy, total)
	row["sim.compute_frac"] = ratio(float64(bd.Compute), total)
	row["sim.cmap_frac"] = ratio(float64(bd.CMapProbe), total)
	row["sim.l2_stall_frac"] = ratio(float64(bd.L2Stall), total)
	row["sim.dram_stall_frac"] = ratio(float64(bd.DRAMStall), total)
	row["sim.idle_frac"] = ratio(float64(bd.Idle), total)
	row["sim.l2_accesses"] = float64(l2)
	row["sim.dram_accesses"] = float64(dram)
	row["sim.cmap_read_ratio"] = cm.ReadRatio()
}

func (s *simulator) close() error { return nil }
