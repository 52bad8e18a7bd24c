package sim

// Top-level simulator: a conservative discrete-event engine, and a sequential
// program. Each PE is a pull coroutine (iter.Pull over pe.loop) that yields at
// every *shared* event — a scheduler task request or a shared-memory line
// fetch — while pure compute and private-cache hits advance its local clock.
// The coordinator always resumes the pending event with the smallest simulated
// time (ties broken by PE id), so shared resources observe requests in global
// time order and their queueing is exact and deterministic. The package starts
// no goroutine and owns no channel (TestPackageIsSequential).

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/cmap"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
)

// Stats is the full instrumentation of one simulated run.
type Stats struct {
	Cycles  int64   // end-to-end makespan (max PE completion)
	Seconds float64 // Cycles / (FreqGHz × 1e9)

	Tasks      int64
	Extensions int64

	// Memory-system counters (Fig 16).
	NoCRequests  int64 // PE→shared-side requests (== L2 accesses)
	DRAMAccesses int64
	L1Hits       int64
	L1Misses     int64
	L2Hits       int64
	L2Misses     int64

	// Compute-unit counters.
	SIUIters int64
	SDUIters int64
	CMap     cmap.Stats

	// Per-PE utilization.
	BusyCycles  int64
	StallCycles int64
	Utilization float64 // busy / (PEs × makespan)

	// Breakdown attributes every one of the PEs × makespan cycles to
	// exactly one bucket (compute, c-map, L1/L2/DRAM stall, dispatch,
	// idle); the sum invariant is checked on every Simulate return.
	Breakdown Breakdown

	// Shared-resource occupancy, exported from the reservation cursors
	// (resource.busy): total occupied cycles plus derived utilization over
	// the makespan. The per-channel / per-bank detail rides in the slices,
	// which obs.AddStats deliberately skips — the scalar totals are the
	// machine-invariant exports, and the timeseries artifact carries the
	// per-channel series.
	DRAMBusyCycles  int64
	L2BusyCycles    int64
	DRAMChannelBusy []int64
	L2BankBusy      []int64
	DRAMUtilization float64 // DRAMBusyCycles / (channels × makespan)
	L2Utilization   float64 // L2BusyCycles / (banks × makespan)
}

// Result carries per-pattern counts (identical to the CPU engine's, by
// construction and by test) and the timing statistics.
type Result struct {
	Counts []int64
	Stats  Stats
}

// Count returns the single-pattern count, or 0 when the run produced no
// counts (a cancelled run, or an empty multi-pattern plan).
func (r Result) Count() int64 {
	if len(r.Counts) == 0 {
		return 0
	}
	return r.Counts[0]
}

// Speedup returns how much faster this run is than a baseline wall-clock
// duration in seconds.
func (r Result) Speedup(baselineSeconds float64) float64 {
	if r.Stats.Seconds == 0 {
		return 0
	}
	return baselineSeconds / r.Stats.Seconds
}

// event kinds a PE coroutine yields to the coordinator.
const (
	evNeedTask = iota // PE idle, wants the next start vertex
	evNeedLine        // PE blocked on a shared-memory line fetch
	evDone            // PE retired (no more tasks)
)

// event is pointer-free, so the coordinator's heap moves it without write
// barriers: the PE is named by its index in simulator.pes.
type event struct {
	t    int64  // PE clock at the event
	addr uint64 // for evNeedLine
	pe   int
	kind int
}

// reply is the coordinator's answer, left in the PE before it is resumed: the
// task index (-1: none left), or a line's arrival cycle and whether DRAM served it.
type reply struct {
	n        int64
	fromDRAM bool
}

type simulator struct {
	cfg Config
	g   *graph.Graph
	pl  *plan.Plan
	am  addressMap
	mem *memSystem
	pes []*pe

	tasks    []sched.Task
	nextTask int
	done     <-chan struct{} // run context's cancellation signal
}

// Simulate runs the accelerator model over the whole graph and returns
// counts plus statistics. The simulation is deterministic.
func Simulate(g *graph.Graph, pl *plan.Plan, cfg Config) (Result, error) {
	return SimulateContext(context.Background(), g, pl, cfg)
}

// SimulateContext is Simulate under a context: once ctx is cancelled the
// scheduler stops dispatching tasks, the PEs drain, and the partial counts
// and statistics accumulated so far are returned with ctx's error. An
// uncancelled run stays fully deterministic.
func SimulateContext(ctx context.Context, g *graph.Graph, pl *plan.Plan, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	if pl.RequiresDAG && !g.IsDAG() {
		return Result{}, fmt.Errorf("sim: plan %q requires an oriented DAG input", pl.Patterns[0].Name())
	}
	if !pl.RequiresDAG && g.IsDAG() {
		return Result{}, fmt.Errorf("sim: plan %q requires a symmetric graph, got a DAG", pl.Patterns[0].Name())
	}
	s := &simulator{
		cfg:  cfg,
		g:    g,
		pl:   pl,
		am:   newAddressMap(g.NumVertices()),
		mem:  newMemSystem(cfg),
		done: ctx.Done(),
	}
	s.tasks = sched.Expand(g, cfg.TaskSliceElems)
	s.pes = make([]*pe, cfg.PEs)
	for i := range s.pes {
		s.pes[i] = newPE(i, s)
	}
	s.run()
	res := s.collect()
	// The accounting invariant is a hard postcondition: every cycle of
	// every PE lands in exactly one Breakdown bucket. A violation is an
	// internal charging bug, surfaced rather than silently reported as a
	// skewed attribution.
	if err := res.Stats.Breakdown.CheckTotal(len(s.pes), res.Stats.Cycles); err != nil {
		return res, err
	}
	return res, ctx.Err()
}

// cancelled reports whether the run context has fired.
func (s *simulator) cancelled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// run processes events in simulated-time order until every PE has retired.
// Every coroutine is stopped on every way out: a retired PE is parked on its
// evDone, and when a PE panics (here, out of its next) the others are mid-task.
func (s *simulator) run() {
	// Every live PE has exactly one outstanding event; keep them in a
	// min-(time, id) heap and always service the earliest, the root. The
	// serviced PE's next event replaces the root in place.
	pq := make(eventHeap, len(s.pes))
	next := make([]func() (event, bool), len(s.pes)) // next[i] runs PE i to its next event
	for i, p := range s.pes {
		var stop func()
		next[i], stop = iter.Pull(p.loop)
		defer stop()
		pq[i], _ = next[i]()
	}
	for i := len(pq)/2 - 1; i >= 0; i-- {
		pq.down(i)
	}
	for len(pq) > 0 {
		ev := pq[0]
		p := s.pes[ev.pe]
		// Sampling rides the global event order: before the earliest pending
		// event executes, snapshot every window boundary it crosses. Every
		// PE is parked at a yield here, and sampling only reads — cycle
		// counts are provably invariant under it.
		if sp := s.cfg.Sample; sp.Enabled() {
			for sp.Due(ev.t) {
				sp.Record(s.snapshot())
			}
		}
		switch ev.kind {
		case evDone:
			last := len(pq) - 1
			pq[0] = pq[last]
			pq = pq[:last]
			pq.down(0)
			continue
		case evNeedTask:
			p.reply = reply{n: -1}
			if s.nextTask < len(s.tasks) && !s.cancelled() {
				if tr := s.cfg.Trace; tr.Enabled() {
					tr.EmitAt(obs.CatSched, "dispatch", p.id, ev.t, 0,
						obs.Arg{Key: "task", Val: int64(s.nextTask)},
						obs.Arg{Key: "v0", Val: int64(s.tasks[s.nextTask].V0)})
				}
				p.reply.n = int64(s.nextTask)
				s.nextTask++
			}
		case evNeedLine:
			p.reply.n, p.reply.fromDRAM = s.mem.line(ev.addr, ev.t)
		}
		// Always an event: a PE yields evDone before its loop returns.
		pq[0], _ = next[ev.pe]()
		pq.down(0)
	}
}

// stopped unwinds a PE that is stopped while parked mid-task: await panics
// with it from whatever DFS depth the PE yielded at, loop recovers it.
type stopped struct{}

// await yields an event and returns the coordinator's answer.
func (p *pe) await(kind int, addr uint64) reply {
	if !p.yield(event{pe: p.id, kind: kind, t: p.clock, addr: addr}) {
		panic(stopped{})
	}
	return p.reply
}

// loop is the PE coroutine body, an iter.Seq[event]: fetch tasks until the
// scheduler runs dry, then park on evDone until stopped.
func (p *pe) loop(yield func(event) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil && r != (stopped{}) {
			panic(r)
		}
	}()
	for {
		id := p.await(evNeedTask, 0).n
		if id < 0 {
			if tr := p.sim.cfg.Trace; tr.Enabled() {
				tr.EmitAt(obs.CatSimPE, "retire", p.id, p.clock, 0)
			}
			p.retired = true
			yield(event{pe: p.id, kind: evDone, t: p.clock})
			return
		}
		p.runTask(p.sim.tasks[id])
	}
}

// memLine blocks the PE until the line containing addr arrives from the
// shared side, advancing its clock to the completion time. The stall is
// attributed to the L2 or DRAM bucket according to where the line was served.
func (p *pe) memLine(addr uint64) {
	r := p.await(evNeedLine, addr)
	if r.n > p.clock {
		d := r.n - p.clock
		p.stall += d
		if r.fromDRAM {
			p.bkt.DRAMStall += d
		} else {
			p.bkt.L2Stall += d
		}
		p.clock = r.n
	}
}

func (s *simulator) collect() Result {
	res := Result{Counts: make([]int64, len(s.pl.Patterns))}
	st := &res.Stats
	for _, p := range s.pes {
		if p.clock > st.Cycles {
			st.Cycles = p.clock
		}
		for i, c := range p.counts {
			res.Counts[i] += c
		}
		st.Tasks += p.tasks
		st.Extensions += p.extends
		st.L1Hits += p.l1Hits
		st.L1Misses += p.l1Misses
		st.SIUIters += p.siuIters
		st.SDUIters += p.sduIters
		st.BusyCycles += p.busy
		st.StallCycles += p.stall
		if p.cm != nil {
			st.CMap.Add(p.cm.Stats())
		}
	}
	for i := range res.Counts {
		res.Counts[i] /= s.pl.CountDivisor[i]
	}
	st.NoCRequests = s.mem.nocReqs
	st.DRAMAccesses = s.mem.dramReqs
	st.L2Hits = s.mem.l2Hits
	st.L2Misses = s.mem.l2Misses
	st.DRAMChannelBusy = busyCycles(s.mem.dram)
	st.L2BankBusy = busyCycles(s.mem.l2Banks)
	for _, b := range st.DRAMChannelBusy {
		st.DRAMBusyCycles += b
	}
	for _, b := range st.L2BankBusy {
		st.L2BusyCycles += b
	}
	// Second PE pass for the breakdown: Idle is the retirement-to-makespan
	// gap, which needs the final makespan from the first pass.
	for _, p := range s.pes {
		st.Breakdown.Add(p.bkt)
		st.Breakdown.Idle += st.Cycles - p.clock
	}
	st.Seconds = float64(st.Cycles) / (s.cfg.FreqGHz * 1e9)
	if st.Cycles > 0 {
		st.Utilization = float64(st.BusyCycles) / (float64(st.Cycles) * float64(len(s.pes)))
		st.DRAMUtilization = float64(st.DRAMBusyCycles) / (float64(st.Cycles) * float64(len(s.mem.dram)))
		st.L2Utilization = float64(st.L2BusyCycles) / (float64(st.Cycles) * float64(len(s.mem.l2Banks)))
	}
	// Terminal sampler flush: one last snapshot at the makespan so the
	// series always ends on the run's final totals.
	if sp := s.cfg.Sample; sp.Enabled() {
		sp.RecordFinal(st.Cycles, s.snapshot())
	}
	return res
}

// snapshot captures the simulator's cumulative activity counters for one
// time-series sample. It only reads state, and only the coordinator calls it:
// every PE is parked at a yield meanwhile.
func (s *simulator) snapshot() map[string]int64 {
	vals := map[string]int64{
		"tasks_dispatched": int64(s.nextTask),
		"noc_requests":     s.mem.nocReqs,
		"dram_accesses":    s.mem.dramReqs,
		"l2_hits":          s.mem.l2Hits,
		"l2_misses":        s.mem.l2Misses,
	}
	var busy, stall, active, siu, sdu int64
	var cm cmap.Stats
	for _, p := range s.pes {
		busy += p.busy
		stall += p.stall
		if !p.retired {
			active++
		}
		siu += p.siuIters
		sdu += p.sduIters
		if p.cm != nil {
			cm.Add(p.cm.Stats())
		}
	}
	vals["pe_busy_cycles"] = busy
	vals["pe_stall_cycles"] = stall
	vals["pes_active"] = active
	vals["siu_iters"] = siu
	vals["sdu_iters"] = sdu
	vals["c_map_lookups"] = cm.Lookups
	vals["c_map_hits"] = cm.Hits
	var l2busy int64
	for _, b := range busyCycles(s.mem.l2Banks) {
		l2busy += b
	}
	vals["l2_busy_cycles"] = l2busy
	for ch, b := range busyCycles(s.mem.dram) {
		vals[fmt.Sprintf("dram_busy_cycles.%d", ch)] = b
	}
	return vals
}

// eventHeap is a binary min-heap of pending events ordered by (time, PE id).
// Each live PE has exactly one pending event, so no two keys tie and the
// service order is the same whatever the heap's shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].pe < h[j].pe
}

// down sifts the event at i down to its place below.
func (h eventHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
