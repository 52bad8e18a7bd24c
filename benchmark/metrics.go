package main

// The metric vocabulary. BENCHMARK.json at the repo root lists the same names,
// units and bounds; main_test.go keeps the two in step.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse; Exact marks per-layer counts that
// repeat exactly for one seed and so must not differ at all between two runs.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system waits for or pays. Every workload
// reports every one of them; an operation is a mining pass (clique, house,
// list, store), a sim pass (sim), a job (serve_small) or a burst of eight jobs
// (serve_burst). The two timings are in reference time (reference.go): wall
// time scaled by how fast the host ran the benchmark's own kernel on either
// side of the interval, because on a shared host the wall clock measures the
// neighbours. The wall-clock figures are the host.*_wall_* rows. Both loops
// are closed, so throughput is the client count over the mean latency and
// says nothing op_p50_ms does not; it and the tails are per-layer rows
// (trace.ops_per_s, trace.op_p75_ms, …).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
}

func lower(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }

func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer is one row per layer measurement, named layer.metric after the
// module it measures. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	// graph: generation, the three store backends, the lazy hub index.
	lower("graph.gen_s", "s"),
	lower("graph.open_heap_s", "s"),
	lower("graph.open_mmap_s", "s"),
	lower("graph.open_sharded_s", "s"),
	lower("graph.hubindex_s", "s"),
	lower("graph.file_mb", "MB"),
	// pattern
	lower("pattern.motifs4_us", "us"),
	lower("pattern.iso_us", "us"),
	// plan
	lower("plan.compile_us", "us"),
	lower("plan.compile_multi_us", "us"),
	lower("plan.compile_motifs5_ms", "ms"),
	count("plan.ops"),
	count("plan.aux_specs"),
	// setops micro rows on seeded arrays
	lower("setops.merge_ns_per_elem", "ns"),
	lower("setops.gallop_ns_per_elem", "ns"),
	lower("setops.bitmap_ns_per_elem", "ns"),
	lower("setops.diff_ns_per_elem", "ns"),
	lower("setops.count_ns_per_elem", "ns"),
	// cmap micro rows on an 8 kB HashMap
	lower("cmap.insert_ns", "ns"),
	lower("cmap.lookup_ns", "ns"),
	lower("cmap.overflow_frac", "ratio"),
	// core: one pass, summed over its queries
	lower("core.new_engine_s", "s"),
	lower("core.mine_s", "s"),
	count("core.setop_iters"),
	count("core.gallop_probes"),
	count("core.bitmap_probes"),
	count("core.extensions"),
	count("core.candidates"),
	count("core.frontier_reuses"),
	count("core.leaf_skips"),
	count("core.aux_built"),
	count("core.aux_reused"),
	higher("core.aux_hit_ratio", "ratio"),
	count("core.aux_bytes_peak"),
	lower("core.ns_per_setop_elem", "ns"),
	lower("core.list_ns_per_match", "ns"),
	// sched: per pass, through core.Options.SchedHooks
	lower("sched.tasks", "count"),
	lower("sched.steals", "count"),
	lower("sched.tasks_stolen", "count"),
	lower("sched.steals_cross_shard", "count"),
	lower("sched.expand_s", "s"),
	higher("sched.speedup_t2", "ratio"),
	// sim: one pass, summed over its simulations
	metricDef{Name: "sim.cycles", Unit: "cycles", Better: "lower", Exact: true},
	lower("sim.host_ns_per_cycle", "ns"),
	higher("sim.pe_util", "ratio"),
	higher("sim.compute_frac", "ratio"),
	lower("sim.cmap_frac", "ratio"),
	lower("sim.l2_stall_frac", "ratio"),
	lower("sim.dram_stall_frac", "ratio"),
	lower("sim.idle_frac", "ratio"),
	count("sim.l2_accesses"),
	count("sim.dram_accesses"),
	higher("sim.cmap_read_ratio", "ratio"),
	// serve: the HTTP surface, client side
	lower("serve.healthz_us", "us"),
	lower("serve.submit_ms", "ms"),
	lower("serve.poll_ms", "ms"),
	lower("serve.polls_per_job", "count"),
	lower("serve.metrics_scrape_ms", "ms"),
	// jobs: queueing, batching and the tails
	lower("jobs.parse_us", "us"),
	lower("jobs.queue_wait_ms_p50", "ms"),
	lower("jobs.queue_wait_ms_p95", "ms"),
	lower("jobs.run_ms_p50", "ms"),
	lower("jobs.run_ms_p95", "ms"),
	lower("jobs.compile_ms_p50", "ms"),
	higher("jobs.batch_width_mean", "count"),
	lower("jobs.batches", "count"),
	lower("jobs.rejected_429", "count"),
	lower("jobs.client_overhead_ms", "ms"),
	lower("jobs.latency_ms_p50", "ms"),
	lower("jobs.latency_ms_p95", "ms"),
	lower("jobs.latency_ms_p99", "ms"),
	// obs
	lower("obs.prometheus_write_us", "us"),
	lower("obs.trace_overhead_frac", "ratio"),
	// host and trace: they judge the run, not the program
	lower("host.calib_s_start", "s"),
	lower("host.calib_s_end", "s"),
	lower("host.ref_ms", "ms"),
	lower("host.setup_wall_s", "s"),
	lower("host.op_p50_wall_ms", "ms"),
	higher("trace.explained_frac", "ratio"),
	higher("trace.ops_per_s", "1/s"),
	lower("trace.op_p75_ms", "ms"),
	lower("trace.op_p95_ms", "ms"),
}
