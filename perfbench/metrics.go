package main

// endToEndUnits are the host-time metrics a user of dramstacksd sees,
// printed by an untraced run; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"job_latency_p50_s":  "s",
	"job_latency_tail_s": "s",
	"round_makespan_s":   "s",
	"mem_cycles_per_s":   "1/s",
	"jobs_per_s":         "1/s",
	"submit_ack_p50_s":   "s",
	"cache_hit_p50_s":    "s",
	"max_rss_mb":         "MB",
}

// perLayerUnits are the traced run's per-layer metrics. The service.*
// times are medians over cache-miss jobs, read from job status:
// overhead_s is client latency minus queue wait and simulation, and
// stream_lag_s runs from the simulation's end to the client holding the
// bytes (the last NDJSON line of a sweep, the stacks of a polled job).
// The exp.*, sim.*, cpu.*, cache.* and dram.* host times are per job
// replayed through the layers' public functions; the sentinels (cpu.ipc
// through stacks.conservation_errors) are simulated statistics, exact
// for a seed.
var perLayerUnits = map[string]string{
	"service.workers":         "count",
	"service.queue_wait_s":    "s",
	"service.sim_wall_s":      "s",
	"service.overhead_s":      "s",
	"service.journal_s":       "s",
	"service.cache_hit_ratio": "ratio",
	"service.rejected_frac":   "ratio",
	"service.stream_lag_s":    "s",

	"exp.admit_s":  "s",
	"exp.encode_s": "s",

	"sim.build_s":           "s",
	"sim.prewarm_s":         "s",
	"sim.loop_s":            "s",
	"sim.loop_cycles_per_s": "1/s",
	"sim.setup_share":       "ratio",
	"sim.allocs_per_job":    "count",

	"cpu.retired_per_loop_s": "1/s",
	"cache.warm_ops_per_s":   "1/s",
	"dram.verify_s":          "s",
	"dram.loop_ns_per_cmd":   "ns",

	"cpu.ipc":                    "uops/cycle",
	"cache.l1_hit_ratio":         "ratio",
	"cache.llc_miss_ratio":       "ratio",
	"memctrl.row_hit_ratio":      "ratio",
	"memctrl.read_queue_avg":     "requests",
	"memctrl.write_drains":       "count",
	"dram.cmds":                  "count",
	"stacks.bw_data_share":       "ratio",
	"stacks.lat_mean_ns":         "ns",
	"stacks.conservation_errors": "count",

	"bench.trace_overhead_s":     "s",
	"bench.failed_frac":          "ratio",
	"bench.job_latency_tail_pct": "%",
	"bench.job_latency_samples":  "count",
	"bench.submit_ack_tail_s":    "s",
}
