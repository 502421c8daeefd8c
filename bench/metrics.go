package main

// metric is one benchmark metric: its name and unit as printed and which
// direction is better. End-to-end metrics carry the regression bound, a
// share of the parent's median (Floor is an absolute minimum bound in the
// metric's own unit); layer metrics instead name the end-to-end metric and
// workload they are expected to move. BENCHMARK.json mirrors this table
// (bench_test.go checks that the two agree).
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
	Moves  string
}

// endToEnd are the metrics a user of the advisor sees, reported by every
// workload with tracing off.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count/op", Better: "lower", Bound: 0.03},
	{Name: "alloc_mb_per_op", Unit: "MB/op", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not drive reports 0.
var perLayer = []metric{
	{"fragment.enumerate_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.candidates", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.survivors", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.geometry_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.sizeclass_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.fragments", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"fragment.size_classes", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},

	{"costmodel.lowerbound_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1"},
	{"costmodel.lowerbound_calls", "count", "lower", 0, 0, "latency_p50_ms on cli-apb1"},
	{"costmodel.evaluate_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1 and skewed-greedy"},
	{"costmodel.outcomes_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1; not skewed-greedy or service-mix"},
	{"costmodel.outcome_tables", "count", "lower", 0, 0, "latency_p50_ms on cli-apb1; not skewed-greedy or service-mix"},
	{"costmodel.outcome_cells", "count", "lower", 0, 0, "latency_p50_ms on cli-apb1; not skewed-greedy or service-mix"},
	{"costmodel.kernel_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"costmodel.kernel_prices", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"costmodel.walk_est_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy and cli-apb1; throughput_ops_s on sweep-job"},
	{"costmodel.walk_patterns", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy and cli-apb1; throughput_ops_s on sweep-job"},
	{"costmodel.walk_cells", "count", "lower", 0, 0, "latency_p50_ms on skewed-greedy and cli-apb1; throughput_ops_s on sweep-job"},
	{"costmodel.response_exact_ratio", "ratio", "higher", 0, 0, "latency_p50_ms on skewed-greedy and cli-apb1"},
	{"costmodel.top_candidate_share", "ratio", "lower", 0, 0, "latency_p50_ms on cli-apb1 (a straggler caps the parallel speedup)"},

	{"bitmap.plan_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"alloc.allocate_ms", "ms", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},
	{"alloc.greedy_share", "ratio", "lower", 0, 0, "latency_p50_ms on skewed-greedy"},

	{"core.setup_ms", "ms", "lower", 0, 0, "latency_p50_ms on service-mix"},
	{"core.pipeline_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1 and skewed-greedy"},
	{"core.rank_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1"},
	{"core.prune_skip_ratio", "ratio", "higher", 0, 0, "latency_p50_ms on cli-apb1"},
	{"core.prune_skip_spread", "ratio", "lower", 0, 0, "latency_p90_ms on cli-apb1"},

	{"rank.collect_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1"},
	{"analysis.report_ms", "ms", "lower", 0, 0, "latency_p50_ms on cli-apb1"},
	{"config.parse_build_ms", "ms", "lower", 0, 0, "latency_p50_ms on service-mix"},

	{"server.parse_ms", "ms", "lower", 0, 0, "latency_p50_ms on service-mix"},
	{"server.queue_ms", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"server.evaluate_ms", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"server.serialize_ms", "ms", "lower", 0, 0, "latency_p50_ms on service-mix"},
	{"server.cache_hit_ratio", "ratio", "higher", 0, 0, "latency_p50_ms on service-mix"},
	{"server.coalesced", "count", "higher", 0, 0, "latency_p90_ms on service-mix"},
	{"server.shed", "count", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"server.timeouts", "count", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"service.max_rps", "1/s", "higher", 0, 0, "latency_p90_ms on service-mix"},

	{"jobs.queue_ms", "ms", "lower", 0, 0, "latency_p50_ms on sweep-job"},
	{"jobs.evaluate_ms", "ms", "lower", 0, 0, "latency_p50_ms on sweep-job"},
	{"jobs.checkpoint_bytes", "bytes", "lower", 0, 0, "latency_p50_ms on sweep-job"},
	{"jobs.retries", "count", "lower", 0, 0, "latency_p50_ms on sweep-job"},
	{"jobs.checkpoint_failures", "count", "lower", 0, 0, "latency_p50_ms on sweep-job"},

	{"sweep.scenario_ms", "ms", "lower", 0, 0, "throughput_ops_s on sweep-job"},
	{"sweep.advisory_groups", "count", "lower", 0, 0, "throughput_ops_s on sweep-job"},
	{"sweep.geometry_cache_entries", "count", "lower", 0, 0, "throughput_ops_s on sweep-job"},

	{"runtime.gc_cycles_per_op", "count/op", "lower", 0, 0, "allocs_per_op and latency_p90_ms on every workload"},
	{"runtime.gc_pause_ms_per_op", "ms/op", "lower", 0, 0, "latency_p90_ms on every workload"},
	{"runtime.heap_peak_mb", "MB", "lower", 0, 0, "alloc_mb_per_op on every workload"},
	{"runtime.goroutines_leaked", "count", "lower", 0, 0, "every workload (must stay 0)"},

	{"loadgen.lag_p90_ms", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"loadgen.p90_ms_at_50", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"loadgen.p90_ms_at_100", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"loadgen.p90_ms_at_200", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"loadgen.p90_ms_at_400", "ms", "lower", 0, 0, "latency_p90_ms on service-mix"},
	{"loadgen.p90_ms_at_800", "ms", "lower", 0, 0, "service.max_rps on service-mix"},

	{"trace.coverage", "ratio", "higher", 0, 0, "none: must stay in [0.8, 1.2]"},
	{"trace.overhead_pct", "%", "lower", 0, 0, "none: the cost of tracing"},
}
