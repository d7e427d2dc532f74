package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestMetricsMatchBenchmarkJSON keeps the
// two in step. README.md says which end-to-end metric, on which
// workload, each per-layer metric is expected to move.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"tenant_minutes_per_s", "tmin/s", "higher"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer are reported by traced runs, on every workload; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fleet.run_s", "s", "lower"},
	{"fleet.self_s", "s", "lower"},
	{"fleet.cpu_util", "share", "higher"},
	{"fleet.alloc_mb", "MiB", "lower"},
	{"fleet.gc_cycles", "count", "lower"},
	{"fleet.sleep_share", "share", "higher"},
	{"fleet.deferral_share", "share", "lower"},
	{"recommend.observe_calls", "count", "lower"},
	{"recommend.observe_run_calls", "count", "lower"},
	{"recommend.observe_run_s", "s", "lower"},
	{"recommend.catchup_share", "share", "higher"},
	{"recommend.recommend_calls", "count", "lower"},
	{"recommend.recommend_s", "s", "lower"},
	{"recommend.recommend_ns", "ns", "lower"},
	{"core.decide_ns", "ns", "lower"},
	{"pvp.build_curve_ns", "ns", "lower"},
	{"k8s.enactments", "count", "lower"},
	{"k8s.resize_ns", "ns", "lower"},
	{"faults.draws", "count", "lower"},
	{"faults.drop_sample_ns", "ns", "lower"},
	{"obs.emit_calls", "count", "lower"},
	{"obs.emit_s", "s", "lower"},
	{"obs.bytes", "B", "lower"},
	{"serve.post_p50_ms", "ms", "lower"},
	{"serve.post_handler_p50_us", "us", "lower"},
	{"serve.post_handler_p99_us", "us", "lower"},
	{"serve.get_handler_p99_us", "us", "lower"},
	{"serve.client_overhead_p50_us", "us", "lower"},
	{"serve.post_p99_ms", "ms", "lower"},
	{"serve.get_p99_ms", "ms", "lower"},
	{"serve.post_samples", "count", "higher"},
	{"serve.queue_lag_p99_ms", "ms", "lower"},
	{"serve.stale_read_share", "share", "lower"},
	{"serve.drain_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.errors", "count", "lower"},
	{"serve.alloc_kb_per_req", "KiB", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.span_share", "share", "higher"},
}
