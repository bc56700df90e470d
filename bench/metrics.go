package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesMetrics keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndMetrics are what a user of the system sees. Their bounds live in
// BENCHMARK.json only. failed_ratio is not among them because it is 0 on
// every healthy run and the contract wants metrics that never are; it is
// carried by the result line's "attempted" and "failed" instead.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"server_peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics are single-layer numbers from the traced phase, prefixed
// with the module they describe. Source S is a client-side span, M the
// server's /metrics over the traced phase, P an in-process probe.
var perLayerMetrics = []metricDef{
	// the whole path, traced: against ops_per_s this is the tracing overhead
	{"trace.ops_per_s", "1/s", "higher"},
	// pkg/flockclient — S
	{"sdk.exec_p50_ms", "ms", "lower"},
	{"sdk.exec_mean_ms", "ms", "lower"},
	{"sdk.fetch_page_p50_ms", "ms", "lower"},
	{"sdk.pages_per_query", "count", "lower"},
	{"sdk.read_p50_ms", "ms", "lower"},
	{"sdk.write_p50_ms", "ms", "lower"},
	{"sdk.latency_p99_ms", "ms", "lower"},
	{"sdk.decode_overhead_us", "us", "lower"},
	// internal/server — S and M
	{"server.http_overhead_us", "us", "lower"},
	{"server.query_ms_mean", "ms", "lower"},
	{"server.query_ms_mean.select", "ms", "lower"},
	{"server.query_ms_mean.dml", "ms", "lower"},
	{"server.query_ms_mean.fetch", "ms", "lower"},
	{"server.admission_wait_us_mean", "us", "lower"},
	{"server.admission_rejected", "count", "lower"},
	{"server.plancache_hit_ratio", "ratio", "higher"},
	{"server.plancache_evictions", "count", "lower"},
	{"server.cursors_open_max", "count", "lower"},
	// internal/sql — P
	{"sql.lex_us", "us", "lower"},
	{"sql.parse_us", "us", "lower"},
	{"sql.parse_allocs", "count", "lower"},
	// internal/opt — P
	{"opt.plan_us", "us", "lower"},
	{"opt.plan_allocs", "count", "lower"},
	{"opt.plan_predict_us", "us", "lower"},
	// internal/core and internal/provenance — P
	{"core.exec_prepared_us", "us", "lower"},
	{"core.governance_overhead_us", "us", "lower"},
	{"provenance.capture_us", "us", "lower"},
	// internal/engine — P and M
	{"engine.exec_us", "us", "lower"},
	{"engine.exec_allocs", "count", "lower"},
	{"engine.rows_scanned_per_row_out", "ratio", "lower"},
	{"engine.parallel_efficiency", "ratio", "higher"},
	{"engine.workers_per_query", "ratio", "higher"},
	{"wal.commit_sync_ms", "ms", "lower"},
	{"wal.commit_nosync_us", "us", "lower"},
	{"wal.records_per_fsync", "ratio", "higher"},
	{"wal.bytes_per_commit", "B", "lower"},
	{"checkpoint.count", "count", "lower"},
	// internal/infer — M and P
	{"infer.cache_hit_ratio", "ratio", "higher"},
	{"infer.cache_stale", "count", "lower"},
	{"infer.rows_per_backend_call", "ratio", "higher"},
	{"infer.coalesced", "count", "higher"},
	{"infer.direct", "count", "lower"},
	{"infer.degraded", "count", "lower"},
	{"infer.score_1row_miss_us", "us", "lower"},
	{"infer.score_1row_hit_us", "us", "lower"},
	{"infer.score_256rows_us", "us", "lower"},
	// internal/onnx and internal/ml — P
	{"onnx.direct_1row_us", "us", "lower"},
	{"onnx.score_rows_per_s", "1/s", "higher"},
	// internal/repl — M
	{"repl.frames_per_batch", "ratio", "higher"},
	{"repl.bytes_per_frame", "B", "lower"},
	{"repl.commit_gate_waits", "count", "lower"},
	{"repl.quorum_timeouts", "count", "lower"},
	{"repl.follower_lag_frames_max", "count", "lower"},
	{"repl.catchup_ms", "ms", "lower"},
}
