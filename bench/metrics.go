package main

// metricDef names one benchmark metric. The tables below are the single
// source for what a run prints; BENCHMARK.json repeats them for the
// driver and TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of the issue's end-to-end table that repeat
// within their bounds on the box the benchmark was written on: the driver's
// end_to_end list. Every one is reported on every workload by a --trace 0
// run and is never zero. Bound is the share of the parent's median a metric
// may worsen by; allocs_per_req and rss_mb carry the issue's, setup_s the
// driver's maximum, because the driver's contract asks for the largest
// bound there and does not let setup_s be demoted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.02},
	{"rss_mb", "MiB", "lower", 0.10},
}

// demoted are the metrics of the issue's end-to-end table that the driver's
// end_to_end list cannot hold. Both kinds of run measure them the same way:
// a --trace 0 run writes them to its report, where -compare reads them, and
// a --trace 1 run prints them as demoted.<name>, which is how
// BENCHMARK.json lists them under per_layer. Bound is the issue's, kept for
// -compare; Absolute makes it a difference instead of a share. Why says
// what demoted the metric; the spreads are those of five sets of ten seeds
// per workload at the commit that added the benchmark, made over six hours
// (README.md has the last two sets).
var demoted = []struct {
	metricDef
	Absolute bool
	Why      string
}{
	{metricDef{"throughput_rps", "1/s", "higher", 0.05}, false,
		"the shared box changes speed by up to 1.8x for minutes at a time: ten runs spread 4-28 % depending on the hour, against a bound of 5 %"},
	{metricDef{"cpu_us_per_req", "us", "lower", 0.05}, false,
		"the slowdown is in the memory system, so CPU time per request follows it: spread 4-25 %, bound 5 %"},
	{metricDef{"p50_ms", "ms", "lower", 0.10}, false,
		"at a fixed arrival rate a slower box is a busier one and queueing amplifies it: spread 7-134 %, bound 10 %"},
	{metricDef{"p99_ms", "ms", "lower", 0.10}, false,
		"as p50_ms: spread 15-68 %, bound 10 %"},
	{metricDef{"op_p50_ms", "ms", "lower", 0.10}, false,
		"exists on write_mix only, where an end_to_end metric is printed, and never 0, on every workload; spread 20-64 %"},
	{metricDef{"fail_ratio", "ratio", "lower", 0.001}, true,
		"0 on a correct program, and an end_to_end metric may never read 0; the result line's failed/attempted carries it"},
}

// perLayer are the single-layer metrics of a --trace 1 run, named
// <module>.<what>. They carry no bound: they say where an end-to-end
// change came from, they do not gate it.
var perLayer = []metricDef{
	// end-to-end metrics that cannot be in end_to_end; see demoted
	{"demoted.throughput_rps", "1/s", "higher", 0},
	{"demoted.cpu_us_per_req", "us", "lower", 0},
	{"demoted.p50_ms", "ms", "lower", 0},
	{"demoted.p99_ms", "ms", "lower", 0},
	{"demoted.op_p50_ms", "ms", "lower", 0},
	{"demoted.fail_ratio", "ratio", "lower", 0},
	// load generator validity
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.p999_ms", "ms", "lower", 0},
	// net/http server + loopback + client
	{"http.self_us", "us", "lower", 0},
	{"http.probe_us", "us", "lower", 0},
	{"http.resp_bytes", "count", "lower", 0},
	// internal/edge
	{"edge.self_us", "us", "lower", 0},
	{"edge.hit_ratio", "ratio", "higher", 0},
	{"edge.origin_fetches_per_req", "count", "lower", 0},
	{"edge.purged_per_write", "count", "lower", 0},
	// internal/admit
	{"admit.acquire_us", "us", "lower", 0},
	{"admit.shed", "count", "lower", 0},
	{"admit.queued_high_water", "count", "lower", 0},
	// internal/mvc (controller, page service, unit services)
	{"mvc.controller_self_us", "us", "lower", 0},
	{"mvc.op_self_us", "us", "lower", 0},
	{"mvc.page_self_us", "us", "lower", 0},
	{"mvc.units_per_page", "count", "lower", 0},
	{"mvc.unit_us", "us", "lower", 0},
	{"mvc.op_exec_us", "us", "lower", 0},
	// internal/cache (bean cache behind mvc.CachedBusiness)
	{"cache.self_us", "us", "lower", 0},
	{"cache.purge_self_us", "us", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.get_us", "us", "lower", 0},
	{"cache.get_allocs", "count", "lower", 0},
	{"cache.evictions_per_req", "count", "lower", 0},
	{"cache.invalidated_per_write", "count", "lower", 0},
	// internal/ejb (framed wire + container)
	{"ejb.call_self_us", "us", "lower", 0},
	{"ejb.calls_per_req", "count", "lower", 0},
	{"ejb.units_per_call", "count", "higher", 0},
	{"ejb.frames_per_req", "count", "lower", 0},
	{"ejb.container_queue_p99_us", "us", "lower", 0},
	{"ejb.codec_us", "us", "lower", 0},
	{"ejb.codec_allocs", "count", "lower", 0},
	// internal/rdb
	{"rdb.point_us", "us", "lower", 0},
	{"rdb.point_allocs", "count", "lower", 0},
	{"rdb.scan_us", "us", "lower", 0},
	{"rdb.plan_hit_ratio", "ratio", "higher", 0},
	{"rdb.stmt_hit_ratio", "ratio", "higher", 0},
	{"rdb.point_lookups_per_req", "count", "lower", 0},
	{"rdb.range_scans_per_req", "count", "lower", 0},
	{"rdb.full_scans_per_req", "count", "lower", 0},
	{"rdb.row_faults_per_req", "count", "lower", 0},
	{"rdb.rows_resident", "count", "higher", 0},
	{"rdb.commit_us", "us", "lower", 0},
	{"rdb.recover_ms", "ms", "lower", 0},
	// internal/rdb/storage/wal
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.fsyncs_per_append", "ratio", "lower", 0},
	{"wal.bytes_per_append", "count", "lower", 0},
	{"wal.appends_per_write", "count", "lower", 0},
	// internal/rdb/storage/pager
	{"pager.pool_hit_ratio", "ratio", "higher", 0},
	{"pager.evictions_per_req", "count", "lower", 0},
	{"pager.checkpoints", "count", "lower", 0},
	{"pager.get_us", "us", "lower", 0},
	// internal/render
	{"render.self_us", "us", "lower", 0},
	{"render.page_us", "us", "lower", 0},
	{"render.page_allocs", "count", "lower", 0},
	// harness validity
	{"trace.sum_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// workloadSpec is one traffic mix. The request stream of a workload is a
// pure function of the seed; nothing here is measured during a run.
type workloadSpec struct {
	Name string
	Why  string
	// Rate is the open-phase arrival rate in requests per second: half the
	// median closed-phase throughput of three runs at the commit that added
	// the benchmark (see -calibrate), rounded to 50.
	Rate float64
	// Cookies makes every request carry one of 64 server-issued session
	// cookies, which bypasses the edge.
	Cookies bool
	// Cold spreads requests uniformly over every public page and id and
	// reopens the database with a quarter of its rows resident and half
	// of its pages pooled.
	Cold bool
	// WriteShare is the fraction of requests that are _modify operations.
	WriteShare float64
}

var workloads = []workloadSpec{
	{Name: "anon_hot", Rate: 11250,
		Why: "anonymous Zipf GETs over 256 hot URLs: every page is assembled at the edge, so http+edge do the work and mvc/ejb/rdb none"},
	{Name: "session_hot", Rate: 1050, Cookies: true,
		Why: "same URLs with a session cookie: bypasses the edge and walks controller, page schedule, bean cache, framed wire, container, plan reads, render"},
	{Name: "session_cold", Rate: 550, Cookies: true, Cold: true,
		Why: "cookie traffic uniform over all public pages and ids with 1/4 rows resident and 1/2 pages pooled: every cache level misses, rdb and pager do the work"},
	{Name: "write_mix", Rate: 850, WriteShare: 0.05,
		Why: "anon_hot with 5% _modify operations: commit, wal fsync, bean invalidation and edge purge, then refilling reads"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
