package main

// The benchmark's fixed vocabulary: workload sizes and the metric names
// with their units. BENCHMARK.json at the repository root repeats the
// names and adds each end-to-end metric's direction and bound;
// TestSpecMatchesBenchmarkJSON keeps the two in step.

// defaultSeconds is the measured time of one run when -seconds is absent;
// BENCHMARK.json's run_seconds carries the same value.
const defaultSeconds = 15

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow disk flush or scheduler hiccup does not decide it.
const setupRepeats = 3

// buildSpec fixes one build workload. Sizes are chosen so one build takes
// 0.4 to 1.2 s on two cores: a run then times 12 to 30 builds.
type buildSpec struct {
	name      string
	algo      string // a dwmaxerr.Algorithm, or conCluster
	gen       string // "nyct" or "uniform"
	logN      int    // N = 2^logN values
	logSub    int    // sub-tree leaves = 2^logSub
	budgetDiv int    // B = N / budgetDiv
	delta     float64
	reducers  int
}

// conCluster marks the workload that runs dist.CONCluster over the TCP
// engine instead of dwmaxerr.Build over the in-process one.
const conCluster = "con-cluster"

// serveSpec fixes one serve workload.
type serveSpec struct {
	name        string
	shards      int     // shard files published
	distinct    int     // distinct synopses among them (the rest are copies under other keys)
	logN        int     // values per shard = 2^logN
	budget      int     // B of every shard
	cacheShards int     // NodeConfig.CacheShards
	pointFrac   float64 // share of /point queries; the rest are /range
	openRate    float64 // open-loop arrival rate, queries per second
	warmQueries int     // closed-loop queries sent during set-up
	verify      int     // queries of the seeded verification pass
}

// buildSpecs returns the build workloads, at toy sizes when quick.
func buildSpecs(quick bool) []buildSpec {
	specs := []buildSpec{
		// Reducers is pinned to 1: DGreedyAbs with its default 4 reducers
		// races on a shared map at GOMAXPROCS >= 2 (ROADMAP open item 1),
		// and it stays pinned so later numbers compare with these.
		{name: "dgreedy-local", algo: "dgreedyabs", gen: "nyct", logN: 16, logSub: 12, budgetDiv: 8, reducers: 1},
		{name: "dindirect-local", algo: "dindirecthaar", gen: "uniform", logN: 17, logSub: 12, budgetDiv: 8, delta: 100},
		{name: conCluster, algo: conCluster, gen: "uniform", logN: 19, logSub: 15, budgetDiv: 8},
	}
	if quick {
		for i := range specs {
			specs[i].logN, specs[i].logSub = 11, 8
		}
	}
	return specs
}

// serveSpecs returns the serve workloads, at toy sizes when quick.
func serveSpecs(quick bool) []serveSpec {
	specs := []serveSpec{
		{name: "serve-hot", shards: 16, distinct: 16, logN: 14, budget: 1024, cacheShards: 64,
			pointFrac: 0.75, openRate: 9000, warmQueries: 2000, verify: 4000},
		{name: "serve-cold", shards: 256, distinct: 16, logN: 14, budget: 1024, cacheShards: 16,
			pointFrac: 0.5, openRate: 4000, warmQueries: 2000, verify: 4000},
	}
	if quick {
		for i := range specs {
			s := &specs[i]
			s.logN, s.budget, s.distinct = 9, 32, 4
			s.warmQueries, s.verify, s.openRate = 100, 100, 500
			if s.shards > 48 {
				s.shards = 48
			}
		}
	}
	return specs
}

func workloadNames() []string {
	var names []string
	for _, b := range buildSpecs(false) {
		names = append(names, b.name)
	}
	for _, s := range serveSpecs(false) {
		names = append(names, s.name)
	}
	return names
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports all
// of them; "operation" means one build on a build workload and one query
// on a serve workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median of setupRepeats set-ups: data, files, cluster start, warm-up
	{"op_p50_ms", "ms"},    // median wall time of one build / of one query from its intended send time
	{"op_tail_ms", "ms"},   // p90 of the timed builds / p99 of queries (median over one-second windows)
	{"ops_per_s", "1/s"},   // closed-loop throughput: builds back to back / 2 HTTP clients
	{"bytes_per_op", "B"},  // shuffle bytes of one build / response bytes of one query
	{"max_abs_err", "abs"}, // independently evaluated max |value - approximation|
}

// perLayer is the traced pass's account, one entry per package-level
// measurement. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"wavelet.transform_ns_per_value", "ns"},
	{"greedy.run_ns_per_value", "ns"},
	{"dp.minhaarspace_ns_per_value", "ns"},
	{"dataset.read_ns_per_value", "ns"},
	{"synopsis.point_ns", "ns"},
	{"synopsis.range_ns", "ns"},
	{"dist.greedy_runs", "count"},
	{"dist.greedy_candidates", "count"},
	{"dist.greedy_runs_per_candidate", "ratio"},
	{"dist.probes", "count"},
	{"dist.jobs", "count"},
	{"dist.layer_rows", "count"},
	{"dist.layer_row_bytes", "B"},
	{"dist.eq6_pred_bytes", "B"},
	{"dist.driver_s", "s"},
	{"mr.shuffle_records", "count"},
	{"mr.map_task_s", "s"},
	{"mr.reduce_task_s", "s"},
	{"mr.job_wall_s", "s"},
	{"mr.job_overhead_ms", "ms"},
	{"mr.shuffle_ns_per_record", "ns"},
	{"mr.wire_bytes_sent", "B"},
	{"mr.wire_bytes_per_shuffle_byte", "ratio"},
	{"mr.sort_radix_frac", "ratio"},
	{"mr.arena_alloc_frac", "ratio"},
	{"mr.task_retries", "count"},
	{"mr.speculative_attempts", "count"},
	{"serve.answer_us", "us"},
	{"serve.http_floor_us", "us"},
	{"serve.solo_http_us", "us"},
	{"serve.routed_us", "us"},
	{"serve.router_hop_us", "us"},
	{"serve.service_p99_ms", "ms"},
	{"serve.p999_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.stray_fills", "count"},
	{"serve.shard_load_us", "us"},
	{"serve.failovers", "count"},
	{"serve.forward_errors", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.not_owned", "count"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"rt.alloc_kb_per_op", "kB"},
	{"rt.mallocs_per_op", "count"},
	{"rt.gc_pause_ms_per_s", "ms/s"},
	{"rt.peak_heap_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}
