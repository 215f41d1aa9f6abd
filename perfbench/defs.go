package main

// metricDef is one metric of the benchmark contract. The tables below are
// the single source for names, units and directions; BENCHMARK.json at the
// repository root repeats them, and TestBenchmarkJSONMatchesDefs keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves names, for a per-layer metric, the workload and end-to-end
	// metric a change in it should move.
	Moves string
}

// endToEndDefs are reported by every untraced run, on every workload. An op
// is one unit of caller work: an HTTP request (serve_hot, cluster_mixed,
// frontier_cold) or one 24-point study (sweep_cold).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"points_per_s", "1/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
	{"live_heap_mb", "MiB", "lower", ""},
}

// perLayerDefs are reported by every traced run, on every workload. Costs
// per call pool every traced call into the layer (set-up and answer checks
// included), so a layer a workload only touches while setting up still has
// a cost; counts, ratios and shares cover the timed phase only and read 0
// where the workload does not use the layer. Shares are fractions of the
// summed op latency.
var perLayerDefs = []metricDef{
	{"service.requests", "count", "higher", "serve_hot ops_per_s"},
	{"service.self_share", "ratio", "lower", "serve_hot ops_per_s, latency_p50_ms"},
	{"service.wire_share", "ratio", "lower", "serve_hot latency_p50_ms"},
	{"obs.scrape_share", "ratio", "lower", "serve_hot latency_tail_ms"},
	{"engine.eval_ms_per_call", "ms", "lower", "cluster_mixed latency_tail_ms; frontier_cold latency_p50_ms"},
	{"engine.lookup_share", "ratio", "lower", "serve_hot latency_p50_ms"},
	{"engine.hit_ratio", "ratio", "higher", "cluster_mixed latency_p50_ms"},
	{"engine.evals", "count", "lower", "cluster_mixed latency_tail_ms"},
	{"engine.evictions", "count", "lower", "cluster_mixed latency_tail_ms"},
	{"engine.frontier_eval_ratio", "ratio", "lower", "frontier_cold latency_p50_ms"},
	{"cluster.hop_share", "ratio", "lower", "cluster_mixed latency_p50_ms"},
	{"cluster.peer_solves", "count", "lower", "cluster_mixed latency_p50_ms"},
	{"cluster.fills", "count", "lower", "cluster_mixed ops_per_s"},
	{"cluster.routed_remote_ratio", "ratio", "lower", "cluster_mixed latency_p50_ms"},
	{"core.build_model_ms_per_call", "ms", "lower", "sweep_cold points_per_s"},
	{"core.analyze_us_per_call", "us", "lower", "sweep_cold points_per_s"},
	{"core.warm_speedup", "ratio", "higher", "sweep_cold points_per_s"},
	{"core.incremental_speedup", "ratio", "higher", "sweep_cold points_per_s"},
	{"core.structural_repreps", "count", "lower", "sweep_cold points_per_s"},
	{"spn.explore_ms_per_call", "ms", "lower", "sweep_cold points_per_s; cluster_mixed latency_tail_ms"},
	{"spn.states_per_s", "1/s", "higher", "sweep_cold points_per_s"},
	{"ctmc.assemble_ms_per_call", "ms", "lower", "sweep_cold points_per_s"},
	{"ctmc.solve_ms_per_call", "ms", "lower", "sweep_cold points_per_s; frontier_cold latency_p50_ms"},
	{"ctmc.solves", "count", "lower", "frontier_cold latency_p50_ms"},
	{"ctmc.solve_iters_per_solve", "count", "lower", "sweep_cold points_per_s"},
	{"ctmc.patched_solves", "count", "higher", "sweep_cold points_per_s"},
	{"ctmc.refactorizations", "count", "lower", "sweep_cold points_per_s"},
	{"persist.setup_share", "ratio", "lower", "serve_hot setup_s"},
	{"persist.snapshot_mb", "MiB", "lower", "serve_hot setup_s"},
}

// workloadDef is one seeded workload: the traffic it sends and why.
type workloadDef struct {
	Name string
	Why  string
	// Clients is the number of closed-loop client goroutines.
	Clients int
	// TailPct is the percentile reported as latency_tail_ms: the highest
	// one that keeps at least ten samples beyond it in a default-length run.
	TailPct float64
	run     func(rc *runCtx) error
	digest  func(seed uint64) string
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadDef{
	{
		Name:    "serve_hot",
		Why:     "warm HTTP lookups of a persisted 1024-point pool; assumed mix, not observed: eval/batch/NDJSON thirds, Zipf(1.1) points. Codec, engine cache and wire do the work, no solves",
		Clients: 2, TailPct: 99,
		run: runServeHot, digest: serveHotDigest,
	},
	{
		Name:    "cluster_mixed",
		Why:     "3-node ring, R=2; assumed mix, not observed: 4-point batches of 1 fresh point and 3 repeats Zipf(1.1) over the last 256 issued. Solves, replication, peer hops and hits",
		Clients: 2, TailPct: 99,
		run: runClusterMixed, digest: clusterMixedDigest,
	},
	{
		Name:    "sweep_cold",
		Why:     "library TIDS sweeps on fresh engines; assumed mix, not observed: default, warm-start and incremental paths in equal shares, N 40/50/60. spn, ctmc and core do the work",
		Clients: 1, TailPct: 90,
		run: runSweepCold, digest: sweepColdDigest,
	},
	{
		Name:    "frontier_cold",
		Why:     "POST /v1/frontier, a fresh base per op over a 192-point space; assumed mix, not observed: N 20/25/30. Adaptive pruning decides how many small-N solves run",
		Clients: 2, TailPct: 90,
		run: runFrontierCold, digest: frontierColdDigest,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
