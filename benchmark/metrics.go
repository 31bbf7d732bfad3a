package main

// metricDef names one metric the harness emits. The registry below is the
// single list both the result line and BENCHMARK.json are held to (see
// TestSchemaMatchesRegistry): a metric that is printed but not declared, or
// declared but never printed, fails the lint.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them from the untraced run.
//
// The bounds are what this box allows, not what one would wish: the host
// slows the core by 20–50 % for minutes at a time, and over ten identical
// runs the quartiles of every time lay 4–19 % apart even after the probe's
// gate (README.md, "How a run is timed"), so the times have the widest bound
// the contract permits. Allocation and retained memory do not depend on the
// machine's mood (quartiles 0.3–1.8 % and 1–5 % apart) and are held tighter;
// a change that costs time usually shows there first.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.06},
	{"rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics of single layers, read from the traced run. Layer
// names are the repo's packages. A metric whose layer a workload does not
// reach is reported as 0 on that workload.
var perLayer = []metricDef{
	// saccs (facade)
	{"saccs.new_s", "s", "lower", 0},
	{"saccs.index_entities_s", "s", "lower", 0},
	{"saccs.query_ms", "ms", "lower", 0},
	{"saccs.residual_ms", "ms", "lower", 0},
	{"saccs.tags_per_op", "count", "higher", 0},
	{"saccs.results_per_op", "count", "higher", 0},
	// server
	{"server.self_ms", "ms", "lower", 0},
	{"server.request_bytes_per_op", "B", "lower", 0},
	{"server.response_bytes_per_op", "B", "lower", 0},
	// search / tokenize
	{"search.parse_ms", "ms", "lower", 0},
	{"tokenize.words_ms", "ms", "lower", 0},
	{"tokenize.tokens_per_op", "count", "lower", 0},
	// tagger (+ bert, nn, mat)
	{"tagger.decode_ms", "ms", "lower", 0},
	{"tagger.decode_us_per_token", "us", "lower", 0},
	{"tagger.sentences_per_op", "count", "lower", 0},
	{"tagger.predict_f64_ms_per_review", "ms", "lower", 0},
	// core / extcache / pairing
	{"core.extract_miss_ms", "ms", "lower", 0},
	{"core.extract_hit_ms", "ms", "lower", 0},
	{"pairing.self_ms", "ms", "lower", 0},
	{"extcache.hit_share", "ratio", "higher", 0},
	{"core.batch_shared_share", "ratio", "higher", 0},
	// shard / index / sim
	{"shard.topk_ms", "ms", "lower", 0},
	{"index.resolve_ms_per_op", "ms", "lower", 0},
	{"index.resolve_similar_share", "ratio", "lower", 0},
	{"sim.memo_hit_share", "ratio", "higher", 0},
	{"index.merge_ms_per_review", "ms", "lower", 0},
	{"index.generations_per_kop", "count", "lower", 0},
	// ingest
	{"ingest.ack_p50_ms", "ms", "lower", 0},
	{"ingest.ack_p99_ms", "ms", "lower", 0},
	{"ingest.quiesce_ms_per_cycle", "ms", "lower", 0},
	{"ingest.fsync_ms_per_append", "ms", "lower", 0},
	{"ingest.publish_ms_per_review", "ms", "lower", 0},
	{"ingest.publishes_per_kreview", "count", "lower", 0},
	{"ingest.compactions_per_kreview", "count", "lower", 0},
	{"ingest.disk_bytes_per_review_byte", "ratio", "lower", 0},
	// Go runtime
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.gc_cycles_per_kop", "count", "lower", 0},
	{"go.gc_pause_ms_per_kop", "ms", "lower", 0},
	{"go.heap_mb", "MB", "lower", 0},
	// bench (the harness): whether the run can be trusted
	{"bench.ops", "count", "higher", 0},
	{"bench.segments", "count", "higher", 0},
	{"bench.clean_share", "ratio", "higher", 0},
	{"bench.probe_us", "us", "lower", 0},
	{"bench.segment_spread", "ratio", "lower", 0},
	{"bench.segment_drift", "ratio", "lower", 0},
	{"bench.latency_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.generator_share", "ratio", "lower", 0},
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

// workloads are the ones BENCHMARK.json declares and the driver runs.
var workloads = []workloadDef{
	{"query_cold", "in-process queries whose sentences never repeat: every op pays the mixed-precision tagger decode"},
	{"query_warm", "in-process queries over 64 cached utterances: decode is bypassed, resolve-and-rank is the op"},
	{"serve_mixed", "loopback HTTP on one keep-alive connection: 3 warm : 1 cold queries, then a burst of 64 appends"},
}

// undeclared workloads run like the others (-workload, -aa, the smoke test)
// but are not in BENCHMARK.json. ingest_stream is 85 % float64 review
// extraction, the code the host's slow spells hit hardest: over ten identical
// runs its throughput lay between 150 and 440 reviews/s and the quartiles of
// every time 11–66 % apart, which no bound the contract permits can hold. It
// stays for the per-layer view of the write path and for pairwise comparisons
// made in one sitting; serve_mixed carries the write path in the gate.
var undeclared = []workloadDef{
	{"ingest_stream", "durable AppendReview in cycles of 64 then Quiesce: float64 review extraction, WAL fsync, merge, compaction"},
}

// allWorkloads is every workload the harness can run, declared ones first.
func allWorkloads() []workloadDef {
	return append(append([]workloadDef(nil), workloads...), undeclared...)
}

// metricSet collects the values of one run, keyed by registry name.
type metricSet map[string]float64

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics renders every metric of defs from set; a metric the run did
// not measure (its layer is not on this workload's path) reads 0.
func resultMetrics(defs []metricDef, set metricSet) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: set[d.Name], Unit: d.Unit}
	}
	return out
}
