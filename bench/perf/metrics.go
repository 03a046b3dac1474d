package main

import (
	"sort"
	"time"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a unit test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median a later change may lose; 0 = none
}

// endToEndDefs are the metrics a user of the service would see, measured
// with tracing off. Bounds are sized to the spread this two-core sandbox
// shows between runs of identical code, so that a breach is a change and
// not the weather: timings and throughput drift by 10-15 % with the
// machine's neighbours, counts do not.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"upstream_q_per_op", "count", "lower", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.10},
	{"recover_s", "s", "lower", 0.25},
}

// perLayerDefs are the single-layer metrics of the traced run, layer name
// first. They carry no bound in BENCHMARK.json. Two keep a bound for the
// compare mode: segment.data_dir_mb, which the contract cannot hold as an
// end-to-end metric because it is zero on three workloads, and
// service.first_tuple_p90_ms, a client-side time whose spread between seeds
// (17-21 %) sits too close to the largest bound the contract allows.
var perLayerDefs = []metricDef{
	{"service.codec_us_per_op", "us", "lower", 0},
	{"service.resp_bytes_per_op", "B", "lower", 0},
	{"service.first_tuple_p90_ms", "ms", "lower", 0.25},
	{"service.first_event_us", "us", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"core.self_us_per_op", "us", "lower", 0},
	{"core.probes_per_op", "count", "lower", 0},
	{"core.probe_rounds_per_op", "count", "lower", 0},
	{"core.reissued_probe_frac", "ratio", "lower", 0},
	{"core.lru_entries", "count", "higher", 0},
	{"core.spec_wasted_frac", "ratio", "lower", 0},
	{"core.reval_promoted", "count", "higher", 0},
	{"core.reval_evicted", "count", "lower", 0},
	{"index.dense1d_regions", "count", "higher", 0},
	{"index.dense1d_lookup_ns", "ns", "lower", 0},
	{"index.densemd_regions", "count", "higher", 0},
	{"index.densemd_max_bucket", "count", "lower", 0},
	{"history.rows", "count", "lower", 0},
	{"history.min_ns_per_call", "ns", "lower", 0},
	{"history.max_ns_per_call", "ns", "lower", 0},
	{"history.count_ns_per_call", "ns", "lower", 0},
	{"history.scan_ns_per_row", "ns", "lower", 0},
	{"history.add_ns_per_tuple", "ns", "lower", 0},
	{"colstore.blocks", "count", "lower", 0},
	{"colstore.bytes_per_tuple", "B", "lower", 0},
	{"guard.self_us_per_probe", "us", "lower", 0},
	{"guard.retries", "count", "lower", 0},
	{"guard.hedges", "count", "lower", 0},
	{"guard.failures", "count", "lower", 0},
	{"remote.self_us_per_probe", "us", "lower", 0},
	{"remote.resp_bytes_per_probe", "B", "lower", 0},
	{"hidden.serve_us_per_probe", "us", "lower", 0},
	{"hidden.overflow_frac", "ratio", "lower", 0},
	{"hidden.queries", "count", "lower", 0},
	{"segment.checkpoints", "count", "higher", 0},
	{"segment.bytes_appended", "B", "lower", 0},
	{"segment.bytes_per_history_tuple", "B", "lower", 0},
	{"segment.compactions", "count", "lower", 0},
	{"segment.pending_ops_end", "count", "lower", 0},
	{"segment.checkpoint_ms_p50", "ms", "lower", 0},
	{"segment.replay_ms", "ms", "lower", 0},
	{"segment.data_dir_mb", "MB", "lower", 0.05},
	{"loadgen.late_p95_ms", "ms", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"loadgen.client_us_per_op", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.self_sum_frac", "ratio", "lower", 0},
	{"trace.stray_frac", "ratio", "lower", 0},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches units to exactly the metrics defs lists; a value the
// run did not produce is reported as 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// firstTuple is the tail percentile, over the stream operations, of each
// stream's fastest time to its first tuple.
func (r *e2eRun) firstTuple() (rung, ms float64, samples int) {
	first := r.fastest(func(o opResult) time.Duration { return o.first })
	rung, ms = tailPercentile(first, 90)
	return rung, ms, len(first)
}

// layerCounts assembles the per-layer counts one end-to-end round provides:
// deltas of the service's own statistics and the stub's counters.
func (r *round) layerCounts() map[string]float64 {
	a, b := r.statsBefore, r.statsAfter
	n := float64(len(r.measured.results))
	st := r.measured.stub
	backlog := 0
	late := make([]float64, 0, len(r.measured.results))
	for _, res := range r.measured.results {
		backlog = max(backlog, res.backlog)
		late = append(late, msOf(res.late))
	}
	sort.Float64s(late)
	return map[string]float64{
		"service.shed":                    float64(r.measured.shed),
		"core.probes_per_op":              float64(r.measured.issued) / n,
		"core.reissued_probe_frac":        ratio(float64(st.memoHits), float64(st.queries)),
		"core.lru_entries":                float64(b.ProbeCacheEntries),
		"core.spec_wasted_frac":           ratio(float64(b.SpecProbesWasted-a.SpecProbesWasted), float64(b.SpecProbesIssued-a.SpecProbesIssued)),
		"core.reval_promoted":             float64(b.RevalPromoted - a.RevalPromoted),
		"core.reval_evicted":              float64(b.RevalEvicted - a.RevalEvicted),
		"index.densemd_regions":           float64(b.MDDenseRegions),
		"index.densemd_max_bucket":        float64(b.DenseMDMaxBucket),
		"history.rows":                    float64(b.HistoryTuples),
		"colstore.blocks":                 float64(b.StorageBlocks),
		"colstore.bytes_per_tuple":        ratio(float64(b.StorageApproxBytes), float64(b.StorageResidentTuples)),
		"guard.retries":                   float64(b.ProbeRetries - a.ProbeRetries),
		"guard.hedges":                    float64(b.ProbeHedges - a.ProbeHedges),
		"guard.failures":                  float64(b.ProbeFailures - a.ProbeFailures),
		"remote.resp_bytes_per_probe":     ratio(float64(st.respBytes), float64(st.queries)),
		"hidden.overflow_frac":            ratio(float64(st.overflows), float64(st.queries)),
		"hidden.queries":                  float64(st.queries),
		"segment.checkpoints":             float64(b.PersistCheckpoints),
		"segment.bytes_appended":          float64(b.PersistBytesAppended),
		"segment.bytes_per_history_tuple": ratio(float64(b.PersistBytesAppended), float64(b.HistoryTuples)),
		"segment.compactions":             float64(b.PersistCompactions),
		"segment.pending_ops_end":         float64(b.PersistPendingOps),
		"segment.data_dir_mb":             float64(r.dataDir) / (1 << 20),
		"loadgen.late_p95_ms":             percentile(late, 95),
		"loadgen.backlog_max":             float64(backlog),
		"loadgen.cpu_share":               r.cpuShare(),
	}
}
