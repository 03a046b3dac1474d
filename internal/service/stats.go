// The service's counters: UpstreamStats, declared once per namespace, and
// the service-level Stats, served as JSON at /v1/stats and in Prometheus text
// exposition format (version 0.0.4) at /metrics — hand-rendered, since the
// service has no dependencies and the format is a few fmt.Fprintf lines per
// series. Both render the same Stats snapshot, so the two endpoints can never
// disagree; docs/operations.md is the metrics reference.

package service

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/hidden"
)

// UpstreamStats is one namespace's counters, served under /v1/stats (the
// Upstreams map), /v1/upstreams listings and /v1/upstreams/{ns}/stats, and
// rendered on /metrics by upstreamSeries. Its engine half is core.Stats,
// embedded so its fields are this block's keys; the rest is the serving
// tier's own.
type UpstreamStats struct {
	// URL is the upstream's endpoint ("" for an in-process database).
	URL string `json:"url,omitempty"`
	// Default marks the default namespace: the first registered, the one
	// Server.Rerank, Server.RerankBatch and Server.Engine serve.
	Default bool `json:"default,omitempty"`
	// AdmissionWeight is the per-session multiplier this namespace applies
	// to the shared admission capacity.
	AdmissionWeight int `json:"admissionWeight"`

	core.Stats

	Requests       int64  `json:"requests"`
	BatchRequests  int64  `json:"batchRequests"`
	BatchItems     int64  `json:"batchItems"`
	StreamRequests int64  `json:"streamRequests"`
	StreamTuples   int64  `json:"streamTuples"`
	UpstreamK      int    `json:"upstreamK"`
	UpstreamRanker string `json:"upstreamRanker,omitempty"`

	// Health and the Probe* counters are the probe guard's (see
	// docs/epochs.md); an in-process database is always healthy.
	Health       string `json:"health"`
	ProbeRetries int64  `json:"probeRetries"`
	// ProbeHedges is always 0: the guard no longer hedges. It is kept until
	// bench/perf retires its guard.hedges layer metric, which reads it.
	ProbeHedges    int64 `json:"probeHedges"`
	ProbeFailures  int64 `json:"probeFailures"`
	ProbeFastFails int64 `json:"probeFastFails"`
}

// Stats is the /v1/stats response body: the service-level counters, which
// belong to no one namespace, and each namespace's own in Upstreams. A
// service-wide total is the sum over Upstreams.
type Stats struct {
	// SessionsInFlight / MaxSessions describe the shared admission gate:
	// currently-admitted session weight and the configured bound
	// (0 = unlimited). Rejected* count requests shed at the edge, by
	// cause: capacity, per-client budget, draining shutdown.
	SessionsInFlight int   `json:"sessionsInFlight"`
	MaxSessions      int   `json:"maxSessions"`
	RejectedCapacity int64 `json:"rejectedCapacity"`
	RejectedBudget   int64 `json:"rejectedBudget"`
	RejectedDraining int64 `json:"rejectedDraining"`
	// Draining is true once BeginDrain was called (shutdown in progress).
	Draining bool `json:"draining"`
	// DefaultUpstream names the default namespace.
	DefaultUpstream string                   `json:"defaultUpstream,omitempty"`
	Upstreams       map[string]UpstreamStats `json:"upstreams"`
}

// tenantStats snapshots one namespace's counters.
func (s *Server) tenantStats(t *tenant) UpstreamStats {
	us := UpstreamStats{
		URL:             t.url,
		Default:         s.defaultName() == t.name,
		AdmissionWeight: t.weight,
		Stats:           t.engine().Stats(),
		Requests:        t.requests.Load(),
		BatchRequests:   t.batchRequests.Load(),
		BatchItems:      t.batchItems.Load(),
		StreamRequests:  t.streamRequests.Load(),
		StreamTuples:    t.streamTuples.Load(),
		UpstreamK:       t.db.K(),
		Health:          hidden.HealthHealthy.String(),
	}
	if hdb, ok := t.db.(*hidden.DB); ok {
		us.UpstreamRanker = hdb.RankerName()
	}
	if t.guard != nil {
		gh := t.guard.Health()
		us.Health = gh.State.String()
		us.ProbeRetries = gh.Retries
		us.ProbeFailures = gh.Failures
		us.ProbeFastFails = gh.FastFails
	}
	return us
}

// Stats reports the service's current counters (also served at /v1/stats).
func (s *Server) Stats() Stats {
	st := Stats{
		SessionsInFlight: s.gate.inFlight(),
		MaxSessions:      s.gate.cap,
		RejectedCapacity: s.rejectedCapacity.Load(),
		RejectedBudget:   s.rejectedBudget.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Draining:         s.draining.Load(),
		DefaultUpstream:  s.defaultName(),
		Upstreams:        make(map[string]UpstreamStats),
	}
	for _, t := range s.tenantList() {
		st.Upstreams[t.name] = s.tenantStats(t)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleUpstreamStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStats(t))
}

// upstreamSeries renders UpstreamStats on /metrics: each entry is the series
// rerank_upstream_<name>{upstream="NS"}, one sample per registered namespace.
// A service-wide total is sum without (upstream) (...).
var upstreamSeries = []struct {
	name, help, kind string
	value            func(UpstreamStats) int64
}{
	{"requests_total", "Single rerank requests started.", "counter", func(u UpstreamStats) int64 { return u.Requests }},
	{"batch_requests_total", "Batch requests accepted.", "counter", func(u UpstreamStats) int64 { return u.BatchRequests }},
	{"batch_items_total", "Sub-requests inside accepted batches.", "counter", func(u UpstreamStats) int64 { return u.BatchItems }},
	{"stream_requests_total", "Stream requests admitted.", "counter", func(u UpstreamStats) int64 { return u.StreamRequests }},
	{"stream_tuples_total", "NDJSON tuple lines emitted by streams.", "counter", func(u UpstreamStats) int64 { return u.StreamTuples }},
	{"engine_queries_total", "Lifetime upstream queries issued by the engine.", "counter", func(u UpstreamStats) int64 { return u.EngineQueries }},
	{"history_tuples", "Tuples in the cross-query answer history.", "gauge", func(u UpstreamStats) int64 { return int64(u.HistoryTuples) }},
	{"probe_cache_entries", "Probe answers (complete ones and overflow pages) held as facts over the history arena.", "gauge", func(u UpstreamStats) int64 { return int64(u.ProbeCacheEntries) }},
	{"probe_fact_bytes", "Approximate resident bytes of the held probe facts (queries and row references).", "gauge", func(u UpstreamStats) int64 { return u.ProbeFactBytes }},
	{"probe_contained_total", "Probes answered free from a held complete answer whose box contains them.", "counter", func(u UpstreamStats) int64 { return u.ProbeContainedHits }},
	{"probe_partial_total", "Probes answered free by replaying the overflow page the identical probe got before.", "counter", func(u UpstreamStats) int64 { return u.ProbePartialHits }},
	{"certified_complete_total", "1D-RERANK certification probes that came back complete and answered their Get-Next outright.", "counter", func(u UpstreamStats) int64 { return u.CertifiedComplete }},
	{"certified_overflow_total", "1D-RERANK certification probes that overflowed and left the search to bisect.", "counter", func(u UpstreamStats) int64 { return u.CertifiedOverflow }},
	{"md_certified_complete_total", "MD-RERANK deep certification probes that came back complete and became their region's certified page.", "counter", func(u UpstreamStats) int64 { return u.MDCertifiedComplete }},
	{"md_certified_overflow_total", "MD-RERANK deep certification probes that overflowed and left the search to the candidate's own contour.", "counter", func(u UpstreamStats) int64 { return u.MDCertifiedOverflow }},
	{"cover_hits_total", "Get-Nexts, 1D and MD, answered from a cursor's certified page: next tuple and tie group, no probe.", "counter", func(u UpstreamStats) int64 { return u.CoverHits }},
	{"md_dense_regions", "Crawled regions over more than one attribute.", "gauge", func(u UpstreamStats) int64 { return int64(u.MDDenseRegions) }},
	{"dense_md_max_bucket", "Largest crawled-region bucket: the most regions one lookup may walk.", "gauge", func(u UpstreamStats) int64 { return int64(u.DenseMDMaxBucket) }},
	{"search_parallelism", "Effective speculative probe width W.", "gauge", func(u UpstreamStats) int64 { return int64(u.SearchParallelism) }},
	{"spec_probes_issued_total", "Speculative MD probes issued.", "counter", func(u UpstreamStats) int64 { return u.SpecProbesIssued }},
	{"spec_probes_wasted_total", "Speculative MD ladder rungs that overflowed and resolved nothing.", "counter", func(u UpstreamStats) int64 { return u.SpecProbesWasted }},
	{"k", "Upstream interface's system-k.", "gauge", func(u UpstreamStats) int64 { return int64(u.UpstreamK) }},
	{"admission_weight", "Per-session multiplier on the shared admission capacity.", "gauge", func(u UpstreamStats) int64 { return int64(u.AdmissionWeight) }},
	{"epoch", "Knowledge epoch.", "gauge", func(u UpstreamStats) int64 { return u.Epoch }},
	{"epoch_bumps_total", "Drift-triggered knowledge epoch bumps.", "counter", func(u UpstreamStats) int64 { return u.EpochBumps }},
	{"stale_regions", "Crawled regions awaiting lazy re-validation.", "gauge", func(u UpstreamStats) int64 { return int64(u.StaleRegions) }},
	{"stale_history_rows", "History rows learned under an older epoch.", "gauge", func(u UpstreamStats) int64 { return u.StaleHistoryRows }},
	{"epoch_reval_promoted_total", "Stale knowledge promoted to the current epoch by a confirming probe.", "counter", func(u UpstreamStats) int64 { return u.RevalPromoted }},
	{"epoch_reval_evicted_total", "Stale knowledge evicted after a re-validation mismatch.", "counter", func(u UpstreamStats) int64 { return u.RevalEvicted }},
	{"sentinel_passes_total", "Completed sentinel drift-detection passes.", "counter", func(u UpstreamStats) int64 { return u.SentinelPasses }},
	{"sentinel_bumps_total", "Sentinel passes that detected drift and bumped the epoch.", "counter", func(u UpstreamStats) int64 { return u.SentinelBumps }},
	{"health", "Probe-guard health state (0 healthy, 1 degraded, 2 down).", "gauge", healthLevel},
	{"probe_retry_total", "Physical retry attempts spent by the probe guard.", "counter", func(u UpstreamStats) int64 { return u.ProbeRetries }},
	{"probe_retry_failures_total", "Logical probes that failed after exhausting their retries.", "counter", func(u UpstreamStats) int64 { return u.ProbeFailures }},
	{"probe_fast_fails_total", "Probes refused while the upstream was down, without touching it.", "counter", func(u UpstreamStats) int64 { return u.ProbeFastFails }},
	{"storage_blocks", "Sealed column blocks in the history arena.", "gauge", func(u UpstreamStats) int64 { return int64(u.StorageBlocks) }},
	{"storage_dict_entries", "Interned categorical symbols in the shared dictionary.", "gauge", func(u UpstreamStats) int64 { return int64(u.StorageDictEntries) }},
	{"storage_resident_tuples", "Rows resident in the columnar arena.", "gauge", func(u UpstreamStats) int64 { return int64(u.StorageResidentTuples) }},
	{"storage_approx_bytes", "Approximate resident bytes of columnar storage plus probe facts.", "gauge", func(u UpstreamStats) int64 { return u.StorageApproxBytes }},
	{"persist_enabled", "1 when the namespace has an open segment store.", "gauge", func(u UpstreamStats) int64 { return b2i(u.PersistEnabled) }},
	{"persist_seq", "Committed journal sequence number.", "gauge", func(u UpstreamStats) int64 { return u.PersistSeq }},
	{"persist_checkpoints_total", "Successful checkpoint commits since start.", "counter", func(u UpstreamStats) int64 { return u.PersistCheckpoints }},
	{"persist_compactions_total", "Journal compactions since start.", "counter", func(u UpstreamStats) int64 { return u.PersistCompactions }},
	{"persist_journal_records", "Committed records in the live journal.", "gauge", func(u UpstreamStats) int64 { return int64(u.PersistJournalRecords) }},
	{"persist_segment_files", "Live immutable segment files.", "gauge", func(u UpstreamStats) int64 { return int64(u.PersistSegmentFiles) }},
	{"persist_pending_ops", "Operations recorded since the last checkpoint (at-risk knowledge).", "gauge", func(u UpstreamStats) int64 { return int64(u.PersistPendingOps) }},
	{"persist_replayed_deltas", "Committed deltas replayed at startup.", "gauge", func(u UpstreamStats) int64 { return int64(u.PersistReplayedDeltas) }},
	{"persist_bytes_appended_total", "Bytes durably written to journal and segments since start.", "counter", func(u UpstreamStats) int64 { return u.PersistBytesAppended }},
	{"persist_checkpoint_failing", "1 while the most recent checkpoint attempt failed.", "gauge", func(u UpstreamStats) int64 { return b2i(u.PersistLastError != "") }},
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	series := func(name, help, kind string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	}

	series("rerank_rejected_total", "Requests shed at admission, by cause.", "counter")
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"capacity\"} %d\n", st.RejectedCapacity)
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"budget\"} %d\n", st.RejectedBudget)
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"draining\"} %d\n", st.RejectedDraining)
	for _, g := range []struct {
		name, help string
		v          int64
	}{
		{"rerank_sessions_in_flight", "Admitted session weight currently in flight.", int64(st.SessionsInFlight)},
		{"rerank_sessions_limit", "Configured MaxSessions bound (0 = unlimited).", int64(st.MaxSessions)},
		{"rerank_draining", "1 once graceful drain has begun.", b2i(st.Draining)},
	} {
		series(g.name, g.help, "gauge")
		fmt.Fprintf(w, "%s %d\n", g.name, g.v)
	}

	names := make([]string, 0, len(st.Upstreams))
	for name := range st.Upstreams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, m := range upstreamSeries {
		name := "rerank_upstream_" + m.name
		series(name, m.help, m.kind)
		for _, ns := range names {
			fmt.Fprintf(w, "%s{upstream=%q} %d\n", name, ns, m.value(st.Upstreams[ns]))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func healthLevel(u UpstreamStats) int64 {
	switch u.Health {
	case hidden.HealthDegraded.String():
		return 1
	case hidden.HealthDown.String():
		return 2
	default:
		return 0
	}
}
