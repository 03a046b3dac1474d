// GET /metrics: the service's counters in Prometheus text exposition
// format (version 0.0.4), hand-rendered — the service has no dependencies,
// and the format is a few fmt.Fprintf lines per series. Every series is
// derived from the same Stats snapshot /v1/stats serves, so the two
// endpoints can never disagree; docs/operations.md is the metrics
// reference.

package service

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/acquire"
	"repro/internal/hidden"
)

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("rerank_requests_total", "Single /v1/rerank requests started.", st.Requests)
	counter("rerank_batch_requests_total", "/v1/rerank/batch requests accepted.", st.BatchRequests)
	counter("rerank_batch_items_total", "Sub-requests inside accepted batches.", st.BatchItems)
	counter("rerank_stream_requests_total", "/v1/rerank/stream requests admitted.", st.StreamRequests)
	counter("rerank_stream_tuples_total", "NDJSON tuple lines emitted by streams.", st.StreamTuples)

	fmt.Fprintf(w, "# HELP rerank_rejected_total Requests shed at admission, by cause.\n")
	fmt.Fprintf(w, "# TYPE rerank_rejected_total counter\n")
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"capacity\"} %d\n", st.RejectedCapacity)
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"budget\"} %d\n", st.RejectedBudget)
	fmt.Fprintf(w, "rerank_rejected_total{cause=\"draining\"} %d\n", st.RejectedDraining)

	gauge("rerank_sessions_in_flight", "Admitted session weight currently in flight.", int64(st.SessionsInFlight))
	gauge("rerank_sessions_limit", "Configured MaxConcurrentSessions bound (0 = unlimited).", int64(st.MaxSessions))
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	gauge("rerank_draining", "1 once graceful drain has begun.", draining)

	counter("rerank_engine_queries_total", "Lifetime upstream queries issued by the engine.", st.EngineQueries)
	gauge("rerank_history_tuples", "Tuples in the cross-query answer history.", int64(st.HistoryTuples))
	gauge("rerank_probe_cache_entries", "Probe answers (complete ones and overflow pages) held as facts over the history arena.", int64(st.ProbeCacheEntries))
	gauge("rerank_probe_fact_bytes", "Approximate resident bytes of the held probe facts (queries and row references).", st.ProbeFactBytes)
	counter("rerank_probe_contained_total", "Probes answered free from a held complete answer whose box contains them.", st.ProbeContainedHits)
	counter("rerank_probe_partial_total", "Probes answered free by replaying the overflow page the identical probe got before.", st.ProbePartialHits)
	counter("rerank_certified_complete_total", "1D-RERANK certification probes that came back complete and answered their Get-Next outright.", st.CertifiedComplete)
	counter("rerank_certified_overflow_total", "1D-RERANK certification probes that overflowed and left the search to bisect.", st.CertifiedOverflow)
	counter("rerank_md_certified_complete_total", "MD-RERANK deep certification probes that came back complete and became their region's cover.", st.MDCertifiedComplete)
	counter("rerank_md_certified_overflow_total", "MD-RERANK deep certification probes that overflowed and left the search to the candidate's own contour.", st.MDCertifiedOverflow)
	counter("rerank_cover_hits_total", "Get-Nexts, 1D and MD, answered from a cursor's certified cover: next tuple and tie group, no probe.", st.CoverHits)
	gauge("rerank_md_dense_regions", "Crawled MD dense regions across attribute subsets.", int64(st.MDDenseRegions))
	gauge("rerank_dense_md_buckets", "Occupied MD centroid-grid cells.", int64(st.DenseMDBuckets))
	gauge("rerank_dense_md_max_bucket", "Largest MD centroid-grid cell population.", int64(st.DenseMDMaxBucket))
	gauge("rerank_search_parallelism", "Effective speculative probe width W.", int64(st.SearchParallelism))
	counter("rerank_spec_probes_issued_total", "Speculative MD probes issued.", st.SpecProbesIssued)
	counter("rerank_spec_probes_wasted_total", "Speculative MD probes invalidated before use.", st.SpecProbesWasted)
	gauge("rerank_upstream_k", "Upstream interface's system-k.", int64(st.UpstreamK))

	gauge("rerank_epoch", "Default namespace's knowledge epoch.", st.Epoch)
	counter("rerank_epoch_bumps_total", "Drift-triggered knowledge epoch bumps across namespaces.", st.EpochBumps)
	gauge("rerank_epoch_stale_regions", "Dense regions awaiting lazy re-validation across namespaces.", int64(st.StaleRegions))
	counter("rerank_epoch_reval_promoted_total", "Stale knowledge promoted to the current epoch by a confirming probe.", st.RevalPromoted)
	counter("rerank_epoch_reval_evicted_total", "Stale knowledge evicted after a re-validation mismatch.", st.RevalEvicted)
	counter("rerank_sentinel_passes_total", "Completed sentinel drift-detection passes across namespaces.", st.SentinelPasses)
	counter("rerank_sentinel_bumps_total", "Sentinel passes that detected drift and bumped an epoch.", st.SentinelBumps)
	counter("rerank_probe_retry_total", "Physical retry attempts spent by the probe guards.", st.ProbeRetries)
	counter("rerank_probe_retry_failures_total", "Logical probes that failed after exhausting their retries.", st.ProbeFailures)
	counter("rerank_probe_hedges_total", "Hedged second attempts launched by the probe guards.", st.ProbeHedges)
	counter("rerank_probe_fast_fails_total", "Probes refused while an upstream was down, without touching it.", st.ProbeFastFails)

	gauge("rerank_storage_blocks", "Sealed column blocks in the history arena.", int64(st.StorageBlocks))
	gauge("rerank_storage_dict_entries", "Interned categorical symbols in the shared dictionary.", int64(st.StorageDictEntries))
	gauge("rerank_storage_resident_tuples", "Rows resident in the columnar arena.", int64(st.StorageResidentTuples))
	gauge("rerank_storage_approx_bytes", "Approximate resident bytes of columnar storage plus probe facts.", st.StorageApproxBytes)

	acqEnabled := int64(0)
	if st.AcquireEnabled {
		acqEnabled = 1
	}
	gauge("rerank_acquire_enabled", "1 when background knowledge acquisition is configured.", acqEnabled)
	if st.Acquire != nil {
		counter("rerank_acquire_ticks_total", "Background acquirer tick passes.", st.Acquire.Ticks)
		counter("rerank_acquire_probes_total", "Upstream probes issued by background acquisition.", st.Acquire.ProbesIssued)
		counter("rerank_acquire_windows_total", "Query windows fully warmed by background acquisition.", st.Acquire.WindowsAcquired)
		counter("rerank_acquire_skipped_warm_total", "Candidate windows skipped because they were already warm.", st.Acquire.SkippedWarm)
		counter("rerank_acquire_yields_total", "Acquirer yields to user traffic (idle/pressure gates and mid-flight aborts).", st.Acquire.Yields)
		counter("rerank_acquire_admission_denied_total", "Low-priority admission refusals of the acquirer.", st.Acquire.AdmissionDenied)
		counter("rerank_acquire_errors_total", "Background acquisitions that failed with a hard error.", st.Acquire.Errors)
	}

	enabled := int64(0)
	if st.PersistEnabled {
		enabled = 1
	}
	gauge("rerank_persist_enabled", "1 when a segment/journal data dir is open.", enabled)
	if st.PersistEnabled {
		gauge("rerank_persist_seq", "Committed journal sequence number.", st.PersistSeq)
		counter("rerank_persist_checkpoints_total", "Successful checkpoint commits since start.", st.PersistCheckpoints)
		counter("rerank_persist_compactions_total", "Journal compactions since start.", st.PersistCompactions)
		gauge("rerank_persist_journal_records", "Committed records in the live journal.", int64(st.PersistJournalRecords))
		gauge("rerank_persist_segment_files", "Live immutable segment files.", int64(st.PersistSegmentFiles))
		gauge("rerank_persist_pending_ops", "Operations recorded since the last checkpoint (at-risk knowledge).", int64(st.PersistPendingOps))
		gauge("rerank_persist_replayed_deltas", "Committed deltas replayed at startup.", int64(st.PersistReplayedDeltas))
		counter("rerank_persist_bytes_appended_total", "Bytes durably written to journal and segments since start.", st.PersistBytesAppended)
		failing := int64(0)
		if st.PersistLastError != "" {
			failing = 1
		}
		gauge("rerank_persist_checkpoint_failing", "1 while the most recent checkpoint attempt failed.", failing)
	}

	// Per-namespace breakdown: one labeled series per registered upstream.
	// The unlabeled series above stay the cross-namespace totals, so
	// single-upstream dashboards keep working unchanged.
	names := make([]string, 0, len(st.Upstreams))
	for name := range st.Upstreams {
		names = append(names, name)
	}
	sort.Strings(names)
	labeled := func(name, help, kind string, v func(UpstreamStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, ns := range names {
			fmt.Fprintf(w, "%s{upstream=%q} %d\n", name, ns, v(st.Upstreams[ns]))
		}
	}
	if len(names) > 0 {
		labeled("rerank_upstream_requests_total", "Single rerank requests started, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.Requests })
		labeled("rerank_upstream_batch_requests_total", "Batch requests accepted, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.BatchRequests })
		labeled("rerank_upstream_batch_items_total", "Sub-requests inside accepted batches, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.BatchItems })
		labeled("rerank_upstream_stream_requests_total", "Stream requests admitted, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.StreamRequests })
		labeled("rerank_upstream_stream_tuples_total", "NDJSON tuple lines emitted, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.StreamTuples })
		labeled("rerank_upstream_engine_queries_total", "Lifetime upstream queries issued, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.EngineQueries })
		labeled("rerank_upstream_history_tuples", "Tuples in the cross-query answer history, per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.HistoryTuples) })
		labeled("rerank_upstream_probe_cache_entries", "Probe answers held as facts, per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.ProbeCacheEntries) })
		labeled("rerank_upstream_probe_contained_total", "Probes answered free by containment, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.ProbeContainedHits })
		labeled("rerank_upstream_probe_partial_total", "Probes answered free by replaying their own overflow page, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.ProbePartialHits })
		labeled("rerank_upstream_certified_complete_total", "1D-RERANK certification probes that came back complete, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.CertifiedComplete })
		labeled("rerank_upstream_certified_overflow_total", "1D-RERANK certification probes that overflowed, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.CertifiedOverflow })
		labeled("rerank_upstream_md_certified_complete_total", "MD-RERANK deep certification probes that came back complete, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.MDCertifiedComplete })
		labeled("rerank_upstream_md_certified_overflow_total", "MD-RERANK deep certification probes that overflowed, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.MDCertifiedOverflow })
		labeled("rerank_upstream_cover_hits_total", "Get-Nexts answered from a cursor's certified cover, per upstream namespace.", "counter",
			func(u UpstreamStats) int64 { return u.CoverHits })
		labeled("rerank_upstream_md_dense_regions", "Crawled MD dense regions, per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.MDDenseRegions) })
		labeled("rerank_upstream_admission_weight", "Per-session multiplier on the shared admission capacity.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.AdmissionWeight) })
		labeled("rerank_upstream_epoch", "Knowledge epoch, per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 { return u.Epoch })
		labeled("rerank_upstream_stale_regions", "Dense regions awaiting lazy re-validation, per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.StaleRegions) })
		labeled("rerank_upstream_health", "Probe-guard health state (0 healthy, 1 degraded, 2 down), per upstream namespace.", "gauge",
			func(u UpstreamStats) int64 {
				switch u.Health {
				case hidden.HealthDegraded.String():
					return 1
				case hidden.HealthDown.String():
					return 2
				default:
					return 0
				}
			})
		labeled("rerank_upstream_persist_enabled", "1 when the namespace has an open segment store.", "gauge",
			func(u UpstreamStats) int64 {
				if u.PersistEnabled {
					return 1
				}
				return 0
			})
		labeled("rerank_upstream_persist_pending_ops", "Operations recorded since the namespace's last checkpoint.", "gauge",
			func(u UpstreamStats) int64 { return int64(u.PersistPendingOps) })
		if st.Acquire != nil {
			acq := func(f func(acquire.Stats) int64) func(UpstreamStats) int64 {
				return func(u UpstreamStats) int64 {
					if u.Acquire == nil {
						return 0
					}
					return f(*u.Acquire)
				}
			}
			labeled("rerank_upstream_acquire_probes_total", "Upstream probes issued by background acquisition, per upstream namespace.", "counter",
				acq(func(a acquire.Stats) int64 { return a.ProbesIssued }))
			labeled("rerank_upstream_acquire_windows_total", "Query windows fully warmed by background acquisition, per upstream namespace.", "counter",
				acq(func(a acquire.Stats) int64 { return a.WindowsAcquired }))
			labeled("rerank_upstream_acquire_yields_total", "Acquirer yields to user traffic, per upstream namespace.", "counter",
				acq(func(a acquire.Stats) int64 { return a.Yields }))
		}
	}
}
