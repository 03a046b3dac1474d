// Service-level persistence tests: the data-dir lifecycle through the
// Server API (open → serve → checkpoint → close → reopen warm) and the
// persist gauges on /v1/stats and /metrics.

package service

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hidden"
	"repro/internal/types"
)

// clusteredDB builds an upstream with a tight tuple cluster inside
// [50, 50.3]² on the first two ordinal attributes — a dense region under the
// default thresholds at n=1200, k=10.
func clusteredDB(t *testing.T) *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	n := 1200
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, 2)
		if i < 60 {
			ord[0] = 50 + float64(i)*0.005
			ord[1] = 50 + float64((i*37)%60)*0.005
		} else {
			ord[0] = rng.Float64() * 100
			ord[1] = rng.Float64() * 100
		}
		tuples[i] = types.Tuple{ID: i, Ord: ord}
	}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10})
}

func denseMDRequest() RerankRequest {
	lo, hi := 50.0, 50.3
	return RerankRequest{
		Ranges: []RangeSpec{
			{Attr: "A0", Min: &lo, Max: &hi},
			{Attr: "A1", Min: &lo, Max: &hi},
		},
		Ranking: RankingSpec{Kind: "linear", Attrs: []string{"A0", "A1"}, Weights: []float64{1, 1}},
		H:       5,
	}
}

// TestServiceMDWarmRestart is the service-level warm-restart acceptance
// path: knowledge committed to the data dir (here by the final checkpoint
// ClosePersistence takes, the drain path) makes the next process answer an
// MD-RERANK request over a previously-crawled dense region for zero upstream
// queries — the restart economics rerankd -data-dir provides.
func TestServiceMDWarmRestart(t *testing.T) {
	db := clusteredDB(t)
	dir := t.TempDir()
	req := denseMDRequest()

	srv1 := NewServer(db, 1200)
	if srv1.Stats().Upstreams[DefaultUpstream].PersistEnabled {
		t.Fatal("PersistEnabled true before OpenDataDir")
	}
	if err := srv1.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	resp1, _, err := srv1.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp1.QueriesIssued == 0 {
		t.Fatal("precondition: cold request cost 0 upstream queries")
	}
	st1 := srv1.Stats().Upstreams[DefaultUpstream]
	if !st1.PersistEnabled {
		t.Fatal("PersistEnabled false with an open data dir")
	}
	if st1.PersistPendingOps == 0 || st1.PersistLastError != "" {
		t.Fatalf("%d pending ops, last error %q: want the crawling request's ops and no error", st1.PersistPendingOps, st1.PersistLastError)
	}
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	if err := srv1.ClosePersistence(); err != nil { // idempotent
		t.Fatal(err)
	}

	db.ResetCounter()
	srv2 := NewServer(db, 1200)
	if err := srv2.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	defer srv2.ClosePersistence()
	st2 := srv2.Stats().Upstreams[DefaultUpstream]
	if st2.PersistReplayedDeltas == 0 {
		t.Fatal("restart replayed no deltas")
	}
	if st2.MDDenseRegions != st1.MDDenseRegions {
		t.Fatalf("restored %d MD dense regions, want %d", st2.MDDenseRegions, st1.MDDenseRegions)
	}
	if st2.HistoryTuples != st1.HistoryTuples {
		t.Fatalf("restored %d history tuples, want %d", st2.HistoryTuples, st1.HistoryTuples)
	}
	resp2, _, err := srv2.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.QueriesIssued != 0 {
		t.Errorf("warm request charged %d upstream queries, want 0", resp2.QueriesIssued)
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("warm request reached the upstream %d times, want 0", n)
	}
	if len(resp2.Tuples) != len(resp1.Tuples) {
		t.Fatalf("warm request returned %d tuples, want %d", len(resp2.Tuples), len(resp1.Tuples))
	}
	for i := range resp2.Tuples {
		if resp2.Tuples[i].ID != resp1.Tuples[i].ID {
			t.Fatalf("rank %d: warm ID %d, cold ID %d", i, resp2.Tuples[i].ID, resp1.Tuples[i].ID)
		}
	}
}

// TestMetricsExposePersistSeries checks the persist gauges surface on
// /metrics per namespace, and read 0 without a data dir.
func TestMetricsExposePersistSeries(t *testing.T) {
	db := clusteredDB(t)

	scrape := func(srv *Server) string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	plain := NewServer(db, 1200)
	body := scrape(plain)
	for _, want := range []string{
		`rerank_upstream_persist_enabled{upstream="default"} 0`,
		`rerank_upstream_persist_seq{upstream="default"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("no-data-dir scrape missing %q:\n%s", want, body)
		}
	}

	srv := NewServer(db, 1200)
	if err := srv.OpenDataDir(t.TempDir(), PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	defer srv.ClosePersistence()
	if _, _, err := srv.Rerank(denseMDRequest()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	body = scrape(srv)
	for _, want := range []string{
		`rerank_upstream_persist_enabled{upstream="default"} 1`,
		`rerank_upstream_persist_seq{upstream="default"} 1`,
		`rerank_upstream_persist_checkpoints_total{upstream="default"} 1`,
		`rerank_upstream_persist_pending_ops{upstream="default"} 0`,
		`rerank_upstream_persist_checkpoint_failing{upstream="default"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
