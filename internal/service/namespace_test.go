// Federation tests: namespace isolation (ledgers, probe caches, history),
// per-namespace persistence under data-dir/<ns>/, the registry HTTP API,
// and the unified error envelope. The isolation test runs concurrent traffic and is
// meaningful under -race.

package service

import (
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/types"
)

// clusterDBAt builds a 2-attribute upstream with a dense tuple cluster at
// [lo, lo+0.3]² — same shape as clusteredDB but with a configurable cluster
// location and seed, so two namespaces get genuinely distinct databases.
func clusterDBAt(t *testing.T, seed int64, lo float64) *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	n := 1200
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, 2)
		if i < 60 {
			ord[0] = lo + float64(i)*0.005
			ord[1] = lo + float64((i*37)%60)*0.005
		} else {
			ord[0] = rng.Float64() * 100
			ord[1] = rng.Float64() * 100
		}
		tuples[i] = types.Tuple{ID: i, Ord: ord}
	}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10})
}

// rangeRequest is denseMDRequest generalized to a cluster location.
func rangeRequest(lo float64) RerankRequest {
	hi := lo + 0.3
	return RerankRequest{
		Ranges: []RangeSpec{
			{Attr: "A0", Min: &lo, Max: &hi},
			{Attr: "A1", Min: &lo, Max: &hi},
		},
		Ranking: RankingSpec{Kind: "linear", Attrs: []string{"A0", "A1"}, Weights: []float64{1, 1}},
		H:       5,
	}
}

// federatedPipeline builds a two-namespace server ("diamonds" clustered at
// 50, "autos" clustered at 20) with an HTTP frontend.
func federatedPipeline(t *testing.T) (*Server, *httptest.Server, *hidden.DB, *hidden.DB) {
	t.Helper()
	dbA := clusterDBAt(t, 91, 50)
	dbB := clusterDBAt(t, 17, 20)
	srv := NewFederatedServer(Options{Core: core.Options{N: 1200}})
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "diamonds"}, dbA); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "autos"}, dbB); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	return srv, api, dbA, dbB
}

// TestNamespaceIsolation runs concurrent traffic against two namespaces and
// asserts complete isolation: each namespace's ledger equals its own
// upstream's observed query count (so no probe ever crossed namespaces),
// and an identical query re-issued against the OTHER namespace is never
// served from the first one's probe cache.
func TestNamespaceIsolation(t *testing.T) {
	srv, api, dbA, dbB := federatedPipeline(t)
	ca := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("diamonds"))
	cb := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("autos"))
	dbA.ResetCounter()
	dbB.ResetCounter()

	// The same wire request hits both namespaces: for "diamonds" it covers
	// its dense cluster, for "autos" it is a sparse region. Any
	// cross-namespace cache or history sharing would corrupt one of them.
	req := rangeRequest(50)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ca.Rerank(req); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cb.Rerank(req); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	ua, ok := st.Upstreams["diamonds"]
	if !ok {
		t.Fatal("stats missing namespace diamonds")
	}
	ub, ok := st.Upstreams["autos"]
	if !ok {
		t.Fatal("stats missing namespace autos")
	}
	if ua.Requests != 4 || ub.Requests != 4 {
		t.Fatalf("per-namespace request counters: diamonds=%d autos=%d, want 4/4", ua.Requests, ub.Requests)
	}
	// Independent ledgers: each engine's lifetime count must equal what its
	// own upstream actually observed — queries crossing namespaces would
	// break the equality on both sides.
	if ua.EngineQueries != dbA.QueryCount() {
		t.Fatalf("diamonds ledger %d != its upstream's observed %d", ua.EngineQueries, dbA.QueryCount())
	}
	if ub.EngineQueries != dbB.QueryCount() {
		t.Fatalf("autos ledger %d != its upstream's observed %d", ub.EngineQueries, dbB.QueryCount())
	}
	if ua.EngineQueries == 0 || ub.EngineQueries == 0 {
		t.Fatalf("expected both namespaces to issue upstream queries, got %d/%d", ua.EngineQueries, ub.EngineQueries)
	}
	// Zero cross-namespace probe-cache hits: "diamonds" is now fully warm
	// for req, but the identical query against "autos" must still pay its
	// own upstream cost on a cold region of ITS database.
	dbB.ResetCounter()
	resp, err := cb.Rerank(rangeRequest(20))
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueriesIssued == 0 || dbB.QueryCount() == 0 {
		t.Fatalf("autos cold-region query cost %d (upstream saw %d), want > 0: served from another namespace's cache",
			resp.QueriesIssued, dbB.QueryCount())
	}
}

// TestNamespaceWarmRestart pins per-namespace persistence: each namespace
// checkpoints into its own data-dir/<ns>/ store, and a restarted federated
// server answers each namespace's crawled query warm — for zero upstream
// queries — from its own store alone.
func TestNamespaceWarmRestart(t *testing.T) {
	dir := t.TempDir()
	dbA := clusterDBAt(t, 91, 50)
	dbB := clusterDBAt(t, 17, 20)
	reqA, reqB := rangeRequest(50), rangeRequest(20)

	boot := func() *Server {
		srv := NewFederatedServer(Options{Core: core.Options{N: 1200}})
		if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "diamonds"}, dbA); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "autos"}, dbB); err != nil {
			t.Fatal(err)
		}
		if err := srv.OpenDataDir(dir, PersistConfig{}); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv1 := boot()
	r1a, r1b := rerankIn(t, srv1, "diamonds", reqA), rerankIn(t, srv1, "autos", reqB)
	if r1a.QueriesIssued == 0 || r1b.QueriesIssued == 0 {
		t.Fatalf("precondition: cold requests cost %d/%d upstream queries", r1a.QueriesIssued, r1b.QueriesIssued)
	}
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{"diamonds", "autos"} {
		if fi, err := os.Stat(filepath.Join(dir, ns)); err != nil || !fi.IsDir() {
			t.Fatalf("namespace %q has no data subdirectory: %v", ns, err)
		}
	}

	dbA.ResetCounter()
	dbB.ResetCounter()
	srv2 := boot()
	defer srv2.ClosePersistence()
	r2a, r2b := rerankIn(t, srv2, "diamonds", reqA), rerankIn(t, srv2, "autos", reqB)
	if r2a.QueriesIssued != 0 || dbA.QueryCount() != 0 {
		t.Errorf("diamonds warm request charged %d (upstream saw %d), want 0", r2a.QueriesIssued, dbA.QueryCount())
	}
	if r2b.QueriesIssued != 0 || dbB.QueryCount() != 0 {
		t.Errorf("autos warm request charged %d (upstream saw %d), want 0", r2b.QueriesIssued, dbB.QueryCount())
	}
	if len(r2a.Tuples) != len(r1a.Tuples) || len(r2b.Tuples) != len(r1b.Tuples) {
		t.Fatalf("warm answers %d/%d tuples, want %d/%d", len(r2a.Tuples), len(r2b.Tuples), len(r1a.Tuples), len(r1b.Tuples))
	}
	for i := range r2a.Tuples {
		if r2a.Tuples[i].ID != r1a.Tuples[i].ID {
			t.Fatalf("diamonds rank %d: warm ID %d, cold ID %d", i, r2a.Tuples[i].ID, r1a.Tuples[i].ID)
		}
	}
}

// rerankIn runs req against namespace ns in-process.
func rerankIn(t *testing.T, srv *Server, ns string, req RerankRequest) *RerankResponse {
	t.Helper()
	tt, ok := srv.tenantFor(ns)
	if !ok {
		t.Fatalf("no namespace %q", ns)
	}
	resp, _, _, _, err := srv.rerank(tt, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSchemaUnknownNamespace404: the schema route 404s with the error
// envelope for an unknown namespace instead of serving the default schema.
func TestSchemaUnknownNamespace404(t *testing.T) {
	_, api, _, _ := federatedPipeline(t)
	resp, err := api.Client().Get(api.URL + "/v1/upstreams/nope/schema")
	if err != nil {
		t.Fatal(err)
	}
	se := statusError(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || se.Code != ErrCodeUnknownUpstream {
		t.Fatalf("status %d code %q, want 404 %q", resp.StatusCode, se.Code, ErrCodeUnknownUpstream)
	}
	// The typed client surfaces the same as a *StatusError.
	c := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("nope"))
	_, err = c.Schema()
	if !asStatusError(err, &se) || se.Status != http.StatusNotFound || se.Code != ErrCodeUnknownUpstream {
		t.Fatalf("client schema error = %v, want 404 unknown_upstream StatusError", err)
	}
}

// TestUpstreamStatsRoute: GET /v1/upstreams/{ns}/stats serves the same
// snapshot /v1/stats lists under upstreams[ns] — on a quiet server nothing
// moves between the two reads — and 404s with the error envelope for an
// unknown namespace.
func TestUpstreamStatsRoute(t *testing.T) {
	srv, api, _, _ := federatedPipeline(t)
	rerankIn(t, srv, "diamonds", rangeRequest(50))
	get := func(path string, out any) {
		t.Helper()
		resp, err := api.Client().Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var one UpstreamStats
	var all Stats
	get("/v1/upstreams/diamonds/stats", &one)
	get("/v1/stats", &all)
	if one.EngineQueries == 0 || one.MDDenseRegions == 0 {
		t.Fatalf("route stats %+v: want the request's queries and crawled box", one)
	}
	if want := all.Upstreams["diamonds"]; !reflect.DeepEqual(one, want) {
		t.Fatalf("GET /v1/upstreams/diamonds/stats = %+v\nwant /v1/stats upstreams[diamonds] = %+v", one, want)
	}
	// The wire keys of an in-process namespace without a data dir or an
	// acquirer; a key lost or renamed in the struct shows up here.
	var raw map[string]any
	get("/v1/upstreams/diamonds/stats", &raw)
	keys := slices.Sorted(maps.Keys(raw))
	wantKeys := []string{"admissionWeight", "batchItems", "batchRequests", "certifiedComplete",
		"certifiedOverflow", "coverHits", "default", "denseMDMaxBucket", "engineQueries", "epoch",
		"epochBumps", "health", "historyTuples", "mdCertifiedComplete", "mdCertifiedOverflow",
		"mdDenseRegions", "persistEnabled", "probeCacheEntries", "probeContainedHits",
		"probeFactBytes", "probeFailures", "probeFastFails", "probeHedges",
		"probePartialHits", "probeRetries", "requests", "revalEvicted", "revalPromoted",
		"searchParallelism", "sentinelBumps", "sentinelPasses", "specProbesIssued",
		"specProbesWasted", "staleHistoryRows", "staleRegions", "storageApproxBytes",
		"storageBlocks", "storageDictEntries", "storageResidentTuples", "streamRequests",
		"streamTuples", "upstreamK", "upstreamRanker"}
	if !slices.Equal(keys, wantKeys) {
		t.Fatalf("stats keys %q\nwant %q", keys, wantKeys)
	}

	resp, err := api.Client().Get(api.URL + "/v1/upstreams/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	se := statusError(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || se.Code != ErrCodeUnknownUpstream {
		t.Fatalf("status %d code %q, want 404 %q", resp.StatusCode, se.Code, ErrCodeUnknownUpstream)
	}
}

func asStatusError(err error, out **StatusError) bool {
	return errors.As(err, out)
}

// TestUpstreamRegistryAPI drives the full registry lifecycle over HTTP:
// list, register (dialing a live hiddendb), serve the new namespace, stats,
// deregister, and the guard against removing the default namespace.
func TestUpstreamRegistryAPI(t *testing.T) {
	_, api, _, _ := federatedPipeline(t)
	c := NewClientWith(api.URL, WithHTTPClient(api.Client()))

	ups, err := c.Upstreams()
	if err != nil {
		t.Fatal(err)
	}
	if len(ups.Upstreams) != 2 || ups.Default != "diamonds" {
		t.Fatalf("initial listing: %d upstreams default %q, want 2 / diamonds", len(ups.Upstreams), ups.Default)
	}

	// Register a third namespace over a live hiddendb endpoint.
	hdb := clusterDBAt(t, 5, 70)
	upstream := httptest.NewServer(HiddenDBHandler(hdb))
	t.Cleanup(upstream.Close)
	info, err := c.RegisterUpstream(UpstreamConfig{Name: "estates", URL: upstream.URL, N: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "estates" || info.URL != upstream.URL || info.Default {
		t.Fatalf("registered info = %+v", info)
	}
	if len(info.Schema.Attrs) != 2 {
		t.Fatalf("registered schema has %d attrs, want 2", len(info.Schema.Attrs))
	}

	// The new namespace serves immediately.
	ce := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("estates"))
	resp, err := ce.Rerank(rangeRequest(70))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tuples) != 5 || resp.QueriesIssued == 0 {
		t.Fatalf("new namespace answered %d tuples for %d queries", len(resp.Tuples), resp.QueriesIssued)
	}
	got, err := c.UpstreamInfo("estates")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Requests != 1 {
		t.Fatalf("estates stats report %d requests, want 1", got.Stats.Requests)
	}

	// Duplicate name → 409 upstream_exists.
	_, err = c.RegisterUpstream(UpstreamConfig{Name: "estates", URL: upstream.URL})
	var se *StatusError
	if !asStatusError(err, &se) || se.Status != http.StatusConflict || se.Code != ErrCodeUpstreamExists {
		t.Fatalf("duplicate register error = %v, want 409 upstream_exists", err)
	}

	// Unreachable URL → 502 upstream_failed.
	_, err = c.RegisterUpstream(UpstreamConfig{Name: "dead", URL: "http://127.0.0.1:1"})
	if !asStatusError(err, &se) || se.Status != http.StatusBadGateway || se.Code != ErrCodeUpstreamFailed {
		t.Fatalf("unreachable register error = %v, want 502 upstream_failed", err)
	}

	// Deregister; the namespace stops serving with a 404.
	if err := c.DeregisterUpstream("estates"); err != nil {
		t.Fatal(err)
	}
	_, err = ce.Rerank(rangeRequest(70))
	if !asStatusError(err, &se) || se.Status != http.StatusNotFound || se.Code != ErrCodeUnknownUpstream {
		t.Fatalf("post-deregister rerank error = %v, want 404 unknown_upstream", err)
	}

	// The default namespace cannot be removed while others remain.
	err = c.DeregisterUpstream("diamonds")
	if !asStatusError(err, &se) || se.Status != http.StatusConflict || se.Code != ErrCodeDefaultUpstream {
		t.Fatalf("default deregister error = %v, want 409 default_upstream", err)
	}
}

// TestErrorEnvelopeShape pins the wire shape of the unified error envelope
// on a plain bad request.
func TestErrorEnvelopeShape(t *testing.T) {
	_, api, _, _ := federatedPipeline(t)
	resp, err := api.Client().Post(api.URL+"/v1/upstreams/diamonds/rerank", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != ErrCodeBadRequest || env.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code %q with a message", env, ErrCodeBadRequest)
	}
}

// TestMetricsPerNamespaceSeries: /metrics carries one labeled sample per
// namespace, and no unlabeled cross-namespace total.
func TestMetricsPerNamespaceSeries(t *testing.T) {
	_, api, _, _ := federatedPipeline(t)
	ca := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("diamonds"))
	if _, err := ca.Rerank(rangeRequest(50)); err != nil {
		t.Fatal(err)
	}
	resp, err := api.Client().Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`rerank_upstream_requests_total{upstream="diamonds"} 1`,
		`rerank_upstream_requests_total{upstream="autos"} 0`,
		`rerank_upstream_engine_queries_total{upstream="diamonds"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "\nrerank_requests_total ") {
		t.Fatalf("metrics still carry an unlabeled request total\n%s", body)
	}
}
