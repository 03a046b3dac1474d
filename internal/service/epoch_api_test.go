// Living-upstreams API tests: the rich /v1/upstreams descriptors and their
// legacy names-only shape, POST /v1/upstreams/{ns}/revalidate, the
// X-Knowledge-Epoch header and epoch body field on rerank routes, guard
// error mapping (upstream_degraded/upstream_down), and the regression test
// for DELETE /v1/upstreams/{ns} racing in-flight background ticks. The race
// test is meaningful under -race.

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/query"
)

// epochPipeline builds a one-namespace federated server over an in-process
// clustered database, with the sentinel loop off unless opts says
// otherwise.
func epochPipeline(t *testing.T, opts Options) (*Server, *httptest.Server, *Client, *hidden.DB) {
	t.Helper()
	if opts.Core.N == 0 {
		opts.Core.N = 1200
	}
	db := clusterDBAt(t, 91, 50)
	srv := NewFederatedServer(opts)
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "gems"}, db); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	return srv, api, NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("gems")), db
}

// driftTopTuple mutates a tuple the unconstrained system answer returns, so
// the very next sentinel pass must witness the drift.
func driftTopTuple(t *testing.T, db *hidden.DB) {
	t.Helper()
	res, err := db.TopK(query.New())
	if err != nil {
		t.Fatal(err)
	}
	if !db.SetOrd(res.Tuples[0].ID, 0, res.Tuples[0].Ord[0]+29.5) {
		t.Fatal("SetOrd refused")
	}
}

func TestUpstreamsAPIRichShape(t *testing.T) {
	_, _, client, _ := epochPipeline(t, Options{})

	ups, err := client.Upstreams()
	if err != nil {
		t.Fatal(err)
	}
	if ups.Default != "gems" || len(ups.Upstreams) != 1 {
		t.Fatalf("list = default %q, %d upstreams; want gems/1", ups.Default, len(ups.Upstreams))
	}
	u := ups.Upstreams[0]
	if u.Name != "gems" || !u.Default {
		t.Fatalf("descriptor name/default = %q/%v", u.Name, u.Default)
	}
	if u.Epoch != core.FirstEpoch {
		t.Fatalf("fresh namespace epoch = %d, want %d", u.Epoch, core.FirstEpoch)
	}
	if u.Health != "healthy" {
		t.Fatalf("in-process namespace health = %q, want healthy", u.Health)
	}
	if u.LastSentinelUnix != 0 || u.BackoffUntilUnix != 0 || u.StaleRegions != 0 {
		t.Fatalf("fresh namespace: lastSentinel=%d backoff=%d stale=%d, want all 0",
			u.LastSentinelUnix, u.BackoffUntilUnix, u.StaleRegions)
	}

	// The namespace detail route serves the same descriptor.
	info, err := client.UpstreamInfo("gems")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "gems" || info.Epoch != core.FirstEpoch || info.Health != "healthy" {
		t.Fatalf("detail descriptor = %+v", info)
	}
}

func TestRevalidateEndpoint(t *testing.T) {
	_, _, client, db := epochPipeline(t, Options{})

	// Warm a dense region so a later epoch bump has something to mark stale.
	if _, err := client.Rerank(rangeRequest(50)); err != nil {
		t.Fatal(err)
	}

	// Baseline pass: records digests, bumps nothing.
	rv, err := client.Revalidate("gems")
	if err != nil {
		t.Fatal(err)
	}
	wantQ := int64(db.Schema().NumOrdinal() + 1)
	if rv.Bumped || rv.Epoch != core.FirstEpoch || rv.Queries != wantQ {
		t.Fatalf("baseline revalidate = %+v, want bumped=false epoch=%d queries=%d", rv, core.FirstEpoch, wantQ)
	}

	// Drift, then the operator's "check now" button must bump the epoch and
	// report the knowledge it invalidated.
	driftTopTuple(t, db)
	rv, err = client.Revalidate("gems")
	if err != nil {
		t.Fatal(err)
	}
	if !rv.Bumped || rv.Epoch != core.FirstEpoch+1 {
		t.Fatalf("post-drift revalidate = %+v, want bumped at epoch %d", rv, core.FirstEpoch+1)
	}
	if rv.StaleRegions == 0 {
		t.Fatal("epoch bump left no stale regions despite warm knowledge")
	}
	info, err := client.UpstreamInfo("gems")
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != rv.Epoch || info.LastSentinelUnix == 0 {
		t.Fatalf("descriptor after revalidate = epoch %d lastSentinel %d", info.Epoch, info.LastSentinelUnix)
	}

	// Serving still works over the stale knowledge (lazy re-validation), and
	// an unknown namespace 404s.
	if _, err := client.Rerank(rangeRequest(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Revalidate("nope"); err == nil {
		t.Fatal("revalidate of unknown namespace succeeded")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Code != ErrCodeUnknownUpstream {
			t.Fatalf("unknown namespace error = %v", err)
		}
	}
}

func TestEpochHeaderAndBody(t *testing.T) {
	_, api, client, db := epochPipeline(t, Options{})

	resp, err := client.Rerank(rangeRequest(50))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != core.FirstEpoch {
		t.Fatalf("rerank body epoch = %d, want %d", resp.Epoch, core.FirstEpoch)
	}

	if _, err := client.Revalidate("gems"); err != nil {
		t.Fatal(err)
	}
	driftTopTuple(t, db)
	if rv, err := client.Revalidate("gems"); err != nil || !rv.Bumped {
		t.Fatalf("drift not detected: %+v err=%v", rv, err)
	}

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		r, err := api.Client().Post(api.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Body.Close() })
		return r
	}
	wantEpoch := strconv.FormatInt(core.FirstEpoch+1, 10)
	for _, path := range []string{"/v1/upstreams/gems/rerank", "/v1/upstreams/gems/rerank/stream"} {
		r := post(path, rangeRequest(50))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, r.StatusCode)
		}
		if got := r.Header.Get(KnowledgeEpochHeader); got != wantEpoch {
			t.Fatalf("%s: %s = %q, want %q", path, KnowledgeEpochHeader, got, wantEpoch)
		}
	}
	r := post("/v1/upstreams/gems/rerank/batch", BatchRequest{Requests: []RerankRequest{rangeRequest(50)}})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", r.StatusCode)
	}
	if got := r.Header.Get(KnowledgeEpochHeader); got != wantEpoch {
		t.Fatalf("batch %s = %q, want %q", KnowledgeEpochHeader, got, wantEpoch)
	}

	// The typed client surfaces the bumped epoch too.
	resp, err = client.Rerank(rangeRequest(50))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != core.FirstEpoch+1 {
		t.Fatalf("client epoch after bump = %d, want %d", resp.Epoch, core.FirstEpoch+1)
	}
}

// brokenDB always fails: the upstream the guard escalates on.
type brokenDB struct {
	hidden.Database
}

func (d *brokenDB) TopK(query.Query) (hidden.Result, error) {
	return hidden.Result{}, errors.New("injected outage")
}

func TestGuardErrorMapping(t *testing.T) {
	db := clusterDBAt(t, 23, 30)
	g := hidden.NewGuard(&brokenDB{Database: db}, hidden.GuardOptions{
		Retries:   -1, // no retry sleeps: each request is one physical attempt
		DownAfter: 3,
	})
	srv := NewFederatedServer(Options{Core: core.Options{N: 1200}})
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "flappy"}, g); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	client := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream("flappy"))

	rerankErr := func() *StatusError {
		t.Helper()
		_, err := client.Rerank(rangeRequest(30))
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("expected StatusError, got %v", err)
		}
		return se
	}
	// Failures 1 and 2: degraded → 502 upstream_degraded.
	for i := 0; i < 2; i++ {
		if se := rerankErr(); se.Status != http.StatusBadGateway || se.Code != ErrCodeUpstreamDegraded {
			t.Fatalf("failure %d: %d/%s, want 502/%s", i+1, se.Status, se.Code, ErrCodeUpstreamDegraded)
		}
	}
	// Failure 3 trips the breaker: down → 503 upstream_down with Retry-After.
	se := rerankErr()
	if se.Status != http.StatusServiceUnavailable || se.Code != ErrCodeUpstreamDown {
		t.Fatalf("failure 3: %d/%s, want 503/%s", se.Status, se.Code, ErrCodeUpstreamDown)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("down response missing Retry-After, got %v", se.RetryAfter)
	}
	// While down: fast-fail with the same mapping, without touching the
	// upstream (the guard's FastFails counter moves, Probes does not).
	before := g.Health()
	if se := rerankErr(); se.Status != http.StatusServiceUnavailable || se.Code != ErrCodeUpstreamDown {
		t.Fatalf("while down: %d/%s", se.Status, se.Code)
	}
	after := g.Health()
	if after.Probes != before.Probes || after.FastFails != before.FastFails+1 {
		t.Fatalf("fast-fail touched the upstream: probes %d→%d fastFails %d→%d",
			before.Probes, after.Probes, before.FastFails, after.FastFails)
	}

	// The descriptor reports the guard state, and revalidate maps the same
	// failure the same way.
	info, err := client.UpstreamInfo("flappy")
	if err != nil {
		t.Fatal(err)
	}
	if info.Health != "down" || info.BackoffUntilUnix == 0 {
		t.Fatalf("descriptor health = %q backoff=%d, want down with window", info.Health, info.BackoffUntilUnix)
	}
	if _, err := client.Revalidate("flappy"); err == nil {
		t.Fatal("revalidate over a down upstream succeeded")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != ErrCodeUpstreamDown {
			t.Fatalf("revalidate error = %v, want 503/%s", err, ErrCodeUpstreamDown)
		}
	}
}

// TestDeregisterRacesBackgroundTicks is the regression test for the DELETE
// teardown race: with millisecond sentinel and checkpoint loops,
// deregistration must stop the sentinel (waiting for any in-flight pass)
// BEFORE finalizing the store — repeatedly, without error. Run with -race.
func TestDeregisterRacesBackgroundTicks(t *testing.T) {
	srv := NewFederatedServer(Options{
		Core:             core.Options{N: 1200},
		SentinelInterval: time.Millisecond,
	})
	if err := srv.OpenDataDir(t.TempDir(), PersistConfig{CheckpointInterval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "keeper"}, clusterDBAt(t, 5, 40)); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	client := NewClientWith(api.URL, WithHTTPClient(api.Client()))

	for round := 0; round < 5; round++ {
		name := fmt.Sprintf("victim%d", round)
		if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: name}, clusterDBAt(t, int64(round), 20)); err != nil {
			t.Fatal(err)
		}
		// Serve a request so the checkpoint loop has knowledge to write, then
		// let the ms-interval loops run into the teardown.
		vc := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithUpstream(name))
		if _, err := vc.Rerank(rangeRequest(20)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := srv.DeregisterUpstream(name); err != nil {
			t.Fatalf("round %d: deregister mid-tick: %v", round, err)
		}
	}

	// A refused DELETE of the default namespace must leave the server
	// exactly as it was: 409, loops restarted, sentinel still passing. (The
	// default is only removable once it is the last namespace left, so a
	// second live namespace forces the refusal.)
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "spare"}, clusterDBAt(t, 6, 60)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, api.URL+"/v1/upstreams/keeper", nil)
	resp, err := api.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE default = %d, want 409", resp.StatusCode)
	}
	if _, err := client.Revalidate("keeper"); err != nil {
		t.Fatalf("revalidate after refused DELETE: %v", err)
	}
	info, err := client.UpstreamInfo("keeper")
	if err != nil {
		t.Fatal(err)
	}
	base := info.LastSentinelUnix
	deadline := time.Now().Add(2 * time.Second)
	for {
		if srv.tenants["keeper"].engine().Stats().SentinelPasses > 0 && base != 0 {
			break // sentinel loop demonstrably alive after the refused DELETE
		}
		if time.Now().After(deadline) {
			t.Fatal("sentinel loop not running after refused DELETE")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSentinelLoopBumpsWithinOneInterval: a server-scheduled sentinel
// detects an in-place corpus mutation within one interval, visible through
// the upstream descriptor without any client traffic.
func TestSentinelLoopBumpsWithinOneInterval(t *testing.T) {
	_, _, client, db := epochPipeline(t, Options{
		SentinelInterval: 5 * time.Millisecond,
	})

	// Wait for the baseline pass, then drift.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err := client.UpstreamInfo("gems")
		if err != nil {
			t.Fatal(err)
		}
		if info.LastSentinelUnix != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no baseline sentinel pass")
		}
		time.Sleep(2 * time.Millisecond)
	}
	driftTopTuple(t, db)
	deadline = time.Now().Add(2 * time.Second)
	for {
		info, err := client.UpstreamInfo("gems")
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch > core.FirstEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduled sentinel missed the mutation")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
