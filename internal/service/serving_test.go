// Serving-tier tests: admission control under saturation, per-client budget
// windows, batched and streaming endpoints, drain semantics, body limits,
// and the metrics endpoint. Run with -race: several of these tests assert
// concurrency invariants (the in-flight session bound, slot release after a
// mid-stream disconnect).

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/query"
)

// gateDB blocks every TopK until the gate is opened, tracking the observed
// peak of concurrent upstream calls and signalling each call's arrival at
// the gate on arrived.
type gateDB struct {
	hidden.Database
	gate    chan struct{}
	arrived chan struct{}
	inCall  atomic.Int64
	peak    atomic.Int64
}

func newGateDB(db hidden.Database) *gateDB {
	// arrived holds more signals than any test lets calls reach the closed
	// gate; signals past it are dropped, never blocking a call.
	return &gateDB{Database: db, gate: make(chan struct{}), arrived: make(chan struct{}, 64)}
}

func (g *gateDB) TopK(q query.Query) (hidden.Result, error) {
	cur := g.inCall.Add(1)
	defer g.inCall.Add(-1)
	for {
		p := g.peak.Load()
		if cur <= p || g.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Database.TopK(q)
}

// awaitN receives n signals from ch, reporting false when they do not all
// come within five seconds.
func awaitN(ch <-chan struct{}, n int) bool {
	timeout := time.After(5 * time.Second)
	for ; n > 0; n-- {
		select {
		case <-ch:
		case <-timeout:
			return false
		}
	}
	return true
}

// latencyDB injects a fixed delay per upstream probe and counts calls.
type latencyDB struct {
	hidden.Database
	delay time.Duration
	calls atomic.Int64
}

func (l *latencyDB) TopK(q query.Query) (hidden.Result, error) {
	l.calls.Add(1)
	time.Sleep(l.delay)
	return l.Database.TopK(q)
}

// servingPipeline builds a service directly over db and returns the server,
// its HTTP test frontend, and a client.
func servingPipeline(t *testing.T, db hidden.Database, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := NewServerWithOptions(db, opts)
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	return srv, api, NewClientWith(api.URL, WithHTTPClient(api.Client()))
}

func bnDB(t *testing.T, n int) *hidden.DB {
	t.Helper()
	ds := dataset.BlueNile(7, n)
	db, err := hidden.NewDB(ds.Schema, ds.Tuples, hidden.Options{
		K: ds.DefaultSystemK, Ranker: ds.DefaultRanker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mdRequest builds a 2-attribute linear request over the Price band
// [lo·100, hi·100] — with the Blue Nile generator that band (around a few
// thousand dollars for lo, hi in 50..70) is well populated.
func mdRequest(lo, hi float64, h int) RerankRequest {
	loP, hiP := lo*100, hi*100
	return RerankRequest{
		Ranges: []RangeSpec{{Attr: "Price", Min: &loP, Max: &hiP}},
		Ranking: RankingSpec{Kind: "linear",
			Attrs: []string{"Price", "Carat"}, Weights: []float64{1, 1}},
		H: h,
	}
}

// TestAdmissionSaturation saturates a MaxSessions=2 server with
// requests stuck on a blocked upstream and asserts (a) the excess is shed
// with 429 + Retry-After, (b) in-flight sessions never exceed the bound,
// and (c) shed slots are not leaked: once the upstream unblocks, the
// admitted requests finish and the gate returns to empty.
func TestAdmissionSaturation(t *testing.T) {
	const bound = 2
	db := newGateDB(bnDB(t, 600))
	srv, _, client := servingPipeline(t, db, Options{
		Core:        core.Options{N: 600, ProbeCacheSize: -1},
		MaxSessions: bound,
	})

	const total = 10
	var ok429, ok200 atomic.Int64
	var maxInFlight atomic.Int64
	shed := make(chan struct{}, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct ranges so no two requests coalesce upstream.
			lo := 50.0 + float64(i)
			_, err := client.Rerank(mdRequest(lo, lo+4, 2))
			if f := int64(srv.SessionsInFlight()); f > maxInFlight.Load() {
				maxInFlight.Store(f)
			}
			if err != nil {
				var se *StatusError
				if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
					t.Errorf("request %d: unexpected error %v", i, err)
					return
				}
				if se.RetryAfter <= 0 {
					t.Errorf("429 without Retry-After")
				}
				ok429.Add(1)
				shed <- struct{}{}
				return
			}
			ok200.Add(1)
		}(i)
	}
	// Wait for the bound to fill and the rest to be shed, then open the gate.
	if !awaitN(db.arrived, bound) || !awaitN(shed, total-bound) {
		t.Error("the bound never filled, or the excess was never shed")
	}
	close(db.gate)
	wg.Wait()

	if got := ok200.Load(); got != bound {
		t.Errorf("%d requests succeeded, want %d", got, bound)
	}
	if got := ok429.Load(); got != total-bound {
		t.Errorf("%d requests got 429, want %d", got, total-bound)
	}
	if p := db.peak.Load(); p > bound {
		t.Errorf("observed %d concurrent upstream calls, bound is %d", p, bound)
	}
	if m := maxInFlight.Load(); m > bound {
		t.Errorf("observed %d in-flight sessions, bound is %d", m, bound)
	}
	if f := srv.SessionsInFlight(); f != 0 {
		t.Errorf("%d sessions still in flight after completion (leak)", f)
	}
	st := srv.Stats()
	if st.RejectedCapacity != int64(total-bound) {
		t.Errorf("stats counted %d capacity rejections, want %d", st.RejectedCapacity, total-bound)
	}
}

// TestClientBudgetWindow exercises the per-client upstream-query allowance:
// a client that spent its budget is shed with 429 + Retry-After, other
// clients are unaffected, and the window reset restores admission.
func TestClientBudgetWindow(t *testing.T) {
	db := bnDB(t, 600)
	srv, api, client := servingPipeline(t, db, Options{
		Core:               core.Options{N: 600},
		ClientBudget:       3, // a cold request over a window this wide costs more
		ClientBudgetWindow: time.Hour,
	})
	now := time.Unix(1_700_000_000, 0)
	var clock struct {
		mu sync.Mutex
		t  time.Time
	}
	clock.t = now
	srv.budgets.now = func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}

	client.ClientID = "alice"
	resp, err := client.Rerank(mdRequest(20, 90, 3))
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueriesIssued <= 3 {
		t.Fatalf("precondition: request cost %d ≤ budget", resp.QueriesIssued)
	}
	// Alice is now over budget: shed with Retry-After ≈ window remaining.
	_, err = client.Rerank(mdRequest(20, 90, 3))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: got %v, want 429", err)
	}
	if se.RetryAfter <= 0 || se.RetryAfter > time.Hour {
		t.Fatalf("Retry-After = %s, want (0, 1h]", se.RetryAfter)
	}
	if got := srv.Stats().RejectedBudget; got != 1 {
		t.Fatalf("RejectedBudget = %d, want 1", got)
	}
	// A different client key has its own window.
	client.ClientID = "bob"
	if _, err := client.Rerank(mdRequest(20, 90, 3)); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	// A client built WithClientID is charged under its own key.
	carol := NewClientWith(api.URL, WithHTTPClient(api.Client()), WithClientID("carol"))
	resp, err = carol.Rerank(mdRequest(5, 95, 3))
	if err != nil {
		t.Fatalf("WithClientID client rejected: %v", err)
	}
	srv.budgets.mu.Lock()
	w, metered := srv.budgets.clients["carol"]
	srv.budgets.mu.Unlock()
	if !metered || w.used != resp.QueriesIssued {
		t.Fatalf("carol's window: present=%v, want it charged %d", metered, resp.QueriesIssued)
	}
	// Window expiry readmits alice.
	clock.mu.Lock()
	clock.t = now.Add(time.Hour + time.Second)
	clock.mu.Unlock()
	client.ClientID = "alice"
	if _, err := client.Rerank(mdRequest(20, 90, 3)); err != nil {
		t.Fatalf("post-window request rejected: %v", err)
	}
}

// TestClientBudgetConcurrentBurst: the budget reserves one in-flight unit
// per admitted request, so a client cannot multiply its allowance by firing
// a concurrent burst that all passes the check before any charge lands.
func TestClientBudgetConcurrentBurst(t *testing.T) {
	const limit = 2
	db := newGateDB(bnDB(t, 600))
	srv, _, client := servingPipeline(t, db, Options{
		Core:               core.Options{N: 600, ProbeCacheSize: -1},
		ClientBudget:       limit,
		ClientBudgetWindow: time.Hour,
	})
	client.ClientID = "burster"

	const total = 6
	var ok200, ok429 atomic.Int64
	shed := make(chan struct{}, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := 50.0 + float64(i)
			_, err := client.Rerank(mdRequest(lo, lo+4, 2))
			if err != nil {
				var se *StatusError
				if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
					t.Errorf("request %d: unexpected error %v", i, err)
					return
				}
				ok429.Add(1)
				shed <- struct{}{}
				return
			}
			ok200.Add(1)
		}(i)
	}
	if !awaitN(db.arrived, limit) || !awaitN(shed, total-limit) {
		t.Error("the budget never filled, or the excess was never shed")
	}
	close(db.gate)
	wg.Wait()
	if got := ok200.Load(); got != limit {
		t.Errorf("%d concurrent requests ran for a budget of %d", got, limit)
	}
	if got := srv.Stats().RejectedBudget; got != total-limit {
		t.Errorf("RejectedBudget = %d, want %d", got, total-limit)
	}
}

// TestBatchEndpoint checks per-item outcomes, request-order preservation,
// and that overlapping requests inside one batch dedup probes through the
// shared engine: two identical items must cost less than twice one.
func TestBatchEndpoint(t *testing.T) {
	db := bnDB(t, 800)
	// Solo cost of the request on a fresh engine, for the dedup bound.
	soloSrv := NewServer(db, 800)
	solo, _, err := soloSrv.Rerank(mdRequest(55, 60, 4))
	if err != nil {
		t.Fatal(err)
	}
	if solo.QueriesIssued == 0 {
		t.Fatal("precondition: solo request was free")
	}

	_, _, client := servingPipeline(t, db, Options{Core: core.Options{N: 800}})
	resp, err := client.RerankBatch(BatchRequest{Requests: []RerankRequest{
		mdRequest(55, 60, 4),
		mdRequest(55, 60, 4), // identical: must coalesce with item 0
		{Ranking: RankingSpec{Kind: "linear", Attrs: []string{"NoSuchAttr"}, Weights: []float64{1}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(resp.Items))
	}
	for i := 0; i < 2; i++ {
		item := resp.Items[i]
		if item.Status != http.StatusOK || item.Response == nil {
			t.Fatalf("item %d: status %d error %+v", i, item.Status, item.Error)
		}
		if len(item.Response.Tuples) != len(solo.Tuples) {
			t.Fatalf("item %d returned %d tuples, solo returned %d",
				i, len(item.Response.Tuples), len(solo.Tuples))
		}
		for j := range item.Response.Tuples {
			if item.Response.Tuples[j].ID != solo.Tuples[j].ID {
				t.Fatalf("item %d rank %d: ID %d, solo ID %d",
					i, j, item.Response.Tuples[j].ID, solo.Tuples[j].ID)
			}
		}
	}
	if resp.Items[2].Status != http.StatusBadRequest || resp.Items[2].Error == nil {
		t.Fatalf("bad item: status %d error %+v", resp.Items[2].Status, resp.Items[2].Error)
	}
	if resp.QueriesIssued >= 2*solo.QueriesIssued {
		t.Errorf("batch cost %d upstream queries, want < 2x solo cost %d (coalescing)",
			resp.QueriesIssued, solo.QueriesIssued)
	}

	// The in-process call gives the same items as the HTTP route.
	inproc := NewServer(db, 800).RerankBatch(BatchRequest{Requests: []RerankRequest{
		mdRequest(55, 60, 4),
		mdRequest(55, 60, 4),
		{Ranking: RankingSpec{Kind: "linear", Attrs: []string{"NoSuchAttr"}, Weights: []float64{1}}},
	}})
	if len(inproc.Items) != len(resp.Items) {
		t.Fatalf("in-process batch returned %d items, HTTP %d", len(inproc.Items), len(resp.Items))
	}
	for i, item := range inproc.Items {
		want := resp.Items[i]
		if item.Status != want.Status || (item.Error == nil) != (want.Error == nil) {
			t.Fatalf("in-process item %d: status %d error %+v, HTTP %d %+v", i, item.Status, item.Error, want.Status, want.Error)
		}
		if item.Error != nil && item.Error.Code != want.Error.Code {
			t.Fatalf("in-process item %d: code %q, HTTP %q", i, item.Error.Code, want.Error.Code)
		}
		if item.Response == nil {
			continue
		}
		if len(item.Response.Tuples) != len(want.Response.Tuples) {
			t.Fatalf("in-process item %d: %d tuples, HTTP %d", i, len(item.Response.Tuples), len(want.Response.Tuples))
		}
		for j, tp := range item.Response.Tuples {
			if tp.ID != want.Response.Tuples[j].ID || tp.Score != want.Response.Tuples[j].Score {
				t.Fatalf("in-process item %d rank %d: %+v, HTTP %+v", i, j, tp, want.Response.Tuples[j])
			}
		}
	}
}

// TestBatchWeightedAdmission: a batch of N weighs N slots — it is admitted
// whole or shed whole, never partially.
func TestBatchWeightedAdmission(t *testing.T) {
	db := bnDB(t, 400)
	srv, _, client := servingPipeline(t, db, Options{
		Core:        core.Options{N: 400},
		MaxSessions: 2,
	})
	two := BatchRequest{Requests: []RerankRequest{mdRequest(55, 60, 2), mdRequest(60, 65, 2)}}
	if _, err := client.RerankBatch(two); err != nil {
		t.Fatalf("batch of 2 under a 2-session bound rejected: %v", err)
	}
	three := BatchRequest{Requests: []RerankRequest{
		mdRequest(55, 60, 2), mdRequest(60, 65, 2), mdRequest(65, 70, 2),
	}}
	_, err := client.RerankBatch(three)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("batch of 3 under a 2-session bound: got %v, want 429", err)
	}
	if f := srv.SessionsInFlight(); f != 0 {
		t.Fatalf("rejected batch leaked %d session slots", f)
	}
}

// TestStreamMatchesRerank: the streamed tuple sequence equals the one-shot
// response for the same request on an identically warmed engine, with
// nondecreasing cumulative cost and a final summary event.
func TestStreamMatchesRerank(t *testing.T) {
	db := bnDB(t, 800)
	oneShot, _, err := NewServer(db, 800).Rerank(mdRequest(52, 64, 6))
	if err != nil {
		t.Fatal(err)
	}

	_, _, client := servingPipeline(t, db, Options{Core: core.Options{N: 800}})
	var tuples []TupleJSON
	var lastCum int64
	final, err := client.RerankStream(mdRequest(52, 64, 6), func(ev StreamEvent) bool {
		if ev.CumQueries < lastCum {
			t.Errorf("cumQueries went backwards: %d -> %d", lastCum, ev.CumQueries)
		}
		lastCum = ev.CumQueries
		if ev.Tuple != nil {
			tuples = append(tuples, *ev.Tuple)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done {
		t.Fatal("no final event")
	}
	if final.QueriesIssued != lastCum {
		t.Errorf("final queriesIssued %d != last cumQueries %d", final.QueriesIssued, lastCum)
	}
	if len(tuples) != len(oneShot.Tuples) {
		t.Fatalf("stream emitted %d tuples, one-shot returned %d", len(tuples), len(oneShot.Tuples))
	}
	for i := range tuples {
		if tuples[i].ID != oneShot.Tuples[i].ID {
			t.Fatalf("rank %d: stream ID %d, one-shot ID %d", i, tuples[i].ID, oneShot.Tuples[i].ID)
		}
	}
}

// TestStreamFirstTupleBeforeCompletion is the streaming acceptance test:
// with a latency-injecting upstream, the first NDJSON tuple must arrive
// while the search is still probing — i.e. strictly before the upstream
// call count reaches its final value.
func TestStreamFirstTupleBeforeCompletion(t *testing.T) {
	db := &latencyDB{Database: bnDB(t, 800), delay: 2 * time.Millisecond}
	// Baseline algorithm (it never reads the dense index) with history and
	// fact index disabled: every Get-Next must reach the upstream, so a
	// stream that buffered the whole search before emitting would show
	// callsAtFirstTuple == total.
	_, _, client := servingPipeline(t, db, Options{Core: core.Options{
		N: 800, DisableHistory: true, ProbeCacheSize: -1,
	}})
	lo, hi := 5000.0, 7000.0
	req := RerankRequest{
		Ranges:    []RangeSpec{{Attr: "Price", Min: &lo, Max: &hi}},
		Ranking:   RankingSpec{Kind: "single", Attrs: []string{"Price"}},
		Algorithm: "baseline",
		H:         8,
	}

	var callsAtFirstTuple int64 = -1
	final, err := client.RerankStream(req, func(ev StreamEvent) bool {
		if ev.Tuple != nil && callsAtFirstTuple < 0 {
			callsAtFirstTuple = db.calls.Load()
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := db.calls.Load()
	if callsAtFirstTuple < 0 {
		t.Fatal("stream emitted no tuples")
	}
	if callsAtFirstTuple >= totalCalls {
		t.Fatalf("first tuple only after the search completed: %d calls at first tuple, %d total",
			callsAtFirstTuple, totalCalls)
	}
	if final.QueriesIssued == 0 {
		t.Fatal("stream reported zero upstream cost under a cold engine")
	}
}

// TestStreamInBandErrorStatus: a failure after the stream started (HTTP 200
// already sent) arrives as a final event whose Status lets clients classify
// it exactly like a one-shot failure — here upstream rate limiting → 429.
func TestStreamInBandErrorStatus(t *testing.T) {
	ds := dataset.BlueNile(7, 600)
	db, err := hidden.NewDB(ds.Schema, ds.Tuples, hidden.Options{
		K: ds.DefaultSystemK, Ranker: ds.DefaultRanker, QueryBudget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := servingPipeline(t, db, Options{Core: core.Options{N: 600}})
	// Three pages of system-k = 30 cannot hold a hundred answers, however
	// cheap the search gets: the budget runs out mid-stream at any cost.
	_, err = client.RerankStream(mdRequest(5, 500, 100), nil)
	if err == nil {
		t.Fatal("stream against an exhausted upstream budget succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("mid-stream rate limit surfaced as %v, want StatusError 429", err)
	}
}

// TestStreamDisconnectReleasesSlot: a client that walks away mid-stream
// must not leak its admission slot — the handler notices at the next tuple
// boundary and releases, readmitting new work.
func TestStreamDisconnectReleasesSlot(t *testing.T) {
	db := &latencyDB{Database: bnDB(t, 800), delay: 2 * time.Millisecond}
	srv, api, client := servingPipeline(t, db, Options{
		Core:        core.Options{N: 800},
		MaxSessions: 1,
	})

	body, _ := json.Marshal(mdRequest(50, 70, 10))
	req, err := http.NewRequest(http.MethodPost, api.URL+"/v1/upstreams/default/rerank/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := api.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	// Read exactly one tuple line, then hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The slot must come back without draining the whole stream.
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionsInFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnected stream still holds %d session slots", srv.SessionsInFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Rerank(mdRequest(50, 55, 2)); err != nil {
		t.Fatalf("request after disconnected stream rejected (slot leaked): %v", err)
	}
}

// TestDrain: BeginDrain stops admission (healthz flips to 503 so load
// balancers deregister) while an in-flight request runs to completion.
func TestDrain(t *testing.T) {
	db := newGateDB(bnDB(t, 400))
	srv, api, client := servingPipeline(t, db, Options{Core: core.Options{N: 400}})

	done := make(chan error, 1)
	go func() {
		_, err := client.Rerank(mdRequest(55, 60, 2))
		done <- err
	}()
	if !awaitN(db.arrived, 1) {
		t.Error("the in-flight request never reached the upstream")
	}
	srv.BeginDrain()

	// New work is shed with 503...
	_, err := client.Rerank(mdRequest(60, 65, 2))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: got %v, want 503", err)
	}
	hres, err := api.Client().Get(api.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", hres.StatusCode)
	}
	// ...while the in-flight request finishes normally.
	close(db.gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if got := srv.Stats().RejectedDraining; got != 1 {
		t.Fatalf("RejectedDraining = %d, want 1", got)
	}
}

// TestBodyLimits: malformed JSON is 400, an oversized body is 413 on every
// POST endpoint.
func TestBodyLimits(t *testing.T) {
	db := bnDB(t, 300)
	_, api, _ := servingPipeline(t, db, Options{
		Core:         core.Options{N: 300},
		MaxBodyBytes: 512,
	})
	post := func(path string, body io.Reader) int {
		resp, err := api.Client().Post(api.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	const rerank = "/v1/upstreams/default/rerank"
	for _, path := range []string{rerank, rerank + "/batch", rerank + "/stream"} {
		if code := post(path, strings.NewReader("{not json")); code != http.StatusBadRequest {
			t.Errorf("%s malformed body: status %d, want 400", path, code)
		}
		big := strings.NewReader(`{"h": 1, "pad": "` + strings.Repeat("x", 2048) + `"}`)
		if code := post(path, big); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413", path, code)
		}
	}
	// Unknown algorithm / attribute / oversized h survive unchanged.
	cases := []string{
		`{"ranking":{"kind":"single","attrs":["Depth"]},"algorithm":"quantum"}`,
		`{"ranking":{"kind":"single","attrs":["NoSuch"]}}`,
		`{"ranking":{"kind":"single","attrs":["Depth"]},"h":1048576}`,
	}
	for _, body := range cases {
		for _, path := range []string{rerank, rerank + "/stream"} {
			if code := post(path, strings.NewReader(body)); code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, body, code)
			}
		}
	}
	if code := post(rerank+"/batch", strings.NewReader(`{"requests":[]}`)); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text matching /v1/stats.
func TestMetricsEndpoint(t *testing.T) {
	db := bnDB(t, 400)
	srv, api, client := servingPipeline(t, db, Options{
		Core:        core.Options{N: 400},
		MaxSessions: 9,
	})
	if _, err := client.Rerank(mdRequest(55, 60, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RerankBatch(BatchRequest{Requests: []RerankRequest{mdRequest(60, 65, 2)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RerankStream(mdRequest(65, 70, 2), nil); err != nil {
		t.Fatal(err)
	}
	// A 1D request, twice — the repeat searches from the history the first
	// left (certification) — and an MD request whose partitioning meets
	// boxes that overflow, twice — the repeat re-asks them (partial hits) —
	// and a linear MD request under a second set of weights, so the repeat's
	// candidate is history's but its contour no fact's (deep certification).
	oneD := RerankRequest{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Price"}, Desc: true}, H: 6}
	ratio := RerankRequest{Ranking: RankingSpec{Kind: "ratio", Attrs: []string{"Price", "Carat"}},
		Filters: map[string]string{"Shape": "Round"}, H: 5}
	linear := mdRequest(30, 90, 4)
	reweighted := linear
	reweighted.Ranking.Weights = []float64{1, 500}
	for _, req := range []RerankRequest{oneD, oneD, ratio, ratio, linear, reweighted} {
		if _, err := client.Rerank(req); err != nil {
			t.Fatal(err)
		}
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
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	st := srv.Stats()
	us := st.Upstreams[DefaultUpstream]
	text := string(raw)
	want := []string{
		fmt.Sprintf("rerank_sessions_limit %d", 9),
		"rerank_rejected_total{cause=\"capacity\"} 0",
		"rerank_rejected_total{cause=\"budget\"} 0",
		"rerank_draining 0",
	}
	// Every namespace counter is one labeled series off the upstreamSeries
	// table, with the value /v1/stats reports.
	for _, m := range upstreamSeries {
		want = append(want, fmt.Sprintf("rerank_upstream_%s{upstream=\"default\"} %d", m.name, m.value(us)))
	}
	// An exact hit, a contained one and the replay of an overflow page are
	// told apart; 1D and MD certification report their outcomes, and the
	// pages both cursors keep count the Get-Nexts they answered.
	if us.ProbeContainedHits == 0 || us.ProbeFactBytes <= 0 || us.ProbeCacheEntries == 0 || us.ProbePartialHits == 0 ||
		us.CertifiedComplete == 0 || us.MDCertifiedComplete == 0 || us.CoverHits == 0 {
		t.Errorf("the requests exercised too little: %+v", us)
	}
	for _, line := range want {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if us.StreamRequests != 1 || us.StreamTuples == 0 {
		t.Errorf("stream counters: requests=%d tuples=%d", us.StreamRequests, us.StreamTuples)
	}
}

// TestSchemaEndpoint: the service republishes the upstream schema for
// clients and load generators.
func TestSchemaEndpoint(t *testing.T) {
	db := bnDB(t, 300)
	_, api, _ := servingPipeline(t, db, Options{Core: core.Options{N: 300}})
	resp, err := api.Client().Get(api.URL + "/v1/upstreams/default/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.K != db.K() {
		t.Fatalf("schema k = %d, want %d", sr.K, db.K())
	}
	if len(sr.Attrs) != db.Schema().Len() {
		t.Fatalf("schema has %d attrs, want %d", len(sr.Attrs), db.Schema().Len())
	}
}
