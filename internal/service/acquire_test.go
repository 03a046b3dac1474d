// Service-level tests for proactive background acquisition: idle-gated
// warming with clean ledger separation (client budgets and request counters
// never absorb acquisition cost), strict yielding under user saturation,
// and warm restarts where acquired knowledge — including the heat sketch —
// survives the data-dir round trip. Run with -race.

package service

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/types"
)

// acquireOpts returns serving options with acquisition enabled but the
// background loop effectively parked (1h interval): tests drive ticks
// synchronously for determinism. IdleAfter is a nanosecond so any pause in
// user traffic counts as idle.
func acquireOpts(maxSessions int) Options {
	return Options{
		Core:        core.Options{N: 1200},
		MaxSessions: maxSessions,
		Acquire: AcquireOptions{
			Enabled: true,
			Config:  acquire.Config{Interval: time.Hour, IdleAfter: time.Nanosecond, WarmDepth: 12},
		},
	}
}

// acquireReq is a 1D window request over clusteredDB's A0 — the window the
// heat sketch will record and the acquirer will warm.
func acquireReq(h int, desc bool) RerankRequest {
	lo, hi := 10.0, 15.0
	return RerankRequest{
		Ranges:  []RangeSpec{{Attr: "A0", Min: &lo, Max: &hi}},
		Ranking: RankingSpec{Kind: "single", Attrs: []string{"A0"}, Desc: desc},
		H:       h,
	}
}

// anonymousBudgetUsed reads the anonymous client's settled budget spend.
func anonymousBudgetUsed(t *testing.T, srv *Server) int64 {
	t.Helper()
	if srv.budgets == nil {
		t.Fatal("budgets not configured")
	}
	srv.budgets.mu.Lock()
	defer srv.budgets.mu.Unlock()
	if w := srv.budgets.clients[""]; w != nil {
		return w.used
	}
	return 0
}

// TestAcquireIdleWarmingAndLedgerSeparation: user traffic heats a window,
// an idle tick acquires it, and afterwards (a) the client's budget window
// and the request counters show only the user's own spend, (b) the
// engine-wide counter carries user + acquirer spend, and (c) a query over
// the warmed window — including the direction users never asked for — costs
// zero upstream.
func TestAcquireIdleWarmingAndLedgerSeparation(t *testing.T) {
	db := clusteredDB(t)
	opts := acquireOpts(8)
	opts.ClientBudget = 10_000
	srv, api, client := servingPipeline(t, db, opts)

	var userSpent int64
	for i := 0; i < 2; i++ {
		resp, err := client.Rerank(acquireReq(5, false))
		if err != nil {
			t.Fatal(err)
		}
		userSpent += resp.QueriesIssued
	}
	if userSpent == 0 {
		t.Fatal("precondition: cold user requests cost 0 upstream queries")
	}

	tt, ok := srv.tenantFor("")
	if !ok || tt.acq == nil {
		t.Fatal("acquirer not started on the default namespace")
	}
	tt.acq.Tick()
	as := tt.acq.Stats()
	if as.WindowsAcquired == 0 {
		t.Fatalf("idle tick acquired nothing: %+v", as)
	}
	if as.ProbesIssued == 0 {
		t.Fatal("acquisition reported zero upstream probes")
	}

	// Ledger separation: the budget window and HTTP counters hold only the
	// user's spend; the engine-wide counter holds both.
	if got := anonymousBudgetUsed(t, srv); got != userSpent {
		t.Errorf("client budget charged %d, want the user's own %d", got, userSpent)
	}
	st := srv.Stats()
	us := st.Upstreams[DefaultUpstream]
	if us.Requests != 2 {
		t.Errorf("request counter %d after acquisition, want 2", us.Requests)
	}
	if us.EngineQueries != userSpent+as.ProbesIssued {
		t.Errorf("engine queries %d, want user %d + acquirer %d", us.EngineQueries, userSpent, as.ProbesIssued)
	}
	if us.Acquire == nil || !st.AcquireEnabled {
		t.Fatal("/v1/stats is missing the acquire block")
	}
	if us.Acquire.ProbesIssued != as.ProbesIssued {
		t.Errorf("stats acquire probes %d, want %d", us.Acquire.ProbesIssued, as.ProbesIssued)
	}

	// The warmed window answers both directions for free — including DESC,
	// which no user request ever issued.
	for _, desc := range []bool{false, true} {
		resp, err := client.Rerank(acquireReq(5, desc))
		if err != nil {
			t.Fatal(err)
		}
		if resp.QueriesIssued != 0 {
			t.Errorf("warmed window (desc=%v) cost %d upstream queries, want 0", desc, resp.QueriesIssued)
		}
	}

	// A re-tick skips the now-warm window rather than re-crawling it.
	tt.acq.Tick()
	as2 := tt.acq.Stats()
	if as2.ProbesIssued != as.ProbesIssued {
		t.Errorf("re-tick issued %d extra probes over a warm window", as2.ProbesIssued-as.ProbesIssued)
	}
	if as2.SkippedWarm == 0 {
		t.Error("re-tick did not record the warm skip")
	}

	// The metrics endpoint exposes the acquire series.
	mresp, err := api.Client().Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"rerank_acquire_enabled 1",
		`rerank_upstream_acquire_probes_total{upstream="default"}`,
		`rerank_upstream_acquire_windows_total{upstream="default"}`,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

// TestAcquireYieldsToSaturation: with every non-reserve admission slot held
// by blocked user requests, acquisition ticks do nothing — zero probes, the
// yield counter advances — and user shedding behaves exactly as without an
// acquirer. Once the users drain, the same tick acquires.
func TestAcquireYieldsToSaturation(t *testing.T) {
	gdb := newGateDB(clusteredDB(t))
	srv, api, client := servingPipeline(t, gdb, acquireOpts(2))

	// Heat the sketch directly (no user stamp): the namespace stays idle,
	// so only the pressure guards stand between the acquirer and the gate.
	hot := query.New().WithRange(0, types.ClosedInterval(10, 15))
	for i := 0; i < 3; i++ {
		srv.Engine().RecordHeat(hot)
	}
	tt, _ := srv.tenantFor("")

	// Saturate: two requests block on the gated upstream, holding both
	// admission slots.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Rerank(acquireReq(3, false))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionsInFlight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("user requests never occupied the admission gate")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 5; i++ {
		tt.acq.Tick()
	}
	as := tt.acq.Stats()
	if as.ProbesIssued != 0 || as.WindowsAcquired != 0 {
		t.Fatalf("acquirer worked under saturation: %+v", as)
	}
	if as.Yields+as.AdmissionDenied == 0 {
		t.Fatalf("saturated ticks recorded no yields: %+v", as)
	}

	// User shedding is untouched by the acquirer: the next request over
	// capacity still sheds with 429.
	resp, err := api.Client().Post(api.URL+"/v1/upstreams/default/rerank", "application/json",
		strings.NewReader(`{"ranking":{"kind":"single","attrs":["A0"]},"h":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity user request got %d, want 429", resp.StatusCode)
	}

	close(gdb.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("saturating request %d failed: %v", i, err)
		}
	}

	// Drained and idle again: the very same tick path now acquires.
	for srv.SessionsInFlight() != 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond) // clear the 1ns idle gate and pressure window
	tt.acq.Tick()
	as2 := tt.acq.Stats()
	if as2.WindowsAcquired == 0 {
		t.Fatalf("post-drain tick acquired nothing: %+v", as2)
	}
}

// TestAcquireWarmRestartFromDataDir: acquired knowledge AND the heat sketch
// ride the namespace's segment store — after a restart the warmed window
// answers users for zero upstream, and the restored heat immediately marks
// the window as already-warm work for the new acquirer.
func TestAcquireWarmRestartFromDataDir(t *testing.T) {
	db := clusteredDB(t)
	dir := t.TempDir()

	srv1 := NewServerWithOptions(db, acquireOpts(8))
	if err := srv1.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv1.Rerank(acquireReq(5, false)); err != nil {
		t.Fatal(err)
	}
	tt1, _ := srv1.tenantFor("")
	tt1.acq.Tick()
	if as := tt1.acq.Stats(); as.WindowsAcquired == 0 {
		t.Fatalf("precondition: tick acquired nothing: %+v", as)
	}
	srv1.BeginDrain() // stops the acquirer first, as the drain path does
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	db.ResetCounter()
	srv2 := NewServerWithOptions(db, acquireOpts(8))
	if err := srv2.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	defer srv2.ClosePersistence()

	// The acquired window answers a user in the never-user-queried
	// direction for zero upstream.
	resp, _, err := srv2.Rerank(acquireReq(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueriesIssued != 0 {
		t.Errorf("restarted warm window cost %d upstream queries, want 0", resp.QueriesIssued)
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("restarted warm window reached the upstream %d times, want 0", n)
	}

	// The heat sketch survived: the restored hottest candidate is the same
	// window, which the new acquirer recognizes as warm instead of
	// re-crawling.
	tt2, _ := srv2.tenantFor("")
	tt2.acq.Tick()
	as2 := tt2.acq.Stats()
	if as2.SkippedWarm == 0 {
		t.Fatalf("restored heat did not surface the warmed window: %+v", as2)
	}
	if as2.ProbesIssued != 0 {
		t.Errorf("restarted acquirer re-crawled a warm window (%d probes)", as2.ProbesIssued)
	}
}
