// Admission gate and namespace table tests: the weighted gate (bound,
// weights, idempotent release, under concurrency), and the server's namespace
// table (naming, the default namespace, rollback of a registration whose
// store cannot open, shared weighted admission, engine isolation).

package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

func TestAdmitBound(t *testing.T) {
	g := newAdmissionGate(3)
	var releases []func()
	for i := 0; i < 3; i++ {
		rel, ok := g.admit(1)
		if !ok {
			t.Fatalf("admit %d rejected below capacity", i)
		}
		releases = append(releases, rel)
	}
	if got := g.inFlight(); got != 3 {
		t.Fatalf("inFlight = %d, want 3", got)
	}
	if _, ok := g.admit(1); ok {
		t.Fatal("admit beyond capacity succeeded")
	}
	releases[0]()
	if rel, ok := g.admit(1); !ok {
		t.Fatal("admit after release rejected")
	} else {
		rel()
	}
	// release is idempotent: calling it twice must not free a phantom slot.
	releases[1]()
	releases[1]()
	if got := g.inFlight(); got != 1 {
		t.Fatalf("after double release inFlight = %d, want 1", got)
	}
}

func TestAdmitWeighted(t *testing.T) {
	g := newAdmissionGate(4)
	// A weight-3 batch fits; a second weight-3 batch must be rejected
	// whole, not half-admitted.
	rel, ok := g.admit(3)
	if !ok {
		t.Fatal("weight-3 admit rejected at empty gate")
	}
	if _, ok := g.admit(3); ok {
		t.Fatal("second weight-3 admit fit in 1 remaining slot")
	}
	if got := g.inFlight(); got != 3 {
		t.Fatalf("half-admitted batch leaked weight: in-flight = %d, want 3", got)
	}
	if rel2, ok := g.admit(1); !ok {
		t.Fatal("weight-1 admit rejected with 1 slot free")
	} else {
		rel2()
	}
	rel()
	if got := g.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d after full release, want 0", got)
	}
	// Non-positive weight normalizes to 1 on acquire and release alike.
	rel, ok = g.admit(0)
	if !ok {
		t.Fatal("weight-0 admit rejected")
	}
	if got := g.inFlight(); got != 1 {
		t.Fatalf("weight-0 admit holds %d, want 1", got)
	}
	rel()
	if got := g.inFlight(); got != 0 {
		t.Fatalf("weight-0 release left %d in flight, want 0", got)
	}
}

func TestAdmitUnlimited(t *testing.T) {
	g := newAdmissionGate(0)
	var rels []func()
	for i := 0; i < 100; i++ {
		rel, ok := g.admit(7)
		if !ok {
			t.Fatalf("unlimited gate rejected admit %d", i)
		}
		rels = append(rels, rel)
	}
	if got := g.inFlight(); got != 700 {
		t.Fatalf("inFlight = %d, want 700 (tracked even when unlimited)", got)
	}
	for _, rel := range rels {
		rel()
	}
	if got := g.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d after releases, want 0", got)
	}
}

// TestAdmitConcurrentBound hammers the gate from many goroutines (run with
// -race) and asserts the admitted in-flight weight never exceeds the bound.
func TestAdmitConcurrentBound(t *testing.T) {
	const capacity = 8
	g := newAdmissionGate(capacity)
	var inFlight, peak, admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			weight := 1 + w%3
			for i := 0; i < 500; i++ {
				rel, ok := g.admit(weight)
				if !ok {
					continue
				}
				admitted.Add(1)
				cur := inFlight.Add(int64(weight))
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inFlight.Add(-int64(weight))
				rel()
				rel() // idempotent under concurrency too
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("observed %d in-flight weight, bound is %d", p, capacity)
	}
	if admitted.Load() == 0 {
		t.Fatal("no admissions succeeded")
	}
	if got := g.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d after all releases, want 0", got)
	}
}

// tableDB is a small one-attribute upstream; seed varies its values.
func tableDB(t *testing.T, seed int64) *hidden.DB {
	t.Helper()
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	tuples := make([]types.Tuple, 500)
	rng := seed
	for i := range tuples {
		rng = rng*6364136223846793005 + 1442695040888963407
		tuples[i] = types.Tuple{ID: i, Ord: []float64{float64(uint64(rng)%10_000) / 100}}
	}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10})
}

func registerAll(t *testing.T, srv *Server, cfgs ...UpstreamConfig) {
	t.Helper()
	for i, cfg := range cfgs {
		if _, err := srv.RegisterUpstreamDB(cfg, tableDB(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
}

func tenantNames(srv *Server) []string {
	var out []string
	for _, tt := range srv.tenantList() {
		out = append(out, tt.name)
	}
	return out
}

func TestRegistryRegisterResolveDeregister(t *testing.T) {
	srv := NewFederatedServer(Options{Core: core.Options{N: 500}})
	if _, ok := srv.tenantFor(""); ok || srv.defaultName() != "" {
		t.Fatal("fresh server has a default namespace")
	}
	registerAll(t, srv, UpstreamConfig{Name: "beta"}, UpstreamConfig{Name: "alpha"})
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "beta"}, tableDB(t, 3)); !errors.Is(err, errUpstreamExists) {
		t.Fatalf("duplicate register: %v, want errUpstreamExists", err)
	}

	// First registered is the default, and the empty name resolves to it.
	if got := srv.defaultName(); got != "beta" {
		t.Fatalf("default = %q, want the first registered, beta", got)
	}
	if tt, ok := srv.tenantFor(""); !ok || tt.name != "beta" {
		t.Fatal("empty name did not resolve to the default")
	}
	if tt, ok := srv.tenantFor("alpha"); !ok || tt.name != "alpha" {
		t.Fatal("alpha did not resolve")
	}
	if _, ok := srv.tenantFor("gamma"); ok {
		t.Fatal("unknown name resolved")
	}
	if got := tenantNames(srv); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("tenantList = %v, want [alpha beta]", got)
	}

	// The default is pinned while other namespaces remain.
	if err := srv.DeregisterUpstream("beta"); !errors.Is(err, errDefaultUpstream) {
		t.Fatalf("deregister default: %v, want errDefaultUpstream", err)
	}
	if err := srv.DeregisterUpstream("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := srv.DeregisterUpstream("alpha"); !errors.Is(err, errUnknownUpstream) {
		t.Fatalf("double deregister: %v, want errUnknownUpstream", err)
	}
	if err := srv.DeregisterUpstream("beta"); err != nil { // last one may go
		t.Fatal(err)
	}
	if len(srv.tenantList()) != 0 || srv.defaultName() != "" {
		t.Fatal("table not empty after removing every namespace")
	}

	// A registration whose store cannot open is rolled back whole, default
	// name included, and the name stays free; an emptied table takes the
	// next registration as its default.
	dir := t.TempDir()
	if err := srv.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "gamma") // a file where its directory belongs
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "gamma"}, tableDB(t, 1)); err == nil {
		t.Fatal("registration over an unopenable store succeeded")
	}
	if _, ok := srv.tenantFor("gamma"); ok || srv.defaultName() != "" {
		t.Fatalf("failed registration left gamma in the table (default %q)", srv.defaultName())
	}
	registerAll(t, srv, UpstreamConfig{Name: "delta"})
	if got := srv.defaultName(); got != "delta" {
		t.Fatalf("default = %q after a rolled-back first registration, want delta", got)
	}
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	registerAll(t, srv, UpstreamConfig{Name: "gamma"})
	if err := srv.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryNameValidation(t *testing.T) {
	srv := NewFederatedServer(Options{Core: core.Options{N: 500}})
	for _, bad := range []string{"UPPER", "has space", "a/b", "../evil", ".hidden", "-lead", "_lead",
		"tooooooooooooooooooooooooooooooooooooooooooooooooooooooooooo-long"} {
		if ValidateNamespaceName(bad) == nil {
			t.Errorf("ValidateNamespaceName(%q) accepted an invalid name", bad)
		}
		if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: bad}, tableDB(t, 1)); err == nil {
			t.Errorf("RegisterUpstreamDB(%q) accepted an invalid name", bad)
		}
	}
	if ValidateNamespaceName("") == nil {
		t.Error("ValidateNamespaceName accepted the empty name")
	}
	for _, good := range []string{"a", "diamonds", "yahoo-autos", "v2.corpus", "shard_07"} {
		if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: good}, tableDB(t, 1)); err != nil {
			t.Errorf("RegisterUpstreamDB(%q): %v", good, err)
		}
	}
}

// TestRegistrySharedWeightedAdmission drives Server.admit across two
// namespaces: one gate, each session scaled by its namespace's weight.
func TestRegistrySharedWeightedAdmission(t *testing.T) {
	srv := NewFederatedServer(Options{Core: core.Options{N: 500}, MaxSessions: 6})
	registerAll(t, srv, UpstreamConfig{Name: "light"}, UpstreamConfig{Name: "heavy", AdmissionWeight: 3})
	light, _ := srv.tenantFor("light")
	heavy, _ := srv.tenantFor("heavy")
	if got := srv.Stats().MaxSessions; got != 6 {
		t.Fatalf("Stats().MaxSessions = %d, want 6", got)
	}
	admit := func(tt *tenant, weight int) (func(), int) {
		w := httptest.NewRecorder()
		rel, _, ok := srv.admit(w, httptest.NewRequest(http.MethodPost, "/", nil), tt, weight)
		if !ok {
			return nil, w.Code
		}
		return rel, http.StatusOK
	}

	// One heavy session draws 3 of the 6 shared slots.
	relH, code := admit(heavy, 1)
	if code != http.StatusOK {
		t.Fatalf("heavy admission answered %d with free capacity", code)
	}
	if got := srv.SessionsInFlight(); got != 3 {
		t.Fatalf("in-flight weight %d after one heavy session, want 3", got)
	}
	// Three light sessions fill the rest; the fourth is shed with 429.
	var rels []func()
	for i := 0; i < 3; i++ {
		rel, code := admit(light, 1)
		if code != http.StatusOK {
			t.Fatalf("light session %d answered %d with free capacity", i, code)
		}
		rels = append(rels, rel)
	}
	if _, code := admit(light, 1); code != http.StatusTooManyRequests {
		t.Fatalf("admission past the shared capacity answered %d, want 429", code)
	}
	if got := srv.Stats().RejectedCapacity; got != 1 {
		t.Fatalf("RejectedCapacity = %d, want 1", got)
	}
	// Releasing the heavy session frees room for a weight-3 batch, and
	// release is idempotent.
	relH()
	relH()
	if got := srv.SessionsInFlight(); got != 3 {
		t.Fatalf("in-flight weight %d after heavy release, want 3", got)
	}
	relB, code := admit(light, 3)
	if code != http.StatusOK {
		t.Fatalf("weight-3 batch answered %d with exactly enough capacity", code)
	}
	relB()
	for _, rel := range rels {
		rel()
	}
	if got := srv.SessionsInFlight(); got != 0 {
		t.Fatalf("in-flight weight %d after releasing everything, want 0", got)
	}
}

// TestRegistryNamespaceIsolation pins the isolation property at the engine
// level: queries against one namespace never touch another's knowledge,
// ledgers, or upstream.
func TestRegistryNamespaceIsolation(t *testing.T) {
	srv := NewFederatedServer(Options{Core: core.Options{N: 500}})
	dbA, dbB := tableDB(t, 11), tableDB(t, 22)
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "a"}, dbA); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterUpstreamDB(UpstreamConfig{Name: "b"}, dbB); err != nil {
		t.Fatal(err)
	}
	ta, _ := srv.tenantFor("a")
	tb, _ := srv.tenantFor("b")
	a, b := ta.engine(), tb.engine()

	q := query.New().WithRange(0, types.Interval{Lo: 20, Hi: 80})
	rk := ranking.NewSingle("price", 0, ranking.Asc)
	cur, err := a.NewCursor(q, rk, core.Rerank)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.TopH(cur, 5); err != nil {
		t.Fatal(err)
	}
	if a.Queries() == 0 {
		t.Fatal("precondition: namespace a issued no upstream queries")
	}
	if got := b.Queries(); got != 0 {
		t.Fatalf("namespace b's ledger moved (%d) from a's traffic", got)
	}
	if got := dbB.QueryCount(); got != 0 {
		t.Fatalf("namespace b's upstream saw %d queries from a's traffic", got)
	}
	if got := b.History().Size(); got != 0 {
		t.Fatalf("namespace b's history gained %d tuples from a's traffic", got)
	}
	if got := b.Stats().ProbeCacheEntries; got != 0 {
		t.Fatalf("namespace b's probe cache gained %d entries from a's traffic", got)
	}

	// The same probe against b is a cold miss there: isolation means no
	// cross-namespace cache hits even for identical queries.
	cur, err = b.NewCursor(q, rk, core.Rerank)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.TopH(cur, 5); err != nil {
		t.Fatal(err)
	}
	if b.Queries() == 0 {
		t.Fatal("identical query on namespace b cost nothing: knowledge leaked across namespaces")
	}
}
