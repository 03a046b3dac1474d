package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// gateDB counts the TopK calls that reach it and, when it has a gate, parks
// each of them until the test closes the gate — so concurrent identical
// probes overlap in flight on the test's say-so, not on a timer.
type gateDB struct {
	inner hidden.Database
	gate  chan struct{} // nil: calls pass straight through
	calls atomic.Int64
}

func (s *gateDB) TopK(q query.Query) (hidden.Result, error) {
	s.calls.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	return s.inner.TopK(q)
}

// awaitFollowers returns once e's in-flight upstream probe for q has n
// callers parked on its result.
func awaitFollowers(e *Engine, q query.Query, n int) {
	g := e.flights
	for followers := 0; followers < n; runtime.Gosched() {
		g.mu.Lock()
		if f, ok := g.inflight[q.String()]; ok {
			followers = f.followers
		}
		g.mu.Unlock()
	}
}

func (s *gateDB) K() int                { return s.inner.K() }
func (s *gateDB) Schema() *types.Schema { return s.inner.Schema() }

// TestCrawlWarmRepeat: crawl probes route through the engine's probe path, so
// a repeat crawl of the same region replays every cached complete sub-answer
// for free and re-issues only the overflowing (internal-node) probes.
func TestCrawlWarmRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	db, all := newTestDB(t, rng, 2, 600, 5, false, nil)
	e := NewEngine(db, Options{N: 600})
	q := query.New().WithRange(0, types.ClosedInterval(10, 45))

	sess1 := e.NewSession()
	got1, err := sess1.CrawlAll(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range all {
		if q.Matches(tu) {
			want++
		}
	}
	if len(got1) != want {
		t.Fatalf("cold crawl retrieved %d tuples, want %d", len(got1), want)
	}
	cost1 := sess1.Queries()
	if cost1 == 0 {
		t.Fatal("cold crawl cost 0 queries")
	}

	sess2 := e.NewSession()
	got2, err := sess2.CrawlAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got1) {
		t.Fatalf("warm crawl retrieved %d tuples, want %d", len(got2), len(got1))
	}
	for i := range got2 {
		if got2[i].ID != got1[i].ID {
			t.Fatalf("warm crawl tuple %d has ID %d, want %d", i, got2[i].ID, got1[i].ID)
		}
	}
	cost2 := sess2.Queries()
	if cost2 >= cost1 {
		t.Errorf("warm repeat crawl cost %d, want below the cold cost %d (complete sub-answers must come from the probe LRU)", cost2, cost1)
	}
	if e.Queries() != db.QueryCount() {
		t.Errorf("engine counted %d queries, upstream answered %d", e.Queries(), db.QueryCount())
	}
	if sess1.Queries()+sess2.Queries() != e.Queries() {
		t.Errorf("session ledgers sum to %d, engine counted %d", sess1.Queries()+sess2.Queries(), e.Queries())
	}

	// A crawl whose upstream fails part-way is charged per probe as it goes:
	// exactly the probes the upstream answered before the failure.
	inner, _ := newTestDB(t, rand.New(rand.NewSource(80)), 2, 600, 5, false, nil)
	flaky := &hidden.FlakyDB{DB: inner, FailEvery: 4}
	ef := NewEngine(flaky, Options{N: 600})
	sf := ef.NewSession()
	if _, err := sf.CrawlAll(q); !errors.Is(err, hidden.ErrTransient) {
		t.Fatalf("crawl over a failing upstream returned %v, want ErrTransient", err)
	}
	if n := inner.QueryCount(); n != 3 || sf.Queries() != n || ef.Queries() != n {
		t.Errorf("failed crawl: session charged %d, engine %d, upstream answered %d; want 3 each",
			sf.Queries(), ef.Queries(), n)
	}
}

// TestConcurrentOverlappingCrawlsDedup (-race): concurrent crawls of the
// same and overlapping regions dedup at probe granularity, not just at
// whole-crawl leadership — identical in-flight sub-queries are issued once
// and cached complete answers are shared. Accounting must stay exact: the
// engine counter equals the upstream's own count, and the deduplicated
// probes are charged once, to the sessions that actually issued them.
func TestConcurrentOverlappingCrawlsDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	inner, all := newTestDB(t, rng, 2, 600, 5, false, nil)
	db := &gateDB{inner: inner}

	// Reference cost: one crawl of the shared query, alone, cold.
	ref := NewEngine(db, Options{N: 600})
	q := query.New().WithRange(0, types.ClosedInterval(20, 55))
	if _, err := ref.NewSession().CrawlAll(q); err != nil {
		t.Fatal(err)
	}
	cost1 := db.calls.Load()
	if cost1 == 0 {
		t.Fatal("reference crawl cost 0 probes")
	}

	want := 0
	for _, tu := range all {
		if q.Matches(tu) {
			want++
		}
	}

	db.calls.Store(0)
	db.gate = make(chan struct{})
	e := NewEngine(db, Options{N: 600})
	const g = 8
	sessions := make([]*Session, g)
	var wg sync.WaitGroup
	errs := make(chan error, g)
	for i := 0; i < g; i++ {
		sessions[i] = e.NewSession()
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			got, err := sess.CrawlAll(q)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != want {
				t.Errorf("concurrent crawl retrieved %d tuples, want %d", len(got), want)
			}
		}(sessions[i])
	}
	// Every crawl starts with the same probe: hold its leader upstream until
	// the other crawls have joined its flight, so at least that probe is
	// shared by construction.
	awaitFollowers(e, q, g-1)
	close(db.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := db.calls.Load()
	if total >= int64(g)*cost1 {
		t.Errorf("%d concurrent identical crawls cost %d upstream probes, want below %d (no probe-level dedup happened)",
			g, total, int64(g)*cost1)
	}
	if e.Queries() != total {
		t.Errorf("engine counted %d queries, upstream answered %d", e.Queries(), total)
	}
	var sum int64
	for _, s := range sessions {
		sum += s.Queries()
	}
	if sum != total {
		t.Errorf("session ledgers sum to %d, upstream answered %d (deduped probes must be charged exactly once)", sum, total)
	}
}

// TestConcurrentDistinctCrawls (-race): crawls of disjoint regions running
// concurrently must not corrupt each other's results or accounting.
func TestConcurrentDistinctCrawls(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	inner, all := newTestDB(t, rng, 2, 600, 5, true, systemRankers(2)[1])
	db := &gateDB{inner: inner, gate: make(chan struct{})}
	e := NewEngine(db, Options{N: 600})

	queries := []query.Query{
		query.New().WithRange(0, types.ClosedInterval(0, 30)),
		query.New().WithRange(0, types.ClosedInterval(30, 60)),
		query.New().WithRange(1, types.ClosedInterval(10, 40)).WithCat("cat", "x"),
		query.New().WithRange(1, types.ClosedInterval(35, 70)),
	}
	var wg sync.WaitGroup
	sessions := make([]*Session, len(queries))
	errs := make(chan error, len(queries))
	for i, qq := range queries {
		sessions[i] = e.NewSession()
		wg.Add(1)
		go func(sess *Session, qq query.Query) {
			defer wg.Done()
			got, err := sess.CrawlAll(qq)
			if err != nil {
				errs <- err
				return
			}
			want := 0
			for _, tu := range all {
				if qq.Matches(tu) {
					want++
				}
			}
			if len(got) != want {
				t.Errorf("crawl of %v retrieved %d tuples, want %d", qq, len(got), want)
			}
		}(sessions[i], qq)
	}
	// Let nothing through until every crawl has a probe upstream: the four
	// crawls then run side by side rather than one after another.
	for db.calls.Load() < int64(len(queries)) {
		runtime.Gosched()
	}
	close(db.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.Queries() != db.calls.Load() {
		t.Errorf("engine counted %d queries, upstream answered %d", e.Queries(), db.calls.Load())
	}
	var sum int64
	for _, s := range sessions {
		sum += s.Queries()
	}
	if sum != e.Queries() {
		t.Errorf("session ledgers sum to %d, engine counted %d", sum, e.Queries())
	}
}
