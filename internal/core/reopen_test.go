// Warm-restart tests at the cursor level: what a restarted engine can answer
// from a replayed segment store, and at what upstream cost. (The store's own
// mechanics — checkpoint cycle, crash recovery, inlining — are in
// persist_test.go, next to the persistedEngine/reopenViaStore helpers.)

package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/segment"
	"repro/internal/types"
)

// TestReopenRoundTrip: a warm-restarted engine must answer a repeated
// query for (almost) no upstream cost, and still exactly.
func TestReopenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	schema := testSchema(2)
	n := 2000
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, schema.Len())
		if i < n/3 {
			ord[0] = 0.5 + rng.Float64()*0.05
		} else {
			ord[0] = 1 + rng.Float64()*99
		}
		ord[1] = rng.Float64() * 100
		tuples[i] = types.Tuple{ID: i, Ord: ord, Cat: map[string]string{"cat": "x"}}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})

	// Warm up an engine (builds history + a dense region).
	e1 := persistedEngine(t, db, Options{N: n})
	cur := e1.NewOneDCursor(query.New(), 0, ranking.Asc, Rerank)
	want, err := TopH(cur, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Restart, repeat the query.
	db.ResetCounter()
	e2 := reopenViaStore(t, e1)
	if e2.History().Size() != e1.History().Size() {
		t.Fatalf("history size %d, want %d", e2.History().Size(), e1.History().Size())
	}
	if e2.DenseIndex1D().Regions(0) != e1.DenseIndex1D().Regions(0) {
		t.Fatal("dense regions lost")
	}
	cur2 := e2.NewOneDCursor(query.New(), 0, ranking.Asc, Rerank)
	got, err := TopH(cur2, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := ranking.NewSingle("1d", 0, ranking.Asc)
	assertSameRanking(t, r, got, want)
	// The warm engine should answer mostly from state: far fewer queries
	// than a cold run (which cost well over 20 here).
	if db.QueryCount() > 15 {
		t.Errorf("warm repeat cost %d queries, want ≤ 15", db.QueryCount())
	}
}

// TestCheckpointUnderLoadStaysWarm: a checkpoint taken while concurrent
// sessions are mid-flight, followed by a crash (no final checkpoint), must
// recover with the probe cache warm enough that a previously answered probe
// costs zero upstream queries.
func TestCheckpointUnderLoadStaysWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	db, _ := newTestDB(t, rng, 2, 600, 8, true, systemRankers(2)[2])
	dir := t.TempDir()
	e := NewEngine(db, Options{N: 600})
	st := openStore(t, e, dir, segment.Options{})
	p, err := e.AttachPersistence(st, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Pin one complete probe into the cache before the storm.
	pinned := query.New().WithRange(0, types.ClosedInterval(20, 21)).WithCat("cat", "y")
	res, _, err := e.NewSession().probe(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow {
		t.Fatal("precondition: pinned probe overflowed; pick a narrower test query")
	}

	// Checkpoint while a concurrent workload hammers the engine.
	items := concurrentWorkload(rng)
	var wg sync.WaitGroup
	errs := make(chan error, len(items))
	for _, it := range items {
		wg.Add(1)
		go func(it concurrentWorkItem) {
			defer wg.Done()
			cur, err := e.NewSession().NewCursor(it.q, it.r, it.v)
			if err != nil {
				errs <- err
				return
			}
			if _, err := TopH(cur, it.h); err != nil {
				errs <- err
			}
		}(it)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st.Close() // crash: whatever the mid-load checkpoint committed is all there is

	warm := NewEngine(db, Options{N: 600})
	if ps := attachStore(t, warm, dir, segment.Options{}).store.Stats(); ps.DroppedRecords != 0 {
		t.Fatalf("mid-load checkpoint does not replay: %+v", ps)
	}
	db.ResetCounter()
	sess := warm.NewSession()
	if _, _, err := sess.probe(pinned); err != nil {
		t.Fatal(err)
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("pinned probe after under-load restart cost %d upstream queries, want 0", n)
	}
	if n := sess.Queries(); n != 0 {
		t.Errorf("pinned probe after under-load restart charged %d, want 0", n)
	}
}

// TestReopenForeignFingerprintStartsCold: cached probe answers and crawled
// regions are claims about one specific upstream, so a store written under
// a different k or system ranking is quarantined whole — the engine boots
// cold (history included) rather than serving another deployment's state.
// (The matching-upstream case is TestPersistWarmRestartZeroRespend.)
func TestReopenForeignFingerprintStartsCold(t *testing.T) {
	db, tuples := persistTestWorld(t, 66)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("other-sys", 1, ranking.Desc)}
	for name, foreign := range map[string]*hidden.DB{
		"k":      hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 7}),
		"ranker": hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 10, Ranker: sys}),
	} {
		t.Run(name, func(t *testing.T) {
			e1 := persistedEngine(t, db, Options{N: 400})
			runPersistWorkload(t, e1, tuples)
			p1 := e1.Persister()
			if err := p1.Close(); err != nil {
				t.Fatal(err)
			}
			eF := NewEngine(foreign, Options{N: 400})
			attachStore(t, eF, p1.store.Dir(), segment.Options{})
			if eF.History().Size() != 0 || eF.Stats().ProbeCacheEntries != 0 || eF.Stats().MDDenseRegions != 0 || eF.DenseIndex1D().Regions(0) != 0 {
				t.Errorf("mismatched open restored knowledge (history %d, probes %d, MD %d, 1D %d), want a cold start",
					eF.History().Size(), eF.Stats().ProbeCacheEntries, eF.Stats().MDDenseRegions, eF.DenseIndex1D().Regions(0))
			}
		})
	}
}

// newMDDenseTestDB builds a 2-ordinal-attribute corpus with a tight cluster
// of clustered tuples inside [50, 50.3]² — a certified dense region for the
// default thresholds at n=1200, k=10 — and the rest spread uniformly.
// Values are unique (general positioning not assumed; tie probes are point
// queries with singleton answers).
func newMDDenseTestDB(t *testing.T) (*hidden.DB, []types.Tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(90))
	schema := testSchema(2)
	n := 1200
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, schema.Len())
		if i < 60 {
			ord[0] = 50 + float64(i)*0.005
			ord[1] = 50 + float64((i*37)%60)*0.005
		} else {
			ord[0] = rng.Float64() * 100
			ord[1] = rng.Float64() * 100
		}
		tuples[i] = types.Tuple{ID: i, Ord: ord, Cat: map[string]string{"cat": "x"}}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys}), tuples
}

// TestReopenMDWarmRestart: a restarted engine answers an MD-RERANK session
// over a previously-crawled dense region with ZERO upstream TopK calls — the
// dense region comes from the persisted MD index and the tie probes from the
// persisted probe LRU.
func TestReopenMDWarmRestart(t *testing.T) {
	db, all := newMDDenseTestDB(t)
	rk := ranking.MustLinear("sum", []int{0, 1}, []float64{1, 1})
	q := query.New().
		WithRange(0, types.ClosedInterval(50, 50.3)).
		WithRange(1, types.ClosedInterval(50, 50.3))

	// Cold run: the query box overflows, qualifies as dense, and is
	// crawled into the MD index.
	e1 := persistedEngine(t, db, Options{N: 1200})
	sess1 := e1.NewSession()
	cur1, err := sess1.NewCursor(q, rk, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopH(cur1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sess1.Queries() == 0 {
		t.Fatal("precondition: cold MD-RERANK run cost 0 queries")
	}
	if e1.Stats().MDDenseRegions == 0 {
		t.Fatal("precondition: cold run crawled no MD dense region")
	}

	// Restart, repeat the session.
	db.ResetCounter()
	e2 := reopenViaStore(t, e1)
	if e2.Stats().MDDenseRegions != e1.Stats().MDDenseRegions {
		t.Fatalf("restored %d MD dense regions, want %d", e2.Stats().MDDenseRegions, e1.Stats().MDDenseRegions)
	}
	sess2 := e2.NewSession()
	cur2, err := sess2.NewCursor(q, rk, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopH(cur2, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, rk, got, want)
	full := oracleTopH(all, q, rk, 1<<30)
	oracle := full
	if len(oracle) > 5 {
		oracle = oracle[:5]
	}
	assertSameRanking(t, rk, got, oracle, full)
	if n := db.QueryCount(); n != 0 {
		t.Errorf("MD-RERANK session over a previously-crawled dense region cost %d upstream queries after restart, want 0", n)
	}
	if n := sess2.Queries(); n != 0 {
		t.Errorf("warm session charged %d queries, want 0", n)
	}
}

// TestReopenRebuildsDenseStructures checks that a store round-trip
// reconstructs the crawled regions losslessly: the restored engine's crawled
// set is bit-identical (boxes, epochs and rows, in order, merges included),
// it answers every lookup the original answers, and the both-open touch of
// two 1D intervals stays two regions.
func TestReopenRebuildsDenseStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 400, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10})
	e := persistedEngine(t, db, Options{N: 400})

	// Populate many small MD boxes (plus absorbing overlaps) and touching 1D
	// intervals, through the same insert path a live engine uses.
	attrs := []int{0, 1}
	boxAt := func(lo0, lo1, w float64) query.Box {
		return query.Box{Dims: []types.Interval{
			{Lo: lo0, Hi: lo0 + w}, {Lo: lo1, Hi: lo1 + w},
		}}
	}
	var boxes []query.Box
	for i := 0; i < 60; i++ {
		b := boxAt(rng.Float64()*95, rng.Float64()*95, 0.5+rng.Float64())
		var inside []types.Tuple
		for _, tt := range tuples {
			if b.Contains([]float64{tt.Ord[0], tt.Ord[1]}) {
				inside = append(inside, tt)
			}
		}
		e.insertCrawled(boxRanges(attrs, b), inside)
		boxes = append(boxes, b)
	}
	e.insertCrawled(query.New().WithRange(0, types.Interval{Lo: 3, Hi: 5, HiOpen: true}), nil)
	e.insertCrawled(query.New().WithRange(0, types.Interval{Lo: 5, Hi: 8, LoOpen: true}), nil)

	e2 := reopenViaStore(t, e)
	assertSameRegions(t, e2, e)
	for _, b := range boxes {
		f1, f2 := e.crawled.lookup(boxRanges(attrs, b)), e2.crawled.lookup(boxRanges(attrs, b))
		if (f1 == nil) != (f2 == nil) {
			t.Fatalf("lookup %v: original found=%v, restored found=%v", b, f1 != nil, f2 != nil)
		}
		if f1 != nil && len(f1.rows) != len(f2.rows) {
			t.Fatalf("lookup %v: original region has %d tuples, restored %d", b, len(f1.rows), len(f2.rows))
		}
	}
	if n := e2.DenseIndex1D().Regions(0); n != 2 {
		t.Fatalf("restored %d 1D regions, want the both-open touch at 5 kept as 2", n)
	}
}
