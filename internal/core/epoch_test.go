// Living-upstreams tests: sentinel drift detection, knowledge epochs, lazy
// re-validation of dense regions and cached probes, epoch-aware warm
// windows, guarded flaky upstreams with exact ledger accounting, and epoch
// persistence across journal replay.

package core

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// narrowWindow finds an interval on attr 0 holding between 2 and k-1 tuples
// — narrow enough that one probe answers it completely (cacheable, dense-
// crawlable in one query).
func narrowWindow(t *testing.T, tuples []types.Tuple, k int) (types.Interval, []types.Tuple) {
	t.Helper()
	for lo := 0.0; lo < 95; lo += 1.5 {
		iv := types.ClosedInterval(lo, lo+1.5)
		var in []types.Tuple
		for _, tt := range tuples {
			if tt.Ord[0] >= iv.Lo && tt.Ord[0] <= iv.Hi {
				in = append(in, tt)
			}
		}
		if len(in) >= 2 && len(in) < k {
			return iv, in
		}
	}
	t.Fatal("no narrow window found in generated corpus")
	return types.Interval{}, nil
}

func TestSentinelDetectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, _ := newTestDB(t, rng, 2, 400, 10, false, nil)
	e := NewEngine(db, Options{N: 400})

	wantQueries := int64(db.Schema().NumOrdinal() + 1)
	before := e.Queries()
	bumped, queries, err := e.SentinelPass()
	if err != nil {
		t.Fatal(err)
	}
	if bumped || queries != wantQueries {
		t.Fatalf("baseline pass: bumped=%v queries=%d, want false/%d", bumped, queries, wantQueries)
	}
	if got := e.Queries() - before; got != wantQueries {
		t.Fatalf("engine ledger charged %d for the pass, want %d", got, wantQueries)
	}
	if e.Epoch() != FirstEpoch {
		t.Fatalf("baseline pass moved the epoch to %d", e.Epoch())
	}

	// Nothing changed: the second pass must not bump.
	if bumped, _, err = e.SentinelPass(); err != nil || bumped {
		t.Fatalf("no-drift pass: bumped=%v err=%v, want false/nil", bumped, err)
	}

	// Mutate a tuple the unconstrained sentinel probe returns — drift a
	// sentinel answer can witness.
	res, err := db.TopK(query.New())
	if err != nil {
		t.Fatal(err)
	}
	victim := res.Tuples[0].ID
	if !db.SetOrd(victim, 0, res.Tuples[0].Ord[0]+37.5) {
		t.Fatalf("SetOrd(%d) refused", victim)
	}
	bumped, _, err = e.SentinelPass()
	if err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Fatal("sentinel pass after mutation did not bump the epoch")
	}
	if e.Epoch() != FirstEpoch+1 {
		t.Fatalf("epoch = %d, want %d", e.Epoch(), FirstEpoch+1)
	}
	if st := e.Stats(); st.SentinelPasses != 3 || st.SentinelBumps != 1 || st.LastSentinelUnix == 0 {
		t.Fatalf("sentinel stats = %d/%d/%d, want 3 passes, 1 bump, nonzero last", st.SentinelPasses, st.SentinelBumps, st.LastSentinelUnix)
	}
	// Drift already absorbed into the stored digests: a further pass with
	// no new mutation must not bump again.
	if bumped, _, err = e.SentinelPass(); err != nil || bumped {
		t.Fatalf("post-drift steady pass: bumped=%v err=%v, want false/nil", bumped, err)
	}
}

// failOnceDB fails its first TopK and then delegates.
type failOnceDB struct {
	hidden.Database
	failed bool
}

func (d *failOnceDB) TopK(q query.Query) (hidden.Result, error) {
	if !d.failed {
		d.failed = true
		return hidden.Result{}, errors.New("injected upstream outage")
	}
	return d.Database.TopK(q)
}

func TestSentinelErrorLeavesDigestsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db, _ := newTestDB(t, rng, 2, 200, 10, false, nil)
	e := NewEngine(&failOnceDB{Database: db}, Options{N: 200})

	if _, _, err := e.SentinelPass(); err == nil {
		t.Fatal("pass over a failing upstream should error")
	}
	// The failed pass recorded nothing, so the next full pass is still the
	// baseline and cannot fake drift.
	bumped, _, err := e.SentinelPass()
	if err != nil {
		t.Fatal(err)
	}
	if bumped || e.Epoch() != FirstEpoch {
		t.Fatalf("recovered pass bumped=%v epoch=%d — a flaky pass faked drift", bumped, e.Epoch())
	}
}

// TestDenseLookup1LazyRevalidation: a crawled region — an interval, or a box
// over two attributes — answers for free at its epoch, costs exactly one
// confirming probe once stale, and is promoted when that probe agrees or
// evicted when the upstream drifted.
func TestDenseLookup1LazyRevalidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		attr1 bool // add a second attribute, spanning its whole domain
	}{{"1D", false}, {"2D", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
			e := NewEngine(db, Options{N: 400})
			iv, inside := narrowWindow(t, tuples, 10)
			rs := query.New().WithRange(0, iv)
			if tc.attr1 {
				rs = rs.WithRange(1, types.ClosedInterval(0, 100))
			}

			s := e.NewSession()
			if err := s.crawlBox(rs); err != nil {
				t.Fatal(err)
			}

			// Fresh region at the current epoch: lookups are free.
			s2 := e.NewSession()
			if f, err := s2.crawledLookup(rs); err != nil || f == nil {
				t.Fatalf("lookup after crawl: found=%v err=%v", f != nil, err)
			}
			if s2.Queries() != 0 {
				t.Fatalf("fresh-region lookup spent %d queries, want 0", s2.Queries())
			}

			// Epoch bump marks the region stale; the first touch spends
			// exactly one confirming probe and, with no actual drift,
			// promotes it. The probe also re-validates the crawl's own
			// cached probe answer, so both surfaces count a promotion.
			e.BumpEpoch()
			if e.Stats().StaleRegions != 1 {
				t.Fatalf("StaleRegions = %d after bump, want 1", e.Stats().StaleRegions)
			}
			s3 := e.NewSession()
			f, err := s3.crawledLookup(rs)
			if err != nil || f == nil {
				t.Fatalf("stale lookup: found=%v err=%v", f != nil, err)
			}
			if s3.Queries() != 1 {
				t.Fatalf("stale re-validation spent %d queries, want exactly 1", s3.Queries())
			}
			if f.epoch != e.Epoch() {
				t.Fatalf("promoted region epoch %d, want %d", f.epoch, e.Epoch())
			}
			if p := e.denseRevalPromoted.Load(); p != 1 {
				t.Fatalf("denseRevalPromoted = %d, want 1", p)
			}
			if st := e.Stats(); st.RevalPromoted != 2 || st.RevalEvicted != 0 {
				t.Fatalf("re-validation = %d promoted, %d evicted; want 2, 0", st.RevalPromoted, st.RevalEvicted)
			}
			if e.Stats().StaleRegions != 0 {
				t.Fatalf("StaleRegions = %d after promotion, want 0", e.Stats().StaleRegions)
			}

			// Promoted: the next touch is free again.
			s4 := e.NewSession()
			if f, _ := s4.crawledLookup(rs); f == nil || s4.Queries() != 0 {
				t.Fatalf("post-promotion lookup: found=%v queries=%d, want true/0", f != nil, s4.Queries())
			}

			// Real drift: move a region tuple's value out of the box,
			// bump, and the confirming probe must evict the region (not
			// promote a lie).
			if !db.SetOrd(inside[0].ID, 0, iv.Hi+40) {
				t.Fatal("SetOrd refused")
			}
			e.BumpEpoch()
			if e.Stats().StaleRegions != 1 {
				t.Fatalf("StaleRegions = %d after the second bump, want 1", e.Stats().StaleRegions)
			}
			s5 := e.NewSession()
			if f, err := s5.crawledLookup(rs); err != nil || f != nil {
				t.Fatalf("lookup after drift: found=%v err=%v, want miss (evicted)", f != nil, err)
			}
			if s5.Queries() != 1 {
				t.Fatalf("drift detection spent %d queries, want exactly 1", s5.Queries())
			}
			if ev := e.denseRevalEvicted.Load(); ev != 1 {
				t.Fatalf("denseRevalEvicted = %d, want 1", ev)
			}
			if st := e.Stats(); st.RevalPromoted != 2 || st.RevalEvicted != 2 {
				t.Fatalf("re-validation = %d promoted, %d evicted; want 2, 2", st.RevalPromoted, st.RevalEvicted)
			}
			if e.Stats().StaleRegions != 0 {
				t.Fatalf("StaleRegions = %d after eviction, want 0", e.Stats().StaleRegions)
			}
		})
	}
}

// TestCrawlContainingStaleRegion: a crawl whose box contains a stale crawled
// region re-read every tuple in it, so it replaces the region instead of
// merging with it. The new fact holds only current tuple versions at the
// current epoch, and the crawler's follow-up lookup spends nothing on it.
// A crawl that only partly overlaps the stale region ("partial") leaves it
// apart: joining them would stamp the stale region's drifted rows into the
// new fact, whose follow-up re-validation would then evict it.
func TestCrawlContainingStaleRegion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		attr1   bool // add a second attribute, spanning its whole domain
		partial bool // the new box overlaps the stale one without containing it
	}{{"1D", false, false}, {"2D", true, false}, {"1D-partial", false, true}, {"2D-partial", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
			e := NewEngine(db, Options{N: 400})
			iv, inside := narrowWindow(t, tuples, 10)
			box := func(iv types.Interval) query.Query {
				rs := query.New().WithRange(0, iv)
				if tc.attr1 {
					rs = rs.WithRange(1, types.ClosedInterval(0, 100))
				}
				return rs
			}
			slices.SortFunc(inside, func(a, b types.Tuple) int { return cmp.Compare(a.Ord[0], b.Ord[0]) })
			// Move the lowest tuple of the stale region to the middle of it,
			// or, when the new box starts past it, within [iv.Lo, lo): its
			// old version shares the tuple's ID but not its value, so only
			// a merge that trusts the stale region would keep both.
			moved := inside[0].Clone()
			lo, newVal := iv.Lo-3, (iv.Lo+iv.Hi)/2
			if tc.partial {
				lo = (moved.Ord[0] + iv.Hi) / 2
				newVal = (iv.Lo + moved.Ord[0]) / 2
				if moved.Ord[0] == iv.Lo {
					newVal = (moved.Ord[0] + lo) / 2
				}
			}
			want := types.ClosedInterval(lo, iv.Hi+3)
			inner, outer := box(iv), box(want)
			if err := e.NewSession().crawlBox(inner); err != nil {
				t.Fatal(err)
			}
			if newVal == moved.Ord[0] {
				newVal += 0.25
			}
			moved.Ord[0] = newVal
			if !db.SetOrd(moved.ID, 0, moved.Ord[0]) {
				t.Fatal("SetOrd refused")
			}
			e.BumpEpoch()

			s := e.NewSession()
			f, err := s.crawledFact(outer)
			if err != nil || f == nil {
				t.Fatalf("crawledFact over the new box: found=%v err=%v", f != nil, err)
			}
			if f.epoch != e.Epoch() {
				t.Fatalf("fact epoch %d, want the current %d", f.epoch, e.Epoch())
			}
			wantRegions := 1 // the inner one replaced
			if tc.partial {
				wantRegions = 2 // the stale one kept apart
			}
			if n := len(crawledExport(e.crawled)); n != wantRegions {
				t.Fatalf("%d crawled regions, want %d", n, wantRegions)
			}
			// The same crawl on an engine that never saw the inner region.
			twin := NewEngine(db, Options{N: 400}).NewSession()
			if err := twin.crawlBox(outer); err != nil {
				t.Fatal(err)
			}
			if s.Queries() != twin.Queries() {
				t.Fatalf("crawledFact spent %d queries, a fresh crawl of the box %d", s.Queries(), twin.Queries())
			}

			var current []types.Tuple
			for _, tp := range tuples {
				if tp.ID == moved.ID {
					tp = moved
				}
				if want.Contains(tp.Ord[0]) {
					current = append(current, tp)
				}
			}
			wantRows, got := e.hist.AddRows(current), slices.Clone(f.rows)
			slices.Sort(wantRows)
			slices.Sort(got)
			if !slices.Equal(got, wantRows) {
				t.Fatalf("fact rows %v, want the current versions' %v", got, wantRows)
			}
		})
	}
}

func TestProbeCacheLazyRevalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
	e := NewEngine(db, Options{N: 400})
	iv, inside := narrowWindow(t, tuples, 10)
	q := query.New().WithRange(0, iv)

	cost := func() int64 {
		s := e.NewSession()
		if _, _, err := s.probe(q); err != nil {
			t.Fatal(err)
		}
		return s.Queries()
	}
	if got := cost(); got != 1 {
		t.Fatalf("cold probe cost %d, want 1", got)
	}
	if got := cost(); got != 0 {
		t.Fatalf("cached probe cost %d, want 0", got)
	}

	// Stale cache entry: one confirming probe, then free again.
	e.BumpEpoch()
	if got := cost(); got != 1 {
		t.Fatalf("stale probe re-validation cost %d, want exactly 1", got)
	}
	if got := cost(); got != 0 {
		t.Fatalf("promoted probe cost %d, want 0", got)
	}

	// Real drift inside the cached answer: the confirming probe replaces the
	// entry with the fresh page, and the caller sees the new value.
	victim := inside[1]
	newVal := (iv.Lo + iv.Hi) / 2
	if newVal == victim.Ord[0] {
		newVal += 0.25
	}
	if !db.SetOrd(victim.ID, 0, newVal) {
		t.Fatal("SetOrd refused")
	}
	e.BumpEpoch()
	s := e.NewSession()
	res, _, err := s.probe(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries() != 1 {
		t.Fatalf("drifted probe cost %d, want exactly 1", s.Queries())
	}
	found := false
	for _, tt := range res.Tuples {
		if tt.ID == victim.ID {
			found = true
			if tt.Ord[0] != newVal {
				t.Fatalf("revalidated answer still carries stale value %g, want %g", tt.Ord[0], newVal)
			}
		}
	}
	if !found {
		t.Fatalf("tuple %d missing from revalidated answer", victim.ID)
	}
	if got := cost(); got != 0 {
		t.Fatalf("replaced entry should serve free, cost %d", got)
	}
}

// driftQueries is the fixed drift-matrix workload: user queries x rankers.
func driftQueries(schema *types.Schema) []query.Query {
	return []query.Query{
		query.New(),
		query.New().WithRange(0, types.ClosedInterval(10, 60)),
		query.New().WithRange(1, types.ClosedInterval(25, 80)).WithCat("cat", "x"),
		query.New().WithCat("cat", "y"),
	}
}

func driftRankers() []ranking.Ranker {
	return []ranking.Ranker{
		ranking.NewSingle("asc0", 0, ranking.Asc),
		ranking.NewSingle("desc1", 1, ranking.Desc),
		ranking.MustLinear("mix", []int{0, 1}, []float64{1, -0.5}),
	}
}

// runDriftMatrix runs every (query, ranker) cell to depth h and checks each
// answer against the oracle over corpus.
func runDriftMatrix(t *testing.T, e *Engine, corpus []types.Tuple, h int) {
	t.Helper()
	for qi, q := range driftQueries(e.db.Schema()) {
		for ri, r := range driftRankers() {
			s := e.NewSession()
			cur, err := s.NewCursor(q, r, Rerank)
			if err != nil {
				t.Fatal(err)
			}
			var got []types.Tuple
			for len(got) < h {
				tp, ok, err := cur.Next()
				if err != nil {
					t.Fatalf("cell q%d/r%d: %v", qi, ri, err)
				}
				if !ok {
					break
				}
				got = append(got, tp)
			}
			full := oracleTopH(corpus, q, r, len(corpus))
			want := full
			if len(want) > h {
				want = want[:h]
			}
			assertSameRanking(t, r, got, want, full)
		}
	}
}

// deepCopyTuples clones tuples including Ord arrays, so the oracle copy can
// track mutations without aliasing the database's storage.
func deepCopyTuples(in []types.Tuple) []types.Tuple {
	out := make([]types.Tuple, len(in))
	for i, tt := range in {
		out[i] = tt
		out[i].Ord = append([]float64(nil), tt.Ord...)
	}
	return out
}

// mutateCorpus drifts the corpus: the top tuple of the unconstrained system
// answer (guaranteed sentinel-visible) plus several random tuples, applied
// to both the live database and the oracle copy.
func mutateCorpus(t *testing.T, db *hidden.DB, oracle []types.Tuple, rng *rand.Rand) {
	t.Helper()
	res, err := db.TopK(query.New())
	if err != nil {
		t.Fatal(err)
	}
	victims := []int{res.Tuples[0].ID}
	for i := 0; i < 8; i++ {
		victims = append(victims, rng.Intn(len(oracle)))
	}
	for _, id := range victims {
		attr := rng.Intn(2)
		v := rng.Float64() * 100
		if !db.SetOrd(id, attr, v) {
			t.Fatalf("SetOrd(%d) refused", id)
		}
		oracle[id].Ord[attr] = v
	}
}

// TestRerankCorrectAfterDrift is the drift matrix: warm the engine over the
// original corpus, mutate it in place, let one sentinel pass detect the
// drift, and require every re-run cell to match the oracle over the MUTATED
// corpus — stale knowledge may save probes but never wrong answers.
func TestRerankCorrectAfterDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db, tuples := newTestDB(t, rng, 2, 300, 10, false, systemRankers(2)[0])
	e := NewEngine(db, Options{N: 300})
	oracle := deepCopyTuples(tuples)

	runDriftMatrix(t, e, oracle, 5) // warm caches pre-drift
	if _, _, err := e.SentinelPass(); err != nil {
		t.Fatal(err) // baseline
	}

	mutateCorpus(t, db, oracle, rng)
	bumped, _, err := e.SentinelPass()
	if err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Fatal("sentinel missed the mutation within one pass")
	}

	runDriftMatrix(t, e, oracle, 5)
	if st := e.Stats(); st.RevalPromoted+st.RevalEvicted == 0 {
		t.Fatal("post-drift matrix touched no stale knowledge — test not exercising re-validation")
	}
}

// TestRerankCorrectAfterDriftFlaky is the same matrix over a guarded flaky
// upstream (20% injected failures): zero wrong answers, every injected
// failure surfaces as one retry, and the engine ledger equals both the
// guard's logical probes and the queries the upstream itself answered — a
// failed try was not answered, so it is not charged.
func TestRerankCorrectAfterDriftFlaky(t *testing.T) {
	t.Run("retries", func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		db, tuples := newTestDB(t, rng, 2, 300, 10, false, systemRankers(2)[0])
		flaky := &hidden.FlakyDB{DB: db, FailEvery: 5}
		g := hidden.NewGuard(flaky, hidden.GuardOptions{
			BackoffBase: time.Nanosecond, // keep retries instant in tests
		})
		e := NewEngine(g, Options{N: 300})
		if e.DB() != g {
			t.Fatal("engine does not probe through the guard")
		}
		oracle := deepCopyTuples(tuples)

		runDriftMatrix(t, e, oracle, 5)
		if _, _, err := e.SentinelPass(); err != nil {
			t.Fatal(err)
		}
		mutateCorpus(t, db, oracle, rng)
		if bumped, _, err := e.SentinelPass(); err != nil || !bumped {
			t.Fatalf("sentinel over flaky upstream: bumped=%v err=%v", bumped, err)
		}
		runDriftMatrix(t, e, oracle, 5)

		h := g.Health()
		if h.Retries == 0 || h.Retries != flaky.Injected() {
			t.Fatalf("retries %d, injected failures %d — want equal and nonzero", h.Retries, flaky.Injected())
		}
		if e.Queries() != h.Probes {
			t.Fatalf("engine ledger %d != guard logical probes %d — a retry double-charged", e.Queries(), h.Probes)
		}
		// mutateCorpus sends one TopK straight to db, past the engine.
		if answered := db.QueryCount() - 1; e.Queries() != answered {
			t.Fatalf("engine ledger %d != %d queries the upstream answered", e.Queries(), answered)
		}
		if h.Failures != 0 {
			t.Fatalf("%d logical probes failed outright at 20%% flake with retries", h.Failures)
		}
	})
}

// TestEpochPersistsAcrossJournalReplay: epoch bumps and per-region epochs
// survive a checkpointed restart — a region crawled before the bump comes
// back STALE, not silently fresh.
func TestEpochPersistsAcrossJournalReplay(t *testing.T) {
	db, tuples := persistTestWorld(t, 81)
	e1 := persistedEngine(t, db, Options{N: 400})
	iv, _ := narrowWindow(t, tuples, 10)
	s := e1.NewSession()
	if err := s.crawlBox(query.New().WithRange(0, iv)); err != nil {
		t.Fatal(err)
	}
	e1.BumpEpoch()
	e1.BumpEpoch()
	// A post-bump probe lands at the current epoch.
	fresh := query.New().WithRange(1, types.ClosedInterval(40, 41))
	if _, _, err := e1.NewSession().probe(fresh); err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantStale := e1.Epoch(), e1.Stats().StaleRegions
	if wantEpoch != FirstEpoch+2 || wantStale == 0 {
		t.Fatalf("setup: epoch=%d stale=%d", wantEpoch, wantStale)
	}

	e2 := reopenViaStore(t, e1)
	if e2.Epoch() != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", e2.Epoch(), wantEpoch)
	}
	if got := e2.Stats().StaleRegions; got != wantStale {
		t.Fatalf("replayed stale regions %d, want %d", got, wantStale)
	}
	r1, r2 := crawledExport(e1.crawled), crawledExport(e2.crawled)
	if len(r1) != len(r2) || r2[0].epoch != r1[0].epoch {
		t.Fatalf("region epochs not preserved: %v vs %v", r2, r1)
	}
	// The replayed stale region still demands its confirming probe.
	s2 := e2.NewSession()
	if f, err := s2.crawledLookup(query.New().WithRange(0, iv)); err != nil || f == nil {
		t.Fatalf("replayed region lookup: found=%v err=%v", f != nil, err)
	}
	if s2.Queries() != 1 {
		t.Fatalf("replayed stale region cost %d queries to touch, want 1", s2.Queries())
	}
}
