// Tests for the probe layer's fact index: exactness and ledgers of
// containment-served answers, stale-epoch behaviour, replay into the
// containment index, LRU eviction, running counters, concurrency, and the
// index's verdict against brute-force containment (fuzzed).

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/segment"
	"repro/internal/types"
)

// factInterval draws an interval whose endpoints often coincide with corpus
// values, with independently open or closed (sometimes unbounded) sides, or
// a single point.
func factInterval(rng *rand.Rand, tuples []types.Tuple, attr int) types.Interval {
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Round(rng.Float64() * 100)
		}
		return tuples[rng.Intn(len(tuples))].Ord[attr]
	}
	switch rng.Intn(8) {
	case 0:
		v := val()
		return types.ClosedInterval(v, v)
	case 1:
		return types.Interval{Lo: val(), Hi: math.Inf(1), LoOpen: rng.Intn(2) == 0, HiOpen: true}
	case 2:
		return types.Interval{Lo: math.Inf(-1), Hi: val(), LoOpen: true, HiOpen: rng.Intn(2) == 0}
	}
	lo, hi := val(), val()
	if lo > hi {
		lo, hi = hi, lo
	}
	if w := 1 + rng.Float64()*15; hi-lo > w { // keep most probes narrow enough to be complete
		hi = lo + w
	}
	return types.Interval{Lo: lo, Hi: hi, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
}

// factQuery draws a probe: ranges on a random subset of the ordinal
// attributes plus, sometimes, the categorical predicate.
func factQuery(rng *rand.Rand, tuples []types.Tuple, m int) query.Query {
	q := query.New()
	for a := 0; a < m; a++ {
		if rng.Intn(2) == 0 {
			q = q.WithRange(a, factInterval(rng, tuples, a))
		}
	}
	if rng.Intn(3) == 0 {
		q = q.WithCat("cat", []string{"x", "y", "z"}[rng.Intn(3)])
	}
	return q
}

// shrink returns a probe contained in q: every range narrowed (or a range
// added on an unconstrained attribute), sometimes a categorical predicate
// added.
func shrink(rng *rand.Rand, q query.Query, tuples []types.Tuple, m int) query.Query {
	in := q.Clone()
	for a := 0; a < m; a++ {
		if _, ok := in.Range(a); ok || rng.Intn(2) == 0 {
			in.AddRange(a, factInterval(rng, tuples, a))
		}
	}
	if _, ok := in.Cat("cat"); !ok && rng.Intn(2) == 0 {
		in = in.WithCat("cat", []string{"x", "y", "z"}[rng.Intn(3)])
	}
	return in
}

// kExact returns a closed range on attr 1 (continuous in every test corpus)
// holding exactly k tuples — a "valid" page: full, yet complete.
func kExact(rng *rand.Rand, tuples []types.Tuple, k int) query.Query {
	vals := make([]float64, len(tuples))
	for i, tt := range tuples {
		vals[i] = tt.Ord[1]
	}
	sort.Float64s(vals)
	i := rng.Intn(len(vals) - k)
	return query.New().WithRange(1, types.ClosedInterval(vals[i], vals[i+k-1]))
}

// TestContainedAnswersAreExactAndFree is the property the whole design
// rests on: over seeded random corpora (three system rankings) and probe
// sequences — ranges with open and closed bounds, unbounded sides, point
// probes, categorical predicates, k-exact valid pages — every answer the
// engine gives is byte-identical to what an in-process hidden.DB returns for
// the same query, an answer served by containment charges nothing to the
// session or the engine ledger, and the ledgers sum to the upstream's own
// count.
func TestContainedAnswersAreExactAndFree(t *testing.T) {
	const m = 2
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := systemRankers(m)[seed%3]
		db, tuples := newTestDB(t, rng, m, 500, 10, seed%2 == 0, sys)
		ref := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 10, Ranker: sys})
		e := NewEngine(db, Options{N: 500})

		var ledgers, contained int64
		probe := func(q query.Query) {
			t.Helper()
			s := e.NewSession()
			before, engineBefore := e.Stats().ProbeContainedHits, e.Queries()
			got, _, err := s.probe(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.TopK(q)
			if !resultsEqual(got, want) {
				t.Fatalf("seed %d: %s answered\n %v (overflow %v), the upstream says\n %v (overflow %v)",
					seed, q, got.Tuples, got.Overflow, want.Tuples, want.Overflow)
			}
			if e.Stats().ProbeContainedHits > before {
				contained++
				if s.Queries() != 0 || e.Queries() != engineBefore {
					t.Fatalf("seed %d: %s served by containment charged session %d, engine %d", seed, q, s.Queries(), e.Queries()-engineBefore)
				}
			}
			ledgers += s.Queries()
		}
		for i := 0; i < 150; i++ {
			q := factQuery(rng, tuples, m)
			if i%25 == 0 {
				q = kExact(rng, tuples, ref.K())
				if res, _ := ref.TopK(q); res.Overflow || len(res.Tuples) != ref.K() {
					t.Fatalf("seed %d: %s is not a k-exact page (%d tuples, overflow %v)", seed, q, len(res.Tuples), res.Overflow)
				}
			}
			probe(q)
			for j := rng.Intn(4); j > 0; j-- {
				probe(shrink(rng, q, tuples, m))
			}
		}
		if contained == 0 {
			t.Fatalf("seed %d: no probe was served by containment; the test exercised nothing", seed)
		}
		if ledgers != db.QueryCount() || e.Queries() != db.QueryCount() {
			t.Fatalf("seed %d: session ledgers %d, engine ledger %d, upstream saw %d", seed, ledgers, e.Queries(), db.QueryCount())
		}
	}
}

// costOf issues q in a fresh session and returns what it was charged.
func costOf(t *testing.T, e *Engine, q query.Query) int64 {
	t.Helper()
	s := e.NewSession()
	if _, _, err := s.probe(q); err != nil {
		t.Fatal(err)
	}
	return s.Queries()
}

// TestStaleFactsAndContainment: a fact learned under an earlier epoch never
// answers by containment, and its own probe costs exactly one confirming
// query whatever the outcome — promoted (unchanged), replaced by a fact of
// the same kind (a tuple changed) or of the other kind (the box started or
// stopped overflowing). A complete fact contains again once promoted or
// replaced; a partial one answers its own probe and never a contained one.
func TestStaleFactsAndContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
	e := NewEngine(db, Options{N: 400})
	iv, inside := narrowWindow(t, tuples, 10)
	outer := query.New().WithRange(0, iv)
	inner := func() query.Query { // a fresh contained probe each time: an exact hit must not mask containment
		mid := iv.Lo + (iv.Hi-iv.Lo)*(0.3+0.4*rng.Float64())
		return query.New().WithRange(0, types.Interval{Lo: iv.Lo, Hi: mid})
	}
	expect := func(step string, q query.Query, want int64) {
		t.Helper()
		if got := costOf(t, e, q); got != want {
			t.Fatalf("%s: cost %d, want %d", step, got, want)
		}
	}
	expect("cold outer", outer, 1)
	expect("contained in the fresh fact", inner(), 0)

	// Promote: nothing changed upstream.
	e.BumpEpoch()
	staleInner := inner()
	expect("contained in a stale fact", staleInner, 1)
	expect("stale outer, unchanged upstream", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 1 || ev != 0 {
		t.Fatalf("after an unchanged confirmation: promoted %d evicted %d, want 1/0", p, ev)
	}
	expect("contained in the promoted fact", inner(), 0)

	// Replace: a tuple inside the box changed in place.
	victim := inside[1]
	newVal := victim.Ord[1] + 1
	if !db.SetOrd(victim.ID, 1, newVal) {
		t.Fatal("SetOrd refused")
	}
	e.BumpEpoch()
	expect("stale outer, tuple changed", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 1 || ev != 1 {
		t.Fatalf("after a changed confirmation: promoted %d evicted %d, want 1/1", p, ev)
	}
	s := e.NewSession()
	res, _, err := s.probe(outer.WithCat("cat", victim.Cat["cat"]))
	if err != nil || s.Queries() != 0 {
		t.Fatalf("contained in the replaced fact: cost %d err %v, want 0", s.Queries(), err)
	}
	seen := false
	for _, tt := range res.Tuples {
		if tt.ID == victim.ID {
			seen = tt.Ord[1] == newVal
		}
	}
	if !seen {
		t.Fatalf("contained answer %v does not carry tuple %d with its fresh value %g", res.Tuples, victim.ID, newVal)
	}
	if got, _ := e.History().Get(victim.ID); got.Ord[1] != newVal {
		t.Fatalf("history resolves tuple %d to the old row version (%g)", victim.ID, got.Ord[1])
	}

	// Complete → partial: the box holds more than k tuples now.
	var moved []types.Tuple
	for _, tt := range tuples {
		if len(moved) <= 10-len(inside) && !iv.Contains(tt.Ord[0]) {
			db.SetOrd(tt.ID, 0, iv.Lo+(iv.Hi-iv.Lo)/2)
			moved = append(moved, tt)
		}
	}
	e.BumpEpoch()
	before := e.Stats().ProbeCacheEntries
	expect("stale outer, box overflows now", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 1 || ev != 2 {
		t.Fatalf("after an overflowing confirmation: promoted %d evicted %d, want 1/2", p, ev)
	}
	if e.Stats().ProbeCacheEntries != before {
		t.Fatalf("%d facts held, %d before: the overflow page must replace the complete fact under its key", e.Stats().ProbeCacheEntries, before)
	}
	s = e.NewSession()
	res, _, err = s.probe(outer)
	want, _ := db.TopK(outer)
	if err != nil || s.Queries() != 0 || !res.Overflow || !resultsEqual(res, want) {
		t.Fatalf("outer again: cost %d err %v overflow %v, want the upstream's overflow page for 0", s.Queries(), err, res.Overflow)
	}
	if e.Stats().ProbePartialHits != 1 {
		t.Fatalf("partial hits %d, want 1", e.Stats().ProbePartialHits)
	}
	expect("contained in the partial fact", inner(), 1)

	// Partial, promoted: nothing changed, the page still overflows.
	e.BumpEpoch()
	expect("stale partial outer, unchanged upstream", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 2 || ev != 2 {
		t.Fatalf("after an unchanged overflowing confirmation: promoted %d evicted %d, want 2/2", p, ev)
	}
	expect("promoted partial outer", outer, 0)

	// Partial → partial: the page's first tuple changed in place.
	if !db.SetOrd(want.Tuples[0].ID, 1, want.Tuples[0].Ord[1]+1) {
		t.Fatal("SetOrd refused")
	}
	e.BumpEpoch()
	expect("stale partial outer, tuple changed", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 2 || ev != 3 {
		t.Fatalf("after a changed overflowing confirmation: promoted %d evicted %d, want 2/3", p, ev)
	}
	expect("replaced partial outer", outer, 0)

	// Partial → complete: the box fits a page again.
	for _, tt := range moved {
		db.SetOrd(tt.ID, 0, tt.Ord[0])
	}
	e.BumpEpoch()
	expect("stale partial outer, box complete again", outer, 1)
	if p, ev := e.revalPromoted.Load(), e.revalEvicted.Load(); p != 2 || ev != 4 {
		t.Fatalf("after a completing confirmation: promoted %d evicted %d, want 2/4", p, ev)
	}
	expect("contained in the complete fact that replaced the partial one", inner(), 0)
}

// TestReplayedFactsAnswerContainedProbes: facts committed to the store land
// in the containment index on replay — a probe a committed fact contains
// costs nothing after a restart, and answers what the upstream would.
func TestReplayedFactsAnswerContainedProbes(t *testing.T) {
	db, tuples := persistTestWorld(t, 75)
	e1 := persistedEngine(t, db, Options{N: 400})
	outers := persistProbes()
	s1 := e1.NewSession()
	for _, q := range outers {
		if res, _, err := s1.probe(q); err != nil || res.Overflow {
			t.Fatalf("precondition: %s: err %v overflow %v", q, err, res.Overflow)
		}
	}
	// The fact stays in force across an epoch bump it was re-confirmed under.
	e1.BumpEpoch()
	if _, _, err := s1.probe(outers[0]); err != nil {
		t.Fatal(err)
	}

	e2 := reopenViaStore(t, e1)
	db.ResetCounter()
	inner := outers[0].WithRange(0, types.ClosedInterval(10.5, 11.5))
	s2 := e2.NewSession()
	got, _, err := s2.probe(inner)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: db.K()}).TopK(inner)
	if !resultsEqual(got, want) {
		t.Fatalf("contained probe after replay answered %v, the upstream says %v", got.Tuples, want.Tuples)
	}
	if s2.Queries() != 0 || db.QueryCount() != 0 || e2.Stats().ProbeContainedHits != 1 {
		t.Fatalf("contained probe after replay: charged %d, upstream saw %d, contained hits %d; want 0/0/1",
			s2.Queries(), db.QueryCount(), e2.Stats().ProbeContainedHits)
	}
	// outers[1] was not re-confirmed: stale after replay, so it contains nothing.
	if got := costOf(t, e2, outers[1].WithRange(1, types.ClosedInterval(40.2, 40.8))); got != 1 {
		t.Fatalf("probe inside a replayed STALE fact cost %d, want 1", got)
	}
}

// TestReopenOldFormatStartsCold: a store whose journal was written under the
// previous format generation (whose probe records were all complete answers:
// it knew no overflow flag) is quarantined whole and the engine boots cold.
func TestReopenOldFormatStartsCold(t *testing.T) {
	db, tuples := persistTestWorld(t, 68)
	e1 := persistedEngine(t, db, Options{N: 400})
	runPersistWorkload(t, e1, tuples)
	p1 := e1.Persister()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-stamp the journal header with the previous generation.
	path := filepath.Join(p1.store.Dir(), "journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := bytes.Cut(data, []byte("\n"))
	var rec map[string]any
	if err := json.Unmarshal(header[9:], &rec); err != nil {
		t.Fatal(err)
	}
	rec["format"] = segment.Format - 1
	body, _ := json.Marshal(rec)
	line := fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)), body)
	if err := os.WriteFile(path, append(line, rest...), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(db, Options{N: 400})
	attachStore(t, e2, p1.store.Dir(), segment.Options{})
	if e2.History().Size() != 0 || e2.Stats().ProbeCacheEntries != 0 || e2.DenseIndex1D().Regions(0) != 0 {
		t.Fatalf("old-format store restored knowledge (history %d, facts %d), want a cold start", e2.History().Size(), e2.Stats().ProbeCacheEntries)
	}
	if q, _ := filepath.Glob(filepath.Join(p1.store.Dir(), "quarantine", "*")); len(q) == 0 {
		t.Fatal("old-format journal not quarantined")
	}
}

// TestPartialFactsReplayOverflowPages: whoever re-asks a probe that
// overflowed — a crawl splitting its region, the MD search partitioning a
// box — gets the same page back, still flagged as overflowing, for nothing.
// History reads are off, so a cursor plans from scratch and a repeated
// request asks exactly the probes of the first.
func TestPartialFactsReplayOverflowPages(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	db, tuples := newTestDB(t, rng, 2, 500, 10, false, systemRankers(2)[1])
	e := NewEngine(db, Options{N: 500, DisableHistory: true})
	wide := query.New().WithRange(0, types.ClosedInterval(20, 40)).WithCat("cat", "x")
	r := ranking.MustLinear("mix", []int{0, 1}, []float64{1, 0.5})
	for name, run := range map[string]func(s *Session) ([]types.Tuple, error){
		"crawl": func(s *Session) ([]types.Tuple, error) { return s.CrawlAll(wide) },
		"md": func(s *Session) ([]types.Tuple, error) {
			cur, err := s.NewCursor(wide, r, Rerank)
			if err != nil {
				return nil, err
			}
			return TopH(cur, 8)
		},
		"1d": func(s *Session) ([]types.Tuple, error) {
			return TopH(s.NewOneDCursor(wide, 1, ranking.Desc, Rerank), 8)
		},
	} {
		s1 := e.NewSession()
		first, err := run(s1)
		if err != nil || s1.Queries() == 0 {
			t.Fatalf("%s: cold run cost %d, err %v", name, s1.Queries(), err)
		}
		replays := e.Stats().ProbePartialHits
		s2, upstream := e.NewSession(), db.QueryCount()
		again, err := run(s2)
		if err != nil || s2.Queries() != 0 || db.QueryCount() != upstream {
			t.Fatalf("%s: repeat charged %d, upstream saw %d more, err %v; want 0", name, s2.Queries(), db.QueryCount()-upstream, err)
		}
		if !slices.EqualFunc(first, again, types.Tuple.Equal) {
			t.Fatalf("%s: repeat answered %v, first %v", name, again, first)
		}
		if e.Stats().ProbePartialHits == replays {
			t.Fatalf("%s: the repeat replayed no overflow page; the test exercised nothing", name)
		}
	}
	want := 0
	for _, tt := range tuples {
		if wide.Matches(tt) {
			want++
		}
	}
	if got, _ := e.NewSession().CrawlAll(wide); len(got) != want {
		t.Fatalf("crawl over replayed pages found %d tuples, the corpus holds %d", len(got), want)
	}
}

// TestReopenReplaysPartialFacts: overflow pages ride the journal. After a
// restart the identical probe replays — same tuples, still overflowing — for
// nothing, a stale page costs its one confirming probe, and a probe inside a
// replayed page's box goes upstream: it was never in the containment index.
func TestReopenReplaysPartialFacts(t *testing.T) {
	db, _ := persistTestWorld(t, 76)
	e1 := persistedEngine(t, db, Options{N: 400})
	wide := query.New().WithRange(0, types.ClosedInterval(10, 60))
	stale := query.New().WithRange(1, types.ClosedInterval(20, 70)).WithCat("cat", "y")
	s1 := e1.NewSession()
	var pages []hidden.Result
	for _, q := range []query.Query{wide, stale} {
		res, _, err := s1.probe(q)
		if err != nil || !res.Overflow {
			t.Fatalf("precondition: %s: err %v overflow %v", q, err, res.Overflow)
		}
		pages = append(pages, res)
	}
	e1.BumpEpoch()
	if _, _, err := s1.probe(wide); err != nil { // re-confirmed under the new epoch; stale is not
		t.Fatal(err)
	}

	e2 := reopenViaStore(t, e1)
	db.ResetCounter()
	for i, step := range []struct {
		name string
		q    query.Query
		cost int64
	}{
		{"replayed page", wide, 0},
		{"replayed stale page", stale, 1},
		{"stale page, promoted", stale, 0},
		{"probe inside the replayed page's box", wide.WithRange(0, types.ClosedInterval(10, 30)), 1},
	} {
		s := e2.NewSession()
		got, _, err := s.probe(step.q)
		if err != nil || s.Queries() != step.cost {
			t.Fatalf("%s: cost %d err %v, want %d", step.name, s.Queries(), err, step.cost)
		}
		if i < len(pages) && !resultsEqual(got, pages[i]) {
			t.Fatalf("%s: answered %v (overflow %v), the upstream said %v", step.name, got.Tuples, got.Overflow, pages[i].Tuples)
		}
	}
	if p, ev := e2.revalPromoted.Load(), e2.revalEvicted.Load(); p != 1 || ev != 0 || db.QueryCount() != 2 {
		t.Fatalf("promoted %d evicted %d, upstream saw %d; want 1/0/2", p, ev, db.QueryCount())
	}
}

// TestProbeCacheLRU pins the fact index's bounded-LRU behaviour through the
// engine: complete answers and overflow pages are facts under one capacity,
// a hit — exact, partial or contained — refreshes its fact, the least
// recently used fact is evicted first, and once a containing fact is gone
// the probe it contained costs a query again.
func TestProbeCacheLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
	e := NewEngine(db, Options{N: 400, ProbeCacheSize: 2})
	iv, _ := narrowWindow(t, tuples, 10)
	a := query.New().WithRange(0, iv)
	inA := query.New().WithRange(0, iv).WithCat("cat", "x")
	b := query.New().WithRange(1, types.ClosedInterval(40, 41))
	c := query.New().WithRange(1, types.ClosedInterval(70, 71))
	for _, step := range []struct {
		name  string
		q     query.Query
		cost  int64
		facts int
	}{
		{"a cold", a, 1, 1},
		{"b cold", b, 1, 2},
		{"probe inside a (refreshes a)", inA, 0, 2},
		{"c cold, evicts b", c, 1, 2},
		{"a survived", a, 0, 2},
		{"b was evicted, evicts c", b, 1, 2},
		{"overflow page is a fact too, evicts a", query.New(), 1, 2},
		{"overflow page replays (refreshes it)", query.New(), 0, 2},
		{"probe inside a costs again, evicts b", inA, 1, 2},
		{"overflow page survived", query.New(), 0, 2},
		{"b was evicted", b, 1, 2},
	} {
		if got := costOf(t, e, step.q); got != step.cost {
			t.Fatalf("%s: cost %d, want %d", step.name, got, step.cost)
		}
		if e.Stats().ProbeCacheEntries != step.facts {
			t.Fatalf("%s: %d facts held, want %d", step.name, e.Stats().ProbeCacheEntries, step.facts)
		}
	}
}

// TestFactCountersTrackAdmitsAndEvictions: the entry and byte gauges every
// stats scrape reads are running counters — after any mix of admissions,
// replacements (by a fact of either kind) and evictions they equal a walk
// over the index, which the scrape therefore never has to take; and the
// containment buckets hold exactly the complete facts.
func TestFactCountersTrackAdmitsAndEvictions(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x := newFactIndex(64)
	for i := 0; i < 500; i++ {
		q := query.New()
		lo := float64(rng.Intn(40))
		q = q.WithRange(rng.Intn(3), types.ClosedInterval(lo, lo+float64(rng.Intn(5))))
		if rng.Intn(2) == 0 {
			q = q.WithCat("cat", []string{"x", "y", "z"}[rng.Intn(3)])
		}
		rows := make([]uint32, rng.Intn(10))
		for j := range rows {
			rows[j] = uint32(rng.Intn(9))
		}
		x.learn(q.String(), q, rows, rng.Intn(6) == 0, 1)
		if i%50 != 49 {
			continue
		}
		var entries, bytes int64
		complete := 0
		for f := x.head; f != nil; f = f.older {
			entries++
			bytes += f.size()
			if !f.partial {
				complete++
			}
		}
		indexed := 0
		for _, g := range x.groups {
			for _, b := range g.buckets {
				indexed += len(b.facts)
			}
		}
		if x.entries.Load() != entries || x.bytes.Load() != bytes || len(x.byKey) != int(entries) || indexed != complete || complete == int(entries) || entries > 64 {
			t.Fatalf("after %d learns: counters say %d facts / %d B; the index holds %d (by key %d; %d complete, %d in buckets) / %d B",
				i+1, x.entries.Load(), x.bytes.Load(), entries, len(x.byKey), complete, indexed, bytes)
		}
	}
	if x.entries.Load() != 64 {
		t.Fatalf("index holds %d facts after 500 learns into capacity 64", x.entries.Load())
	}
}

// TestFollowersSeeLeadersTuplesInHistory: the leader adds its page to the
// history inside the flight, so a coalesced follower — released only when
// the flight completes — finds every answered tuple already there, with or
// without a fact index.
func TestFollowersSeeLeadersTuplesInHistory(t *testing.T) {
	for name, opts := range map[string]Options{
		"coalesced":     {N: 400},
		"cache off":     {N: 400, ProbeCacheSize: -1},
		"history reads": {N: 400, DisableHistory: true},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			inner, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
			db := &gateDB{inner: inner, gate: make(chan struct{})}
			e := NewEngine(db, opts)
			iv, _ := narrowWindow(t, tuples, 10)
			q := query.New().WithRange(0, iv)
			const callers = 4
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, _, err := e.NewSession().probe(q)
					if err != nil {
						t.Error(err)
						return
					}
					for _, tt := range res.Tuples {
						if !e.History().Has(tt.ID) {
							t.Errorf("caller resumed before tuple %d of its answer reached the history", tt.ID)
						}
					}
				}()
			}
			// Release the leader only once everyone else is parked on it.
			awaitFollowers(e, q, callers-1)
			close(db.gate)
			wg.Wait()
			if inner.QueryCount() != 1 {
				t.Fatalf("%d callers cost %d upstream queries, want 1", callers, inner.QueryCount())
			}
		})
	}
}

// TestFactIndexConcurrentSessions hammers one engine from 8 sessions mixing
// probes that hit exactly, probes a fact contains and probes nothing knows,
// through a small index so admissions and evictions interleave with
// lookups. Every answer must equal the upstream's, and the ledgers must sum
// to what the upstream saw. Run under -race with GOMAXPROCS=2 in CI.
func TestFactIndexConcurrentSessions(t *testing.T) {
	const m = 2
	rng := rand.New(rand.NewSource(38))
	db, tuples := newTestDB(t, rng, m, 500, 10, false, systemRankers(m)[1])
	ref := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 10, Ranker: systemRankers(m)[1]})
	e := NewEngine(db, Options{N: 500, ProbeCacheSize: 48})
	outers := make([]query.Query, 24)
	for i := range outers {
		outers[i] = factQuery(rng, tuples, m)
	}
	var ledgers int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			s := e.NewSession()
			for i := 0; i < 300; i++ {
				var q query.Query
				switch rng.Intn(3) {
				case 0:
					q = outers[rng.Intn(len(outers))]
				case 1:
					q = shrink(rng, outers[rng.Intn(len(outers))], tuples, m)
				default:
					q = factQuery(rng, tuples, m)
				}
				got, _, err := s.probe(q)
				if err != nil {
					t.Error(err)
					return
				}
				if want, _ := ref.TopK(q); !resultsEqual(got, want) {
					t.Errorf("%s answered %v, the upstream says %v", q, got.Tuples, want.Tuples)
					return
				}
			}
			mu.Lock()
			ledgers += s.Queries()
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if ledgers != db.QueryCount() || e.Queries() != db.QueryCount() {
		t.Fatalf("session ledgers %d, engine ledger %d, upstream saw %d", ledgers, e.Queries(), db.QueryCount())
	}
	if e.Stats().ProbeContainedHits == 0 || e.Stats().ProbeCacheEntries > 48 {
		t.Fatalf("contained hits %d, facts held %d of 48", e.Stats().ProbeContainedHits, e.Stats().ProbeCacheEntries)
	}
}

// fuzzQuery decodes one probe from the fuzz input: per attribute an optional
// range over a small integer grid (so nesting and shared endpoints are
// common) with open or closed ends and the odd unbounded side, plus
// optional predicates on two categorical attributes.
func fuzzQuery(data []byte) (query.Query, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	q := query.New()
	for attr := 0; attr < 3; attr++ {
		c := next()
		if c&1 == 0 {
			continue
		}
		lo, w := float64(next()%12), float64(next()%6)
		iv := types.Interval{Lo: lo, Hi: lo + w, LoOpen: c&2 != 0, HiOpen: c&4 != 0}
		if c&24 == 24 {
			iv.Lo, iv.LoOpen = math.Inf(-1), true
		}
		if c&96 == 96 {
			iv.Hi, iv.HiOpen = math.Inf(1), true
		}
		q = q.WithRange(attr, iv)
	}
	for _, name := range []string{"c", "d"} {
		if c := next(); c&1 != 0 {
			q = q.WithCat(name, string('x'+rune(c>>1&1)))
		}
	}
	return q, data
}

// FuzzFactContainment: for a random fact set (complete and partial, with
// replacements of either kind by either kind, evictions and mixed epochs) and
// a random probe, the index finds a containing current-epoch fact exactly
// when brute force over every held COMPLETE fact does, and what it returns is
// complete and does contain the probe — a partial fact never answers a
// probe its box merely contains.
func FuzzFactContainment(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 1, 0, 1, 2, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 5, 1, 0, 5, 0, 3, 1, 3, 1, 1, 1, 1, 1, 0, 3, 0, 3, 1, 2, 1, 2, 0, 3, 1})
	f.Add(bytes.Repeat([]byte{25, 97, 3, 7}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		x := newFactIndex(int(data[0]%8) + 1)
		data = data[1:]
		var probe query.Query
		probe, data = fuzzQuery(data)
		for len(data) > 0 {
			var q query.Query
			epoch := int64(1 + data[0]%2)
			overflow := data[0]&4 != 0
			q, data = fuzzQuery(data[1:])
			x.learn(q.String(), q, []uint32{uint32(len(data))}, overflow, epoch)
		}
		const cur = 2
		want := false
		for f := x.head; f != nil; f = f.older {
			if !f.partial && f.epoch >= cur && f.covers(probe) {
				want = true
			}
		}
		got := x.containing(probe, cur)
		if (got != nil) != want {
			t.Fatalf("index verdict %v, brute force %v, for probe %s over %d facts", got != nil, want, probe, len(x.byKey))
		}
		if got != nil && (got.partial || got.epoch < cur || !got.covers(probe) || x.byKey[got.key] != got) {
			t.Fatalf("index returned fact %s (epoch %d, partial %v) for probe %s", got.key, got.epoch, got.partial, probe)
		}
		// Through lookup, a partial fact answers its own key and nothing else.
		for f := x.head; f != nil; f = f.older {
			if !f.partial || f.epoch < cur {
				continue
			}
			if _, kind := x.lookup([]byte(f.key), probe, cur, true); kind != hitPartial {
				t.Fatalf("partial fact %s answered its own key as kind %d", f.key, kind)
			}
			break
		}
		if rows, kind := x.lookup(probe.AppendString(nil), probe, cur, true); kind == hitContained && !want || kind == hitNone && rows != nil {
			t.Fatalf("lookup of %s: kind %d with no complete current fact containing it", probe, kind)
		}
	})
}
