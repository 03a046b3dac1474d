package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// TestEmptyResultSets: queries matching nothing must exhaust immediately,
// for every algorithm, without errors.
func TestEmptyResultSets(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db, _ := newTestDB(t, rng, 2, 100, 5, false, nil)
	q := query.New().WithRange(0, types.ClosedInterval(-10, -5)) // out of domain
	for _, v := range []Variant{Baseline, Binary, Rerank, TAOverOneD} {
		e := NewEngine(db, Options{N: 100})
		r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
		cur, err := e.NewCursor(q, r, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopH(cur, 5)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(got) != 0 {
			t.Fatalf("%v: got %d tuples from an empty result set", v, len(got))
		}
		// Exhaustion is stable.
		if _, ok, _ := cur.Next(); ok {
			t.Fatalf("%v: produced a tuple after exhaustion", v)
		}
	}
}

// TestEmptyProbesStayLocal: a probe with a trivially empty range — a search
// step intersected with a user window it lies outside of, say — is an
// underflow the probe path answers itself, on every issue path and with the
// fact index switched off: no upstream call, no charge, no fact. (lookup's
// issued is "fetch still needed".)
func TestEmptyProbesStayLocal(t *testing.T) {
	empty := []query.Query{
		query.New().WithRange(0, types.Interval{Lo: 12.3, Hi: 1.96, LoOpen: true}),
		query.New().WithRange(1, types.Interval{Lo: 5, Hi: 5, HiOpen: true}).WithCat("cat", "x"),
	}
	for name, opts := range map[string]Options{
		"cache on":  {N: 100, SearchParallelism: 4},
		"cache off": {N: 100, SearchParallelism: 4, ProbeCacheSize: -1},
	} {
		rng := rand.New(rand.NewSource(72))
		db, _ := newTestDB(t, rng, 2, 100, 5, false, nil)
		e := NewEngine(db, opts)
		s := e.NewSession()
		out := make([]probeResult, len(empty))
		s.issueAll(empty, out) // the round's pre-lookup
		for i, q := range empty {
			for path, issue := range map[string]func(query.Query) (hidden.Result, bool, error){
				"probe": s.probe,
				"lookup": func(q query.Query) (hidden.Result, bool, error) {
					res, known, err := s.lookup(q)
					return res, !known, err
				},
				"issueAll": func(query.Query) (hidden.Result, bool, error) { return out[i].res, out[i].issued, out[i].err },
			} {
				res, issued, err := issue(q)
				if err != nil || issued || res.Overflow || len(res.Tuples) != 0 {
					t.Fatalf("%s/%s: %s answered %v (overflow %v, issued %v, err %v), want a free underflow",
						name, path, q, res.Tuples, res.Overflow, issued, err)
				}
			}
		}
		if s.Queries() != 0 || e.Queries() != 0 || db.QueryCount() != 0 || e.Stats().ProbeCacheEntries != 0 {
			t.Fatalf("%s: session charged %d, engine %d, upstream saw %d, %d facts held; want all 0",
				name, s.Queries(), e.Queries(), db.QueryCount(), e.Stats().ProbeCacheEntries)
		}
	}
}

// TestSearchFloorHonoursUserRange: halving for the first tuple starts at the
// tighter of V(Ai)'s bound and the user's own bound on the ranked attribute,
// open or closed as that bound is, in either direction — not at the far end
// of a domain the user has already excluded.
func TestSearchFloorHonoursUserRange(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db, _ := newTestDB(t, rng, 2, 100, 5, false, nil) // every domain is [0, 100]
	e := NewEngine(db, Options{N: 100})
	for _, tc := range []struct {
		name  string
		q     query.Query
		dir   ranking.Direction
		floor float64
		open  bool
	}{
		{"no range, asc", query.New(), ranking.Asc, 0, false},
		{"no range, desc", query.New(), ranking.Desc, -100, false},
		{"range on another attribute", query.New().WithRange(1, types.ClosedInterval(20, 30)), ranking.Asc, 0, false},
		{"closed window, asc", query.New().WithRange(0, types.ClosedInterval(20, 30)), ranking.Asc, 20, false},
		{"closed window, desc", query.New().WithRange(0, types.ClosedInterval(20, 30)), ranking.Desc, -30, false},
		{"open window, asc", query.New().WithRange(0, types.OpenInterval(20, 30)), ranking.Asc, 20, true},
		{"half-open window, desc", query.New().WithRange(0, types.Interval{Lo: 20, Hi: 30, HiOpen: true}), ranking.Desc, -30, true},
		{"window wider than the domain", query.New().WithRange(0, types.ClosedInterval(-5, 200)), ranking.Desc, -100, false},
		{"open at the domain's own bound", query.New().WithRange(0, types.OpenInterval(0, 50)), ranking.Asc, 0, true},
	} {
		floor, open := e.NewOneDCursor(tc.q, 0, tc.dir, Binary).searchFloor()
		if floor != tc.floor || open != tc.open {
			t.Errorf("%s: search floor %g (open %v), want %g (open %v)", tc.name, floor, open, tc.floor, tc.open)
		}
	}
}

// TestSingleTupleDB: the smallest database must round-trip through every
// algorithm.
func TestSingleTupleDB(t *testing.T) {
	schema := testSchema(2)
	tuples := []types.Tuple{{ID: 0, Ord: []float64{5, 7, 0}, Cat: map[string]string{"cat": "x"}}}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 1})
	for _, v := range []Variant{Baseline, Binary, Rerank, TAOverOneD} {
		e := NewEngine(db, Options{N: 1})
		r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
		cur, err := e.NewCursor(query.New(), r, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopH(cur, 3)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(got) != 1 || got[0].ID != 0 {
			t.Fatalf("%v: got %v", v, got)
		}
	}
}

// TestDomainBoundaryValues: tuples sitting exactly at domain endpoints must
// be discoverable (off-by-one open/closed bugs bite here).
func TestDomainBoundaryValues(t *testing.T) {
	schema := testSchema(2)
	tuples := []types.Tuple{
		{ID: 0, Ord: []float64{0, 100, 0}, Cat: map[string]string{"cat": "x"}},   // both at min/max
		{ID: 1, Ord: []float64{100, 0, 0}, Cat: map[string]string{"cat": "x"}},   // reversed
		{ID: 2, Ord: []float64{50, 50, 0}, Cat: map[string]string{"cat": "x"}},   // middle
		{ID: 3, Ord: []float64{0, 0, 0}, Cat: map[string]string{"cat": "x"}},     // best corner
		{ID: 4, Ord: []float64{100, 100, 0}, Cat: map[string]string{"cat": "x"}}, // worst corner
	}
	sys := hidden.FuncRanker{Label: "rev", F: func(tp types.Tuple) float64 { return -float64(tp.ID) }}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 1, Ranker: sys})
	for _, v := range []Variant{Baseline, Binary, Rerank} {
		e := NewEngine(db, Options{N: len(tuples)})
		r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
		cur, err := e.NewCursor(query.New(), r, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopH(cur, 5)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		want := oracleTopH(tuples, query.New(), r, 5)
		assertSameRanking(t, r, got, want)
		// Descending 1D must surface the max-value boundary tuple first.
		cur1 := e.NewOneDCursor(query.New(), 0, ranking.Desc, v)
		first, ok, err := cur1.Next()
		if err != nil || !ok || first.Ord[0] != 100 {
			t.Fatalf("%v desc: got %v ok=%v err=%v", v, first, ok, err)
		}
	}
}

// TestCursorErrorsOnBadRanker: NewCursor must reject rankers referencing
// categorical or out-of-range attributes.
func TestCursorErrorsOnBadRanker(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db, _ := newTestDB(t, rng, 2, 20, 3, false, nil)
	e := NewEngine(db, Options{N: 20})
	// Attribute 2 is the categorical "cat" column in testSchema(2).
	if _, err := e.NewCursor(query.New(), ranking.MustLinear("bad", []int{0, 2}, []float64{1, 1}), Rerank); err == nil {
		t.Error("categorical ranking attribute accepted")
	}
	if _, err := e.NewCursor(query.New(), ranking.MustLinear("bad", []int{0, 99}, []float64{1, 1}), Rerank); err == nil {
		t.Error("out-of-range ranking attribute accepted")
	}
}

// TestVariantString covers the diagnostic names used in experiment output.
func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		Baseline: "BASELINE", Binary: "BINARY", Rerank: "RERANK",
		TAOverOneD: "TA-over-1D-RERANK", Variant(9): "Variant(9)",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

// TestHZeroAndNegative: TopH with h ≤ 0 returns empty without touching the
// database.
func TestHZeroAndNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db, _ := newTestDB(t, rng, 2, 50, 5, false, nil)
	db.ResetCounter()
	e := NewEngine(db, Options{N: 50})
	cur := e.NewOneDCursor(query.New(), 0, ranking.Asc, Rerank)
	for _, h := range []int{0, -3} {
		got, err := TopH(cur, h)
		if err != nil || len(got) != 0 {
			t.Fatalf("TopH(%d) = %v, %v", h, got, err)
		}
	}
	if db.QueryCount() != 0 {
		t.Fatalf("TopH(0) issued %d queries", db.QueryCount())
	}
}

// tieFailDB fails, once, the first tie probe it is asked: the first query
// that pins every ranked attribute to a point.
type tieFailDB struct {
	*hidden.DB
	attrs  []int
	failed atomic.Bool
}

var errTieProbe = errors.New("tie probe failed")

func (d *tieFailDB) TopK(q query.Query) (hidden.Result, error) {
	point := true
	for _, a := range d.attrs {
		iv, ok := q.Range(a)
		point = point && ok && iv.Lo == iv.Hi
	}
	if point && d.failed.CompareAndSwap(false, true) {
		return hidden.Result{}, errTieProbe
	}
	return d.DB.TopK(q)
}

// TestMDUnsplitOnTieProbeFailure: Next collects the winner's ties before it
// splits the winner's region. When the tie probe fails the region goes back
// unchanged: the retry sees every region exactly once, keeps the covers the
// other regions hold, and emits what an unfailed run emits.
func TestMDUnsplitOnTieProbeFailure(t *testing.T) {
	schema := testSchema(3)
	tuples := genTuples(rand.New(rand.NewSource(74)), schema, 1200, true)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	r := ranking.MustLinear("grid", []int{0, 1}, []float64{1, 2})
	q := query.New().WithCat("cat", "x")
	const h = 60
	for _, width := range []int{1, 4} {
		run := func(failAt int) []int {
			db := &tieFailDB{DB: hidden.MustDB(schema, tuples, hidden.Options{K: 8, Ranker: sys}), attrs: r.Attrs()}
			db.failed.Store(true)
			e := NewEngine(db, Options{N: len(tuples), SearchParallelism: width, ProbeCacheSize: -1})
			if _, err := TopH(e.NewMDCursor(q, r, Rerank), 20); err != nil { // history to certify from
				t.Fatal(err)
			}
			cur := e.NewMDCursor(q, r, Rerank)
			var ids []int
			failures := 0
			for len(ids) < h {
				if len(ids) == failAt && failures == 0 {
					db.failed.Store(false) // arm: the next tie probe fails
				}
				before := regionsByBox(t, cur)
				tp, ok, err := cur.Next()
				if err != nil {
					if !errors.Is(err, errTieProbe) {
						t.Fatal(err)
					}
					failures++
					// Resolving may have dropped regions that turned out
					// empty and re-certified others; nothing else about the
					// partition may differ.
					for box, reg := range regionsByBox(t, cur) {
						was, ok := before[box]
						if !ok && len(before) > 0 {
							t.Fatalf("W=%d: the failed Get-Next left region %s behind", width, box)
						}
						if ok && was.resolved == reg.resolved && was.cover != reg.cover {
							t.Fatalf("W=%d: region %s changed cover in the failed Get-Next without being resolved", width, box)
						}
					}
					continue
				}
				if !ok {
					break
				}
				ids = append(ids, tp.ID)
			}
			if failAt >= 0 && failures != 1 {
				t.Fatalf("W=%d: %d tie probes failed, want exactly 1", width, failures)
			}
			return ids
		}
		want := run(-1)
		// Fail the first tie probe at or after several positions: early, where
		// the cursor has one region, and late, where it holds many covers.
		// (Under a page of eight about one Get-Next in ten is resolved by
		// search rather than from a cover, and only those probe for ties.)
		for _, failAt := range []int{0, 10, 30} {
			if got := run(failAt); !slices.Equal(got, want) {
				t.Fatalf("W=%d, failing at %d: emitted %v, an unfailed run emits %v", width, failAt, got, want)
			}
		}
	}
}

// regionsByBox snapshots the cursor's regions by their box, failing the test
// when two regions share one.
func regionsByBox(t *testing.T, c *MDCursor) map[string]mdRegion {
	out := make(map[string]mdRegion, len(c.regions))
	for _, reg := range c.regions {
		box := fmt.Sprint(reg.box)
		if _, dup := out[box]; dup {
			t.Fatalf("two regions over %s", box)
		}
		out[box] = *reg
	}
	return out
}
