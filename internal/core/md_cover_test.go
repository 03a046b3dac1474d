package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// probeLog is an upstream that writes down every probe it is asked.
type probeLog struct {
	*hidden.DB
	mu     sync.Mutex
	probes []string
}

func (p *probeLog) TopK(q query.Query) (hidden.Result, error) {
	p.mu.Lock()
	p.probes = append(p.probes, q.String())
	p.mu.Unlock()
	return p.DB.TopK(q)
}

// TestMDProbeStreamIndependentOfH: how deep MD-RERANK certifies is a function
// of system-k, never of how many answers the request will ask for, so from
// one engine state the probes of a top-3 are the first probes of a top-8.
func TestMDProbeStreamIndependentOfH(t *testing.T) {
	schema := testSchema(2)
	tuples := genTuples(rand.New(rand.NewSource(91)), schema, 2000, false)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 1, ranking.Desc)}
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 2})
	warm := ranking.MustLinear("w", []int{0, 1}, []float64{3, 1})
	q := query.New().WithCat("cat", "x")
	for _, coalesce := range []bool{true, false} {
		stream := func(h int) []string {
			db := &probeLog{DB: hidden.MustDB(schema, tuples, hidden.Options{K: 30, Ranker: sys})}
			e := NewEngine(db, Options{N: len(tuples), ProbeCacheSize: probeCache(coalesce)})
			// The same warm-up on every engine: history and facts to certify from.
			for _, w := range []ranking.Ranker{warm, r} {
				if _, err := TopH(e.NewMDCursor(q, w, Rerank), 6); err != nil {
					t.Fatal(err)
				}
			}
			from := len(db.probes)
			if _, err := TopH(e.NewMDCursor(q, r, Rerank), h); err != nil {
				t.Fatal(err)
			}
			if e.Stats().MDCertifiedComplete == 0 {
				t.Fatal("no deep certification came back complete; the test exercised nothing")
			}
			return db.probes[from:]
		}
		top3, top8 := stream(3), stream(8)
		if len(top3) > len(top8) || !slices.Equal(top3, top8[:len(top3)]) {
			t.Fatalf("coalescing=%v: the top-3's probes are not a prefix of the top-8's\ntop-3: %q\ntop-8: %q", coalesce, top3, top8)
		}
	}
}

// TestMDRepeatCertifiesFromFacts: a request the engine has answered before
// finds its deep pages in the fact index and keeps them as covers again, so the
// repeat resolves as few regions as its first run did — as many deep pages,
// no more upstream queries — instead of asking the fact index for one
// candidate's contour per Get-Next, each behind a history scan.
func TestMDRepeatCertifiesFromFacts(t *testing.T) {
	schema := testSchema(2)
	tuples := genTuples(rand.New(rand.NewSource(93)), schema, 2000, false)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 1, ranking.Desc)}
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 2})
	warm := ranking.MustLinear("w", []int{0, 1}, []float64{3, 1})
	q := query.New().WithCat("cat", "x")
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 30, Ranker: sys})
	e := NewEngine(db, Options{N: len(tuples)})
	if _, err := TopH(e.NewMDCursor(q, warm, Rerank), 6); err != nil {
		t.Fatal(err)
	}
	full := oracleTopH(tuples, q, r, len(tuples))
	var deep, asked [2]int64
	for run := range deep {
		d0 := e.Stats().MDCertifiedComplete
		q0 := db.QueryCount()
		got, err := TopH(e.NewMDCursor(q, r, Rerank), 8)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, r, got, full[:8], full)
		d1 := e.Stats().MDCertifiedComplete
		deep[run], asked[run] = d1-d0, db.QueryCount()-q0
	}
	if deep[0] == 0 {
		t.Fatal("the first run kept no deep page; the test exercised nothing")
	}
	if deep[1] < deep[0] || asked[1] > asked[0] {
		t.Fatalf("first run: %d deep pages for %d queries; its repeat: %d for %d", deep[0], asked[0], deep[1], asked[1])
	}
}

// TestMDCoverAcrossTieGroups drains a corpus of ten-tuple tie groups under a
// page of twenty, where every cover page cuts through tie groups that are
// emitted while it is held — by its own region or by the part it was split
// from, at W = 1 and W = 4. No tuple may come out twice or go missing, and no
// region may stand resolved on a tuple already emitted.
func TestMDCoverAcrossTieGroups(t *testing.T) {
	schema := testSchema(3)
	tuples := genTuples(rand.New(rand.NewSource(92)), schema, 1200, true)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	r := ranking.MustLinear("grid", []int{0, 1}, []float64{1, 2})
	q := query.New().WithCat("cat", "y")
	full := oracleTopH(tuples, q, r, len(tuples))
	for _, width := range []int{1, 4} {
		db := hidden.MustDB(schema, tuples, hidden.Options{K: 20, Ranker: sys})
		e := NewEngine(db, Options{N: len(tuples), SearchParallelism: width})
		// A first pass leaves the history the second certifies from.
		if _, err := TopH(e.NewMDCursor(q, r, Rerank), 40); err != nil {
			t.Fatal(err)
		}
		cur := e.NewMDCursor(q, r, Rerank)
		seen := map[int]bool{}
		var got []types.Tuple
		heldEmitted := false
		for len(got) < 150 {
			tp, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if seen[tp.ID] {
				t.Fatalf("W=%d: tuple %d emitted twice", width, tp.ID)
			}
			seen[tp.ID] = true
			got = append(got, tp)
			assertCoversHold(t, cur, tuples, r)
			for _, reg := range cur.regions {
				if reg.resolved && cur.emitted[reg.best.ID] {
					t.Fatalf("W=%d: a region stands resolved on emitted tuple %d", width, reg.best.ID)
				}
				if reg.cover != nil {
					for _, st := range reg.cover.entries {
						heldEmitted = heldEmitted || cur.emitted[st.t.ID]
					}
				}
			}
		}
		assertSameRanking(t, r, got, full[:min(150, len(full))], full)
		if !heldEmitted {
			t.Fatalf("W=%d: no held cover page ever listed an emitted tuple; the test exercised nothing", width)
		}
	}
}

// assertCoversHold checks every held cover against the corpus: a region's page
// lists each tuple of the region's box that matches q, scores at most Θ and
// has not been emitted.
func assertCoversHold(t *testing.T, cur *MDCursor, all []types.Tuple, r ranking.Ranker) {
	t.Helper()
	for _, reg := range cur.regions {
		if reg.cover == nil {
			continue
		}
		listed := map[int]bool{}
		for _, st := range reg.cover.entries {
			listed[st.t.ID] = true
		}
		for _, tp := range all {
			if cur.q.Matches(tp) && !cur.emitted[tp.ID] && !listed[tp.ID] &&
				reg.box.Contains(cur.axis().ToAxis(tp)) && ranking.ScoreTuple(r, tp) <= reg.cover.theta {
				t.Fatalf("region %v holds a cover down to %v that does not list %v (score %v)",
					reg.box, reg.cover.theta, tp, ranking.ScoreTuple(r, tp))
			}
		}
	}
}

// TestMDCoverAfterTiedHistory: the D best tuples history knows share one
// score, so the first probe asks the candidate's own contour; it overflows and
// its page improves the candidate past several score levels. The probe that
// follows covers the region down to the improved candidate only, and the cover
// filed for it must not claim the deeper contour of the tied pair.
func TestMDCoverAfterTiedHistory(t *testing.T) {
	schema := testSchema(2)
	at := func(a0, a1 float64) types.Tuple {
		return types.Tuple{Ord: []float64{a0, a1, 0}, Cat: map[string]string{"cat": "x"}}
	}
	// Scores under A0 + A1: 10, 17 and 12 — the last outside [0, 10]², where the
	// contour of the first puts its box — then the pair tied at 60.
	tuples := []types.Tuple{at(0, 10), at(8, 9), at(12, 0), at(25, 35), at(35, 25)}
	for i := 1; i <= 30; i++ {
		tuples = append(tuples, at(float64(i), 40))
	}
	for i := range tuples {
		tuples[i].ID = i
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Asc)}
	r := ranking.MustLinear("sum", []int{0, 1}, []float64{1, 1})
	pair := query.New().WithRange(0, types.ClosedInterval(25, 35)).WithRange(1, types.ClosedInterval(25, 35))
	full := oracleTopH(tuples, query.New(), r, len(tuples))
	for _, width := range []int{1, 4} {
		for _, coalesce := range []bool{true, false} {
			db := hidden.MustDB(schema, tuples, hidden.Options{K: 20, Ranker: sys})
			e := NewEngine(db, Options{N: len(tuples), SearchParallelism: width, ProbeCacheSize: probeCache(coalesce)})
			if got, err := TopH(e.NewMDCursor(pair, r, Rerank), 2); err != nil || len(got) != 2 {
				t.Fatalf("warm-up: %v, %v", got, err)
			}
			cur := e.NewMDCursor(query.New(), r, Rerank)
			var got []types.Tuple
			for {
				tp, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, tp)
				assertCoversHold(t, cur, tuples, r)
			}
			assertSameRanking(t, r, got, full, full)
		}
	}
}
