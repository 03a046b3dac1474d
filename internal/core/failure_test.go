package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
)

// TestTransientFailurePropagates: an injected upstream failure must surface
// as an error from Next, never as a wrong answer, for every algorithm.
func TestTransientFailurePropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, all := newTestDB(t, rng, 2, 300, 5, false, systemRankers(2)[1])
	for _, v := range []Variant{Baseline, Binary, Rerank, TAOverOneD} {
		flaky := &hidden.FlakyDB{DB: db, FailEvery: 7}
		e := NewEngine(flaky, Options{N: 300})
		r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
		cur, err := e.NewCursor(query.New(), r, v)
		if err != nil {
			t.Fatal(err)
		}
		sawError := false
		var got []float64
		for i := 0; i < 50; i++ {
			tp, ok, err := cur.Next()
			if err != nil {
				if !errors.Is(err, hidden.ErrTransient) {
					t.Fatalf("%v: unexpected error type: %v", v, err)
				}
				sawError = true
				break
			}
			if !ok {
				break
			}
			got = append(got, ranking.ScoreTuple(r, tp))
		}
		if !sawError && flaky.Injected() > 0 {
			t.Fatalf("%v: %d failures injected but none surfaced", v, flaky.Injected())
		}
		// Every answer produced BEFORE the failure must be correct.
		want := oracleTopH(all, query.New(), r, len(got))
		for i := range got {
			if got[i] != ranking.ScoreTuple(r, want[i]) {
				t.Fatalf("%v: answer %d wrong despite clean error: %g vs %g",
					v, i, got[i], ranking.ScoreTuple(r, want[i]))
			}
		}
	}
}

// TestRetryAfterFailure: once the upstream recovers, a FRESH cursor on the
// same engine must produce exact answers — the history gathered before the
// failure stays valid.
func TestRetryAfterFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db, all := newTestDB(t, rng, 2, 300, 5, true, systemRankers(2)[2])
	flaky := &hidden.FlakyDB{DB: db, FailEvery: 5}
	e := NewEngine(flaky, Options{N: 300})
	r := ranking.MustLinear("u", []int{0, 1}, []float64{2, 1})
	cur, _ := e.NewCursor(query.New(), r, Rerank)
	for i := 0; i < 30; i++ {
		if _, ok, err := cur.Next(); err != nil || !ok {
			break
		}
	}
	// Upstream recovers.
	flaky.FailEvery = 0
	cur2, err := e.NewCursor(query.New(), r, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopH(cur2, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopH(all, query.New(), r, 12)
	assertSameRanking(t, r, got, want, oracleTopH(all, query.New(), r, 1<<30))
}

// TestPerOpBudget: MaxQueriesPerOp must bound a single Get-Next and return
// ErrBudget rather than hanging on adversarial inputs.
func TestPerOpBudget(t *testing.T) {
	adv := hidden.NewAdversary(0, 1000, 100000, 1)
	e := NewEngine(adv, Options{N: 100000, MaxQueriesPerOp: 25})
	cur := e.NewOneDCursor(query.New(), 0, ranking.Asc, Baseline)
	_, _, err := cur.Next()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget against the adversary, got %v", err)
	}
	if adv.QueryCount() > 30 {
		t.Fatalf("budget leak: %d queries issued", adv.QueryCount())
	}
}

// TestMDPerOpBudgetForcesWidth1: a per-op budget makes the MD search
// sequential whatever SearchParallelism asks for, so the budget is charged
// one probe at a time and no probe is speculative.
func TestMDPerOpBudgetForcesWidth1(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewSource(41))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 2000, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 5, Ranker: systemRankers(2)[1]})
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 3})

	free := NewEngine(db, Options{N: 2000})
	if _, _, err := free.NewMDCursor(query.New(), r, Rerank).Next(); err != nil {
		t.Fatal(err)
	}
	if free.Queries() <= m {
		t.Fatalf("first Get-Next needs %d probes, want > %d for the budget to bind", free.Queries(), m)
	}

	t.Logf("unbudgeted first Get-Next: %d upstream queries", free.Queries())
	before := db.QueryCount()
	e := NewEngine(db, Options{N: 2000, SearchParallelism: 8, MaxQueriesPerOp: m})
	_, _, err := e.NewMDCursor(query.New(), r, Rerank).Next()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if n := db.QueryCount() - before; n > m {
		t.Errorf("budget leak: %d upstream queries, want ≤ %d", n, m)
	}
	st := e.Stats()
	if st.SearchParallelism != 1 {
		t.Errorf("SearchParallelism = %d under a per-op budget, want 1", st.SearchParallelism)
	}
	if st.SpecProbesIssued != 0 {
		t.Errorf("SpecProbesIssued = %d under a per-op budget, want 0", st.SpecProbesIssued)
	}
}

// TestRateLimitSurfacesMidStream: when the upstream budget runs dry during
// incremental processing, the error must surface and prior answers remain
// exact.
func TestRateLimitSurfacesMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 400, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{
		K: 5, Ranker: systemRankers(2)[1], QueryBudget: 30,
	})
	e := NewEngine(db, Options{N: 400})
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 3})
	cur, _ := e.NewCursor(query.New(), r, Rerank)
	var got []float64
	var err error
	for {
		t2, ok, e2 := cur.Next()
		if e2 != nil {
			err = e2
			break
		}
		if !ok {
			break
		}
		got = append(got, ranking.ScoreTuple(r, t2))
	}
	if !errors.Is(err, hidden.ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
	want := oracleTopH(tuples, query.New(), r, len(got))
	for i := range got {
		if got[i] != ranking.ScoreTuple(r, want[i]) {
			t.Fatalf("answer %d wrong before rate limit: %g vs %g",
				i, got[i], ranking.ScoreTuple(r, want[i]))
		}
	}
}
