package qrank_test

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/qrank"
)

func buildDB(t testing.TB, n, k int) (qrank.Database, []qrank.Tuple, *qrank.Schema) {
	t.Helper()
	schema := qrank.MustSchema([]qrank.Attribute{
		{Name: "p", Kind: qrank.Ordinal, Domain: qrank.Domain{Min: 0, Max: 1000}},
		{Name: "m", Kind: qrank.Ordinal, Domain: qrank.Domain{Min: 0, Max: 1000}},
		{Name: "b", Kind: qrank.Categorical, Values: []string{"u", "v"}},
	})
	rng := rand.New(rand.NewSource(9))
	tuples := make([]qrank.Tuple, n)
	for i := range tuples {
		tuples[i] = qrank.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 1000, rng.Float64() * 1000, 0},
			Cat: map[string]string{"b": []string{"u", "v"}[rng.Intn(2)]},
		}
	}
	db, err := qrank.NewMemoryDatabase(schema, tuples, k, func(t qrank.Tuple) float64 {
		return -(t.Ord[0] + t.Ord[1]) // hostile: worst first
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tuples, schema
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db, tuples, _ := buildDB(t, 500, 7)
	rr := qrank.New(db, qrank.Options{N: 500})
	rank := qrank.MustLinear("p+2m", []int{0, 1}, []float64{1, 2})
	q := qrank.NewQuery().WithCat("b", "u")
	cur, err := rr.Query(q, rank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qrank.TopH(cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle.
	var want []float64
	for _, tp := range tuples {
		if tp.Cat["b"] == "u" {
			want = append(want, tp.Ord[0]+2*tp.Ord[1])
		}
	}
	sort.Float64s(want)
	if len(got) != 10 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i, tp := range got {
		if s := qrank.Score(rank, tp); s != want[i] {
			t.Fatalf("rank %d: score %g, want %g", i, s, want[i])
		}
	}
	if rr.QueriesIssued() <= 0 || rr.HistorySize() <= 0 {
		t.Error("accounting broken")
	}
	if st := rr.StorageStats(); st.Tuples != rr.HistorySize() || st.ApproxBytes <= 0 {
		t.Errorf("storage stats %+v for a history of %d tuples", st, rr.HistorySize())
	}
}

func TestPublicVariants(t *testing.T) {
	db, tuples, _ := buildDB(t, 300, 5)
	rr := qrank.New(db, qrank.Options{N: 300})
	rank := qrank.MustLinear("lin", []int{0, 1}, []float64{1, 1})
	for _, v := range []qrank.Variant{qrank.Baseline, qrank.Binary, qrank.Rerank, qrank.TAOverOneD} {
		cur, err := rr.QueryVariant(qrank.NewQuery(), rank, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		top, err := qrank.TopH(cur, 3)
		if err != nil || len(top) != 3 {
			t.Fatalf("%v: %v len=%d", v, err, len(top))
		}
	}
	// Single-attribute ranking routes to the 1D machinery, TA must be
	// rejected there.
	single := qrank.NewSingle("s", 0, qrank.Desc)
	if _, err := rr.QueryVariant(qrank.NewQuery(), single, qrank.TAOverOneD); err == nil {
		t.Error("TA accepted for 1D ranking")
	}
	cur, err := rr.Query(qrank.NewQuery(), single)
	if err != nil {
		t.Fatal(err)
	}
	top, err := qrank.TopH(cur, 1)
	if err != nil || len(top) != 1 {
		t.Fatal("single-attr query failed")
	}

	// The constructors that report errors: a linear ranker over an open
	// range, and a ratio ranker over a schema whose denominator is positive.
	if _, err := qrank.NewLinear("bad", []int{0, 1}, []float64{1}); err == nil {
		t.Error("NewLinear accepted 2 attributes with 1 weight")
	}
	lin, err := qrank.NewLinear("p-m", []int{0, 1}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	window := qrank.OpenInterval(200, 800)
	checkTop(t, rr, tuples, qrank.NewQuery().WithRange(0, window), lin, func(tp qrank.Tuple) bool {
		return window.Contains(tp.Ord[0])
	})
	attr := func(name string, min, max float64) qrank.Attribute {
		return qrank.Attribute{Name: name, Kind: qrank.Ordinal, Domain: qrank.Domain{Min: min, Max: max}}
	}
	if _, err := qrank.NewSchema([]qrank.Attribute{attr("p", 1, 10), attr("p", 1, 10)}); err == nil {
		t.Error("NewSchema accepted a repeated attribute name")
	}
	schema, err := qrank.NewSchema([]qrank.Attribute{attr("price", 1, 1000), attr("carat", 0.5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	gems := make([]qrank.Tuple, 300)
	for i := range gems {
		gems[i] = qrank.Tuple{ID: i, Ord: []float64{1 + rng.Float64()*999, 0.5 + rng.Float64()*4.5}}
	}
	gemDB, err := qrank.NewMemoryDatabase(schema, gems, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTop(t, qrank.New(gemDB, qrank.Options{N: len(gems)}), gems, qrank.NewQuery(), qrank.NewRatio("ppc", 0, 1), func(qrank.Tuple) bool { return true })
}

// checkTop compares rr's top 5 for q under rank with a brute-force ranking
// of the tuples match admits.
func checkTop(t *testing.T, rr *qrank.Reranker, tuples []qrank.Tuple, q qrank.Query, rank qrank.Ranker, match func(qrank.Tuple) bool) {
	t.Helper()
	var want []float64
	for _, tp := range tuples {
		if match(tp) {
			want = append(want, qrank.Score(rank, tp))
		}
	}
	sort.Float64s(want)
	cur, err := rr.Query(q, rank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qrank.TopH(cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%s: got %d tuples, want 5", rank.Name(), len(got))
	}
	for i, tp := range got {
		if s := qrank.Score(rank, tp); s != want[i] {
			t.Fatalf("%s rank %d: score %g, want %g", rank.Name(), i, s, want[i])
		}
	}
}

// TestConcurrentSessions exercises the public concurrency contract: many
// goroutines, each with its own session, against one shared Reranker. Every
// answer must be exact and the session ledgers must partition the total.
func TestConcurrentSessions(t *testing.T) {
	db, tuples, _ := buildDB(t, 400, 5)
	rr := qrank.New(db, qrank.Options{N: 400})
	rank := qrank.MustLinear("p+m", []int{0, 1}, []float64{1, 1})

	oracle := func(filter string, h int) []float64 {
		var want []float64
		for _, tp := range tuples {
			if filter == "" || tp.Cat["b"] == filter {
				want = append(want, tp.Ord[0]+tp.Ord[1])
			}
		}
		sort.Float64s(want)
		return want[:h]
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ledgers int64
	errs := make(chan error, 16)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			filter := []string{"", "u", "v"}[g%3]
			q := qrank.NewQuery()
			if filter != "" {
				q = q.WithCat("b", filter)
			}
			sess := rr.NewSession()
			cur, err := sess.NewCursor(q, rank, qrank.Rerank)
			if err != nil {
				errs <- err
				return
			}
			got, err := qrank.TopH(cur, 5)
			if err != nil {
				errs <- err
				return
			}
			want := oracle(filter, 5)
			for i, tp := range got {
				if s := qrank.Score(rank, tp); s != want[i] {
					t.Errorf("goroutine %d rank %d: score %g, want %g", g, i, s, want[i])
				}
			}
			mu.Lock()
			ledgers += sess.Queries()
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ledgers != rr.QueriesIssued() {
		t.Errorf("session ledgers sum to %d, reranker counted %d", ledgers, rr.QueriesIssued())
	}
}

// countingDB counts the searches that actually reach the upstream.
type countingDB struct {
	qrank.Database
	calls atomic.Int64
}

func (c *countingDB) TopK(q qrank.Query) (qrank.Result, error) {
	c.calls.Add(1)
	return c.Database.TopK(q)
}

// TestOpenDataDirWarmRestart: knowledge a Reranker acquired with a data dir
// open is durable — after Close, a new Reranker over the same upstream that
// opens the same directory answers the same query identically for zero
// upstream searches. The query covers a tight cluster ([50, 50.3]² holds 60
// of 1200 tuples), which the cold run crawls into a dense region: the one
// kind of knowledge whose replay is exactly free rather than merely cheaper.
func TestOpenDataDirWarmRestart(t *testing.T) {
	schema := qrank.MustSchema([]qrank.Attribute{
		{Name: "x", Kind: qrank.Ordinal, Domain: qrank.Domain{Min: 0, Max: 100}},
		{Name: "y", Kind: qrank.Ordinal, Domain: qrank.Domain{Min: 0, Max: 100}},
	})
	rng := rand.New(rand.NewSource(91))
	tuples := make([]qrank.Tuple, 1200)
	for i := range tuples {
		ord := []float64{rng.Float64() * 100, rng.Float64() * 100}
		if i < 60 {
			ord = []float64{50 + float64(i)*0.005, 50 + float64((i*37)%60)*0.005}
		}
		tuples[i] = qrank.Tuple{ID: i, Ord: ord}
	}
	inner, err := qrank.NewMemoryDatabase(schema, tuples, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := &countingDB{Database: inner}
	dir := t.TempDir()
	rank := qrank.MustLinear("x+y", []int{0, 1}, []float64{1, 1})
	q := qrank.NewQuery().
		WithRange(0, qrank.ClosedInterval(50, 50.3)).
		WithRange(1, qrank.ClosedInterval(50, 50.3))
	top5 := func(rr *qrank.Reranker) []qrank.Tuple {
		t.Helper()
		cur, err := rr.Query(q, rank)
		if err != nil {
			t.Fatal(err)
		}
		got, err := qrank.TopH(cur, 5)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	rr1 := qrank.New(db, qrank.Options{N: len(tuples)})
	store1, err := rr1.OpenDataDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := top5(rr1)
	if db.calls.Load() == 0 || len(want) != 5 {
		t.Fatalf("precondition: cold query cost %d upstream searches for %d tuples", db.calls.Load(), len(want))
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	db.calls.Store(0)
	rr2 := qrank.New(db, qrank.Options{N: len(tuples)})
	store2, err := rr2.OpenDataDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got := top5(rr2)
	if n := db.calls.Load(); n != 0 || rr2.QueriesIssued() != 0 {
		t.Errorf("warm repeat reached the upstream %d times and was charged %d, want 0 and 0", n, rr2.QueriesIssued())
	}
	if rr2.HistorySize() != rr1.HistorySize() {
		t.Errorf("restored history size %d, want %d", rr2.HistorySize(), rr1.HistorySize())
	}
	if len(got) != len(want) {
		t.Fatalf("warm repeat returned %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: warm ID %d, cold ID %d", i, got[i].ID, want[i].ID)
		}
	}
}
