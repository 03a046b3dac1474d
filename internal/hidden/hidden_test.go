package hidden

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

func schema1() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "c", Kind: types.Categorical, Values: []string{"x", "y"}},
	})
}

func mkTuples(n int, rng *rand.Rand) []types.Tuple {
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100, 0},
			Cat: map[string]string{"c": []string{"x", "y"}[rng.Intn(2)]},
		}
	}
	return out
}

func TestTopKSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tuples := mkTuples(100, rng)
	sys := RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Asc)}
	db := MustDB(schema1(), tuples, Options{K: 5, Ranker: sys})

	// Match-all overflows and returns exactly k tuples in system order.
	res, err := db.TopK(query.New())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 5 {
		t.Fatalf("overflow=%v len=%d", res.Overflow, len(res.Tuples))
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i].Ord[0] < res.Tuples[i-1].Ord[0] {
			t.Fatal("not in system-rank order")
		}
	}
	// A range holding nothing underflows.
	res, err = db.TopK(query.New().WithRange(0, types.ClosedInterval(-5, -1)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Underflow() || res.Valid() {
		t.Fatal("expected underflow")
	}
	// A narrow range with few matches is valid and complete.
	narrow := query.New().WithRange(0, types.ClosedInterval(0, 3))
	res, err = db.TopK(narrow)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tp := range tuples {
		if narrow.Matches(tp) {
			count++
		}
	}
	if count <= 5 {
		if res.Overflow || len(res.Tuples) != count {
			t.Fatalf("valid query: got %d/%v, want %d", len(res.Tuples), res.Overflow, count)
		}
	}
	if got := db.QueryCount(); got != 3 {
		t.Fatalf("QueryCount = %d, want 3", got)
	}
	db.ResetCounter()
	if db.QueryCount() != 0 {
		t.Fatal("ResetCounter failed")
	}
}

func TestSystemRankingTieBreak(t *testing.T) {
	// Equal system scores must order deterministically by ID.
	tuples := []types.Tuple{
		{ID: 3, Ord: []float64{1, 0, 0}}, {ID: 1, Ord: []float64{1, 0, 0}},
		{ID: 2, Ord: []float64{1, 0, 0}},
	}
	db := MustDB(schema1(), tuples, Options{K: 2, Ranker: RankerAdapter{R: ranking.NewSingle("s", 0, ranking.Asc)}})
	res, _ := db.TopK(query.New())
	if res.Tuples[0].ID != 1 || res.Tuples[1].ID != 2 {
		t.Fatalf("tie-break order: %v", res.Tuples)
	}
	// All lists the whole corpus in the same order, as copies.
	all := db.All()
	if len(all) != 3 || all[0].ID != 1 || all[1].ID != 2 || all[2].ID != 3 {
		t.Fatalf("All order: %v", all)
	}
	all[0].Ord[0] = 9
	if again := db.All(); again[0].Ord[0] != 1 {
		t.Fatal("All returned the database's own tuple, not a copy")
	}
}

func TestQueryBudget(t *testing.T) {
	db := MustDB(schema1(), mkTuples(20, rand.New(rand.NewSource(2))), Options{K: 5, QueryBudget: 2})
	for i := 0; i < 2; i++ {
		if _, err := db.TopK(query.New()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.TopK(query.New()); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
	db.ResetCounter()
	if _, err := db.TopK(query.New()); err != nil {
		t.Fatalf("budget should reset: %v", err)
	}
}

func TestWithKAndViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := MustDB(schema1(), mkTuples(50, rng), Options{K: 5})
	db2 := db.WithK(1)
	if db2.K() != 1 || db2.Size() != 50 {
		t.Fatal("WithK broken")
	}
	res, _ := db2.TopK(query.New())
	if len(res.Tuples) != 1 || !res.Overflow {
		t.Fatal("k=1 view broken")
	}
	// ORDER BY view returns ascending attribute-1 order and counts
	// queries on the parent counter.
	db.ResetCounter()
	v := NewOrderByView(db, 1, ranking.Asc)
	res, err := v.TopK(query.New())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i].Ord[1] < res.Tuples[i-1].Ord[1] {
			t.Fatal("OrderByView not sorted")
		}
	}
	if db.QueryCount() != 1 {
		t.Fatal("view query not counted")
	}
	if v.K() != db.K() || v.Schema() != db.Schema() {
		t.Fatal("view metadata broken")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewDB(schema1(), nil, Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	bad := []types.Tuple{{ID: 0, Ord: []float64{1}}}
	if _, err := NewDB(schema1(), bad, Options{K: 1}); err == nil {
		t.Error("short tuple accepted")
	}
}

// TestTheorem1Adversary demonstrates the paper's lower bound: no strategy
// can certify the minimum tuple in fewer than n/k queries, because (a) each
// query reveals at most k tuples and (b) while fewer than n tuples are
// materialized the adversary can always insert a smaller one consistently
// with every answer given so far.
func TestTheorem1Adversary(t *testing.T) {
	n, k := 200, 5
	strategies := []struct {
		name string
		next func(rng *rand.Rand, round int, lastMin float64) types.Interval
	}{
		{"greedy-bottom", func(_ *rand.Rand, _ int, lastMin float64) types.Interval {
			return types.OpenInterval(0, lastMin)
		}},
		{"binary", func(_ *rand.Rand, _ int, lastMin float64) types.Interval {
			return types.OpenInterval(0, lastMin/2)
		}},
		{"random", func(rng *rand.Rand, _ int, _ float64) types.Interval {
			lo := rng.Float64() * 500
			return types.OpenInterval(lo, lo+rng.Float64()*500)
		}},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			adv := NewAdversary(0, 1000, n, k)
			rng := rand.New(rand.NewSource(7))
			lastMin := 1000.0
			rounds := n/k - 1
			for i := 0; i < rounds; i++ {
				res, err := adv.TopK(query.New().WithRange(0, s.next(rng, i, lastMin)))
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range res.Tuples {
					if tp.Ord[0] < lastMin {
						lastMin = tp.Ord[0]
					}
				}
				// (a) reveal rate: at most k new tuples per query.
				if got := adv.Materialized(); got > (i+1)*k {
					t.Fatalf("query %d materialized %d > %d tuples", i+1, got, (i+1)*k)
				}
			}
			// (b) after n/k - 1 queries a smaller tuple can still be
			// hidden, so any claimed top-1 would be wrong.
			if !adv.CanStillHide() {
				t.Fatalf("adversary exhausted after only %d < n/k queries", rounds)
			}
			if adv.K() != k || adv.Schema().NumOrdinal() != 1 {
				t.Fatal("adversary metadata broken")
			}
		})
	}
}

// TestAdversaryConsistency: answers must stay consistent — a tuple once
// returned keeps being returned by covering queries.
func TestAdversaryConsistency(t *testing.T) {
	adv := NewAdversary(0, 100, 50, 3)
	res1, _ := adv.TopK(query.New().WithRange(0, types.OpenInterval(0, 100)))
	if len(res1.Tuples) == 0 {
		t.Fatal("first answer empty")
	}
	seen := res1.Tuples[0]
	v := seen.Ord[0]
	res2, _ := adv.TopK(query.New().WithRange(0, types.OpenInterval(v-0.001, v+0.001)))
	found := false
	for _, tp := range res2.Tuples {
		if tp.ID == seen.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("tuple %v vanished from covering query answer %v", seen, res2.Tuples)
	}
	if got := adv.String(); !strings.Contains(got, "queries=2") {
		t.Fatalf("String() = %q, want it to report the 2 queries answered", got)
	}
}
