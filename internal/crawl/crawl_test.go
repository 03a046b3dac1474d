package crawl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "c", Kind: types.Categorical, Values: []string{"x", "y", "z"}},
	})
}

func mkDB(t testing.TB, rng *rand.Rand, n, k int, gridded bool) (*hidden.DB, []types.Tuple) {
	t.Helper()
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		a := rng.Float64() * 100
		if gridded {
			a = float64(rng.Intn(8)) * 12
		}
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{a, rng.Float64() * 100, 0},
			Cat: map[string]string{"c": []string{"x", "y", "z"}[rng.Intn(3)]},
		}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 1, ranking.Desc)}
	return hidden.MustDB(schema(), tuples, hidden.Options{K: k, Ranker: sys}), tuples
}

// TestCrawlCompleteProperty: the crawler must retrieve exactly the matching
// tuple set for random databases, k values, and queries.
func TestCrawlCompleteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		n := 30 + rng.Intn(200)
		k := 1 + rng.Intn(7)
		db, all := mkDB(t, rng, n, k, rng.Intn(2) == 0)
		q := query.New()
		if rng.Intn(2) == 0 {
			q = q.WithCat("c", "y")
		}
		if rng.Intn(2) == 0 {
			lo := rng.Float64() * 60
			q = q.WithRange(0, types.ClosedInterval(lo, lo+30))
		}
		c := New(db, Options{})
		got, err := c.All(q)
		if err != nil {
			t.Logf("crawl error: %v", err)
			return false
		}
		want := map[int]bool{}
		for _, tp := range all {
			if q.Matches(tp) {
				want[tp.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Logf("got %d, want %d (n=%d k=%d)", len(got), len(want), n, k)
			return false
		}
		for _, tp := range got {
			if !want[tp.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCrawlBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, _ := mkDB(t, rng, 500, 2, false)
	c := New(db, Options{MaxQueries: 5})
	_, err := c.All(query.New())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if c.Queries() > 5 {
		t.Fatalf("budget exceeded: %d", c.Queries())
	}
}

// TestCrawlUnsplittable: >k tuples identical on every attribute cannot be
// separated; the crawler must say so rather than loop.
func TestCrawlUnsplittable(t *testing.T) {
	dup := types.Tuple{Ord: []float64{5, 5, 0}, Cat: map[string]string{"c": "x"}}
	tuples := make([]types.Tuple, 10)
	for i := range tuples {
		tuples[i] = dup.Clone()
		tuples[i].ID = i
	}
	db := hidden.MustDB(schema(), tuples, hidden.Options{K: 3})
	c := New(db, Options{})
	_, err := c.All(query.New())
	if !errors.Is(err, ErrUnsplittable) {
		t.Fatalf("want ErrUnsplittable, got %v", err)
	}
}

// TestCrawlCategoricalSplit: identical ordinals but distinct categories must
// still crawl completely via categorical enumeration.
func TestCrawlCategoricalSplit(t *testing.T) {
	tuples := make([]types.Tuple, 9)
	for i := range tuples {
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{5, 5, 0},
			Cat: map[string]string{"c": []string{"x", "y", "z"}[i%3]},
		}
	}
	db := hidden.MustDB(schema(), tuples, hidden.Options{K: 4})
	c := New(db, Options{})
	got, err := c.All(query.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("got %d tuples, want 9", len(got))
	}
}

// TestCrawlCostScalesWithK: crawling the same data with a larger k must not
// cost more queries (each page reveals more).
func TestCrawlCostScalesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tuples := make([]types.Tuple, 300)
	for i := range tuples {
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100, 0},
			Cat: map[string]string{"c": "x"},
		}
	}
	cost := func(k int) int64 {
		db := hidden.MustDB(schema(), tuples, hidden.Options{K: k})
		c := New(db, Options{})
		if _, err := c.All(query.New()); err != nil {
			t.Fatal(err)
		}
		return c.Queries()
	}
	c2, c20 := cost(2), cost(20)
	if c20 >= c2 {
		t.Fatalf("k=20 crawl (%d) not cheaper than k=2 (%d)", c20, c2)
	}
}

// TestProbeHookAccounting: Options.Probe replaces direct database calls, and
// every attempt charges Queries whatever the hook did with it — the engine's
// probe path charges what reached the upstream itself.
func TestProbeHookAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, all := mkDB(t, rng, 300, 5, false)
	var attempts int64
	c := New(db, Options{Probe: func(q query.Query) (hidden.Result, error) {
		attempts++
		return db.TopK(q)
	}})
	got, err := c.All(query.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("crawl through probe hook retrieved %d tuples, want %d", len(got), len(all))
	}
	if attempts == 0 {
		t.Fatal("probe hook never called")
	}
	if c.Queries() != attempts {
		t.Errorf("Queries() = %d, want %d attempts", c.Queries(), attempts)
	}
}

// TestProbeHookBudget: MaxQueries bounds probe *attempts* through the hook
// too — a crawl does not get a bigger budget because the hook may answer
// its probes for free.
func TestProbeHookBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db, _ := mkDB(t, rng, 500, 2, false)
	c := New(db, Options{MaxQueries: 5, Probe: db.TopK})
	if _, err := c.All(query.New()); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if c.Queries() > 5 {
		t.Fatalf("budget exceeded: %d attempts", c.Queries())
	}
}
