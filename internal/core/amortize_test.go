package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// TestDenseIndexAmortization reproduces the §3.2.2 story end to end: a
// dense value cluster at the bottom of an attribute, an adversarial system
// ranking, and a stream of user queries hitting the same region. The first
// query pays for crawling the dense region; subsequent queries answer from
// the index for a fraction of the cost.
func TestDenseIndexAmortization(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	schema := testSchema(2)
	n := 4000
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, schema.Len())
		if i < n/3 {
			ord[0] = 0.5 + rng.Float64()*0.05 // dense cluster at the bottom
		} else {
			ord[0] = 1 + rng.Float64()*99
		}
		ord[1] = rng.Float64() * 100
		tuples[i] = types.Tuple{ID: i, Ord: ord,
			Cat: map[string]string{"cat": []string{"x", "y", "z"}[i%3]}}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})
	e := NewEngine(db, Options{N: n})

	// Different user queries (different categorical filters) over the
	// same ranked attribute all hit the same dense region.
	costs := make([]int64, 0, 3)
	for _, cat := range []string{"x", "y", "z"} {
		before := db.QueryCount()
		cur := e.NewOneDCursor(query.New().WithCat("cat", cat), 0, ranking.Asc, Rerank)
		if _, err := TopH(cur, 10); err != nil {
			t.Fatal(err)
		}
		costs = append(costs, db.QueryCount()-before)
	}
	if e.DenseIndex1D().Regions(0) == 0 {
		t.Fatal("dense region never indexed")
	}
	if costs[1] >= costs[0] || costs[2] >= costs[0] {
		t.Errorf("index did not amortize: costs %v", costs)
	}
	t.Logf("per-query costs across users: %v", costs)
}

// TestDOTSpotExactness validates the full stack against the synthetic DOT
// dataset at moderate scale: 1D and MD cursors versus a local oracle.
func TestDOTSpotExactness(t *testing.T) {
	ds := dataset.DOT(77, 6000)
	db := ds.DBWith(10, dataset.DOTSystemRanker2())
	e := NewEngine(db, Options{N: 6000})

	// 1D: taxi-in ascending with a carrier filter (heavy integer ties).
	q := query.New().WithCat("Carrier", "AA")
	r1 := ranking.NewSingle("taxi-in", dataset.DOTTaxiIn, ranking.Asc)
	cur := e.NewOneDCursor(q, dataset.DOTTaxiIn, ranking.Asc, Rerank)
	got, err := TopH(cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopH(ds.Tuples, q, r1, 25)
	assertSameRanking(t, r1, got, want, oracleTopH(ds.Tuples, q, r1, 1<<30))

	// MD: delay blend over a distance range.
	r2 := ranking.MustLinear("blend",
		[]int{dataset.DOTArrDelayNew, dataset.DOTDepDelay, dataset.DOTTaxiOut},
		[]float64{1, 0.5, 0.25})
	q2 := query.New().WithRange(dataset.DOTDistance, types.ClosedInterval(500, 2500))
	cur2, err := e.NewCursor(q2, r2, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := TopH(cur2, 15)
	if err != nil {
		t.Fatal(err)
	}
	want2 := oracleTopH(ds.Tuples, q2, r2, 15)
	assertSameRanking(t, r2, got2, want2, oracleTopH(ds.Tuples, q2, r2, 1<<30))

	// Descending 1D on a derived-preference attribute (largest distance).
	r3 := ranking.NewSingle("dist-desc", dataset.DOTDistance, ranking.Desc)
	cur3 := e.NewOneDCursor(query.New(), dataset.DOTDistance, ranking.Desc, Rerank)
	got3, err := TopH(cur3, 10)
	if err != nil {
		t.Fatal(err)
	}
	want3 := oracleTopH(ds.Tuples, query.New(), r3, 10)
	assertSameRanking(t, r3, got3, want3, oracleTopH(ds.Tuples, query.New(), r3, 1<<30))
}

// TestBlueNileRatioExactness checks the ratio ranker (price-per-carat) on
// the Blue Nile generator against the oracle — the §5 "derived attribute"
// scenario the paper motivates with this exact site.
func TestBlueNileRatioExactness(t *testing.T) {
	ds := dataset.BlueNile(78, 4000)
	db := ds.DB()
	e := NewEngine(db, Options{N: 4000})
	r := ranking.NewRatio("ppc", dataset.BNPrice, dataset.BNCarat)
	q := query.New().WithCat("Cut", "Ideal")
	cur, err := e.NewCursor(q, r, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopH(cur, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopH(ds.Tuples, q, r, 12)
	assertSameRanking(t, r, got, want, oracleTopH(ds.Tuples, q, r, 1<<30))
}
