package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// pipeline spins up a hiddendb HTTP server over the Blue Nile generator and
// a rerankd server dialed to it, returning a client plus the raw dataset for
// oracle checks.
func pipeline(t *testing.T, n int, budget int64) (*Client, *dataset.Dataset) {
	t.Helper()
	ds := dataset.BlueNile(7, n)
	db, err := hidden.NewDB(ds.Schema, ds.Tuples, hidden.Options{
		K: ds.DefaultSystemK, Ranker: ds.DefaultRanker, QueryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(HiddenDBHandler(db))
	t.Cleanup(upstream.Close)

	remote, err := DialRemote(upstream.URL, upstream.Client())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(remote, n)
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	return NewClientWith(api.URL, WithHTTPClient(api.Client())), ds
}

func TestEndToEndRerank(t *testing.T) {
	client, ds := pipeline(t, 1200, 0)
	req := RerankRequest{
		Filters: map[string]string{"Shape": "Round"},
		Ranking: RankingSpec{Kind: "linear", Attrs: []string{"Depth", "Table"}, Weights: []float64{1, 1}},
		H:       7,
	}
	resp, err := client.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tuples) != 7 {
		t.Fatalf("got %d tuples, want 7", len(resp.Tuples))
	}
	if resp.QueriesIssued <= 0 {
		t.Fatalf("expected positive upstream query count, got %d", resp.QueriesIssued)
	}
	// Oracle: full scan of the generator's tuples.
	type scored struct {
		id    int
		score float64
	}
	var want []scored
	di, ti := ds.Schema.Index("Depth"), ds.Schema.Index("Table")
	for _, tup := range ds.Tuples {
		if tup.Cat["Shape"] != "Round" {
			continue
		}
		want = append(want, scored{tup.ID, tup.Ord[di] + tup.Ord[ti]})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].score != want[j].score {
			return want[i].score < want[j].score
		}
		return want[i].id < want[j].id
	})
	for i, got := range resp.Tuples {
		if math.Abs(got.Score-want[i].score) > 1e-9 {
			t.Fatalf("rank %d: score %g, want %g", i, got.Score, want[i].score)
		}
	}
	// Second identical request must cost fewer upstream queries thanks to
	// the shared history.
	resp2, err := client.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.QueriesIssued >= resp.QueriesIssued {
		t.Errorf("expected history to reduce repeat cost: first=%d second=%d",
			resp.QueriesIssued, resp2.QueriesIssued)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if us := st.Upstreams[DefaultUpstream]; us.Requests != 2 || us.EngineQueries != resp2.EngineQueries {
		t.Errorf("stats mismatch: %+v vs engineQueries=%d", us, resp2.EngineQueries)
	}
}

func TestEndToEndSingleAndRatio(t *testing.T) {
	client, ds := pipeline(t, 800, 0)
	// Single-attribute descending: largest carat first.
	resp, err := client.Rerank(RerankRequest{
		Ranking: RankingSpec{Kind: "single", Attrs: []string{"Carat"}, Desc: true},
		H:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := ds.Schema.Index("Carat")
	best := 0.0
	for _, tup := range ds.Tuples {
		if tup.Ord[ci] > best {
			best = tup.Ord[ci]
		}
	}
	if got := resp.Tuples[0].Ord["Carat"]; got != best {
		t.Fatalf("top carat = %g, want %g", got, best)
	}
	// Ratio: price per carat, the derived attribute Blue Nile itself
	// ranks by (here requested by the user against any site).
	resp, err = client.Rerank(RerankRequest{
		Ranking: RankingSpec{Kind: "ratio", Attrs: []string{"Price", "Carat"}},
		H:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := ds.Schema.Index("Price")
	wantBest := math.Inf(1)
	for _, tup := range ds.Tuples {
		if r := tup.Ord[pi] / tup.Ord[ci]; r < wantBest {
			wantBest = r
		}
	}
	if math.Abs(resp.Tuples[0].Score-wantBest) > 1e-9 {
		t.Fatalf("best price-per-carat = %g, want %g", resp.Tuples[0].Score, wantBest)
	}
}

func TestRateLimitPropagates(t *testing.T) {
	client, _ := pipeline(t, 2000, 3) // absurdly small upstream budget
	_, err := client.Rerank(RerankRequest{
		Ranking: RankingSpec{Kind: "linear", Attrs: []string{"Depth", "Table"}, Weights: []float64{1, 1}},
		H:       50,
	})
	if err == nil {
		t.Fatal("expected rate-limit error, got success")
	}
}

func TestBadRequests(t *testing.T) {
	client, _ := pipeline(t, 300, 0)
	cases := []RerankRequest{
		{Ranking: RankingSpec{Kind: "nope", Attrs: []string{"Depth"}}},
		{Ranking: RankingSpec{Kind: "linear", Attrs: []string{"NoSuchAttr"}, Weights: []float64{1}}},
		{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Depth", "Table"}}},
		{Ranking: RankingSpec{Kind: "ratio", Attrs: []string{"Depth"}}},
		{Ranking: RankingSpec{Kind: "linear", Attrs: []string{"Depth"}, Weights: []float64{0}}},
		{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Clarity"}}},
		{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Depth"}}, Algorithm: "quantum"},
		{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Depth"}}, Algorithm: "ta"},
		{Ranking: RankingSpec{Kind: "single", Attrs: []string{"Depth"}}, H: 1 << 20},
	}
	for i, req := range cases {
		if req.H == 0 {
			req.H = 2
		}
		if _, err := client.Rerank(req); err == nil {
			t.Errorf("case %d: expected error, got success", i)
		}
	}

	// A handler that never answers: WithTimeout bounds the wait.
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer stalled.Close()
	defer close(release)
	start := time.Now()
	if _, err := NewClientWith(stalled.URL, WithTimeout(50*time.Millisecond)).Rerank(cases[0]); err == nil {
		t.Error("request to a stalled handler succeeded")
	} else if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("request to a stalled handler returned after %s, want about the 50ms timeout", waited)
	}
}

func TestRemoteDBRoundTrip(t *testing.T) {
	ds := dataset.YahooAutos(3, 500)
	db := ds.DB()
	upstream := httptest.NewServer(HiddenDBHandler(db))
	defer upstream.Close()
	remote, err := DialRemote(upstream.URL, upstream.Client())
	if err != nil {
		t.Fatal(err)
	}
	if remote.K() != ds.DefaultSystemK {
		t.Fatalf("remote k = %d, want %d", remote.K(), ds.DefaultSystemK)
	}
	if remote.Schema().Len() != ds.Schema.Len() {
		t.Fatalf("remote schema has %d attrs, want %d", remote.Schema().Len(), ds.Schema.Len())
	}
	// A bounded range query must round-trip with identical semantics.
	q := NewTestQuery(remote.Schema())
	local, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != local.Overflow || len(got.Tuples) != len(local.Tuples) {
		t.Fatalf("remote answer differs: got %d/%v, want %d/%v",
			len(got.Tuples), got.Overflow, len(local.Tuples), local.Overflow)
	}
	for i := range got.Tuples {
		if got.Tuples[i].ID != local.Tuples[i].ID {
			t.Fatalf("tuple %d: id %d vs %d", i, got.Tuples[i].ID, local.Tuples[i].ID)
		}
	}
}

// NewTestQuery builds a representative query with open and closed bounds
// plus a categorical filter.
func NewTestQuery(schema *types.Schema) query.Query {
	q := query.New()
	price := schema.Index("Price")
	year := schema.Index("Year")
	q = q.WithRange(price, types.Interval{Lo: 3000, Hi: 20000, LoOpen: true})
	q = q.WithRange(year, types.ClosedInterval(2000, 2012))
	q = q.WithCat("BodyStyle", "Sedan")
	return q
}

var _ = ranking.Asc
