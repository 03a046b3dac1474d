package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// The tail percentile is reported only while at least ten samples lie
// beyond it; with fewer it falls down the ladder.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		wantRung float64
	}{
		{200, 95}, // exactly 10 beyond p95
		{199, 90}, // 9 beyond p95 (rank 190), 19 beyond p90
		{100, 90}, // 5 beyond p95, 10 beyond p90
		{99, 75},  // 9 beyond p90 (rank 90)
		{40, 75},  // 10 beyond p75
		{39, 50},  // 9 beyond p75
		{5, 50},   // nothing qualifies: the median
	} {
		rung, val := tailPercentile(series(c.n), 95)
		if rung != c.wantRung {
			t.Errorf("n=%d: rung p%v, want p%v", c.n, rung, c.wantRung)
		}
		if want := percentile(series(c.n), rung); val != want {
			t.Errorf("n=%d: value %v, want %v", c.n, val, want)
		}
		if rung > 50 && samplesBeyond(c.n, rung) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, rung, samplesBeyond(c.n, rung))
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the benchmark driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// A layer's self time is its span minus the part its children cover; the
// children may overlap each other and stick out of the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 35, End: 38}}, 50},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped to parent", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"covering", []span{{Start: -5, End: 200}}, 0},
	} {
		spans := []span{{Name: "client.op", Start: 0, End: 100}}
		for _, ch := range c.children {
			ch.Name = "service.handle"
			spans = append(spans, ch)
		}
		lt := aggregateLayers(spans)
		if got := lt.self[layerIndex("client.op")]; got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
		if sum := lt.self[0] + lt.self[1]; sum != 100 {
			t.Errorf("%s: self times sum to %d, want the parent's 100", c.name, sum)
		}
	}
}

// Two speculative probes overlap inside one handler; a third follows. The
// per-layer self times must add up to the client total, probe rounds count
// overlapping groups, and a handler tail outliving its client is stray.
func TestAggregateLayers(t *testing.T) {
	spans := []span{
		{Name: "client.op", Op: 0, Start: 0, End: 100},
		{Name: "service.handle", Op: 0, Start: 10, End: 110}, // outlives the client by 10
		{Name: "guard.topk", Op: 0, Start: 20, End: 50},
		{Name: "guard.topk", Op: 0, Start: 30, End: 60},
		{Name: "guard.topk", Op: 0, Start: 70, End: 80},
		{Name: "remote.topk", Op: 0, Start: 21, End: 49},
		{Name: "remote.topk", Op: 0, Start: 31, End: 59},
		{Name: "remote.topk", Op: 0, Start: 71, End: 79},
		{Name: "hidden.serve", Op: 0, Start: 25, End: 45},
		{Name: "hidden.serve", Op: 0, Start: 35, End: 55},
		{Name: "hidden.serve", Op: 0, Start: 73, End: 77},
	}
	for i := range spans {
		spans[i].ID = i
		spans[i].Parent = -1
	}
	lt := aggregateLayers(spans)
	want := [5]int64{
		10,                // client: 100 − handler's 90 inside it
		90 - 50,           // handler on the client's path, minus guard union [20,60]+[70,80]
		50 - (38 + 8),     // guard minus remote union [21,59]+[71,79]
		(38 + 8) - 30 - 4, // remote minus hidden union [25,55]+[73,77]
		30 + 4,            // hidden
	}
	if lt.self != want {
		t.Errorf("self = %v, want %v", lt.self, want)
	}
	var sum int64
	for _, s := range lt.self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the client total 100", sum)
	}
	if lt.stray != 10 {
		t.Errorf("stray = %d, want 10", lt.stray)
	}
	if lt.rounds != 2 {
		t.Errorf("rounds = %d, want 2", lt.rounds)
	}
	if n := lt.count[layerIndex("guard.topk")]; n != 3 {
		t.Errorf("%d guard spans, want 3", n)
	}

	linkParents(spans)
	if spans[1].Parent != 0 {
		t.Errorf("handler parent = %d, want the client op", spans[1].Parent)
	}
	// The second guard span's probe began inside both overlapping guard
	// spans; the latest starter wins.
	if spans[6].Parent != 3 {
		t.Errorf("remote span 6 parent = %d, want guard span 3", spans[6].Parent)
	}
	if spans[10].Parent != 7 {
		t.Errorf("hidden span 10 parent = %d, want remote span 7", spans[10].Parent)
	}
}

func TestQuota(t *testing.T) {
	got := quota([]float64{4, 3, 2, 1}, 10)
	if !reflect.DeepEqual(got, []int{4, 3, 2, 1}) {
		t.Errorf("quota exact = %v", got)
	}
	got = quota([]float64{1, 1, 1}, 10)
	if got[0]+got[1]+got[2] != 10 || got[0] < 3 || got[0] > 4 {
		t.Errorf("quota thirds = %v", got)
	}
}

// The sequence is a function of (workload, seed) alone: generated twice it
// is identical, and consumed by one or by two clients it is issued in the
// same order.
func TestGeneratorDeterminism(t *testing.T) {
	schema := dataset.BlueNileSchema()
	for _, sp := range specs {
		a := generate(sp, schema, 7, saltMeasured, 500)
		b := generate(sp, schema, 7, saltMeasured, 500)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: same seed, different sequences", sp.name)
		}
		c := generate(sp, schema, 8, saltMeasured, 500)
		if jc, _ := json.Marshal(c); bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", sp.name)
		}
		w := generate(sp, schema, 7, saltWarmup, 500)
		if jw, _ := json.Marshal(w); bytes.Equal(ja, jw) {
			t.Errorf("%s: warm-up sequence equals the measured one", sp.name)
		}
		// The make-up does not depend on the seed: same kinds, same windows.
		if ka, kc := kindCounts(a), kindCounts(c); !reflect.DeepEqual(ka, kc) {
			t.Errorf("%s: kind counts differ between seeds: %v vs %v", sp.name, ka, kc)
		}
		if wa, wc := windowCounts(a), windowCounts(c); !reflect.DeepEqual(wa, wc) {
			t.Errorf("%s: window counts differ between seeds", sp.name)
		}
		for _, o := range a {
			want := 1
			if o.Kind == opBatch {
				want = sp.batchSize
			}
			if len(o.Reqs) != want {
				t.Fatalf("%s: %s op with %d requests", sp.name, o.Kind, len(o.Reqs))
			}
			for _, r := range o.Reqs {
				if r.H < 1 || r.H > sp.maxH {
					t.Fatalf("%s: h=%d outside [1,%d]", sp.name, r.H, sp.maxH)
				}
			}
		}
	}
}

func kindCounts(ops []op) map[opKind]int {
	m := map[opKind]int{}
	for _, o := range ops {
		m[o.Kind]++
	}
	return m
}

func windowCounts(ops []op) map[string]int {
	m := map[string]int{}
	for _, o := range ops {
		for _, r := range o.Reqs {
			m[requestKey(service.RerankRequest{Ranges: r.Ranges, Ranking: service.RankingSpec{Kind: r.Ranking.Kind}})]++
		}
	}
	return m
}

// Clients only interleave execution: whatever their number, every index is
// taken exactly once, each worker sees its indexes in increasing order, and
// a single worker sees the sequence itself.
func TestDispatchIndependentOfWorkerCount(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 5} {
		perWorker := make([][]int, workers)
		dispatch(n, workers, func(w, i int) { perWorker[w] = append(perWorker[w], i) })
		seen := make([]int, n)
		for w, idx := range perWorker {
			for k, i := range idx {
				seen[i]++
				if k > 0 && idx[k-1] >= i {
					t.Fatalf("%d workers: worker %d took %d after %d", workers, w, i, idx[k-1])
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%d workers: index %d taken %d times", workers, i, c)
			}
		}
		if workers == 1 && !sort.IntsAreSorted(perWorker[0]) {
			t.Fatal("one worker: sequence out of order")
		}
	}
}

func TestArrivalSchedule(t *testing.T) {
	due := arrivals(5, 200, 800)
	if len(due) != 800 {
		t.Fatalf("%d arrivals", len(due))
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d before %d", i, i-1)
		}
	}
	if last, want := due[len(due)-1], 4*time.Second; last < want-time.Microsecond || last > want+time.Microsecond {
		t.Errorf("last arrival at %v, want %v", last, want)
	}
	if !reflect.DeepEqual(due, arrivals(5, 200, 800)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(due, arrivals(6, 200, 800)) {
		t.Error("seeds 5 and 6 give the same schedule")
	}
}

// Latency counts from the due time, and the backlog is what is already due
// but unsent.
func TestDueTimeAccounting(t *testing.T) {
	due := []time.Duration{0, 10, 20, 30, 40, 1000}
	for _, c := range []struct {
		i    int
		now  time.Duration
		want int
	}{
		{0, 0, 0},    // nothing else due yet
		{0, 25, 2},   // ops 1 and 2 are due and unsent
		{2, 45, 2},   // ops 3 and 4
		{4, 45, 0},   // op 5 is far in the future
		{5, 2000, 0}, // last op
	} {
		if got := dueBacklog(due, c.i, c.now); got != c.want {
			t.Errorf("dueBacklog(i=%d, now=%d) = %d, want %d", c.i, c.now, got, c.want)
		}
	}

	steady := make([]opResult, 400)
	if backlogGrew(steady) {
		t.Error("an on-time run reported a growing backlog")
	}
	burst := make([]opResult, 400)
	for i := 100; i < 120; i++ {
		burst[i].late = 80 * time.Millisecond
	}
	if backlogGrew(burst) {
		t.Error("a drained burst reported a growing backlog")
	}
	falling := make([]opResult, 400)
	for i := 200; i < 400; i++ {
		falling[i].late = time.Duration(i-200) * time.Millisecond
	}
	if !backlogGrew(falling) {
		t.Error("steadily climbing lateness not reported")
	}
}

// rankScan must answer byte for byte what the hiddendb handler answers.
func TestRankScanMatchesHiddenDBHandler(t *testing.T) {
	ds := dataset.BlueNile(corpusSeed, 2000)
	db := ds.DB()
	handler := service.HiddenDBHandler(db)
	scan := newRankScan(db)
	f := func(v float64) *float64 { return &v }
	for i, req := range []service.SearchRequest{
		{}, // everything: overflow
		{Ranges: []service.RangeSpec{{Attr: "Carat", Min: f(0.23), Max: f(0.4)}}},
		{Ranges: []service.RangeSpec{{Attr: "Carat", Min: f(0.3), Max: f(0.3001)}}},              // few or none
		{Ranges: []service.RangeSpec{{Attr: "Price", Min: f(1e9)}}},                              // underflow
		{Ranges: []service.RangeSpec{{Attr: "Depth", Min: f(0.58), Max: f(0.6), MinOpen: true}}}, // open bound
		{Ranges: []service.RangeSpec{{Attr: "Carat", Max: f(1)}, {Attr: "Table", Min: f(1.4), MaxOpen: true, Max: f(1.45)}}},
	} {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		got, overflow, ok := scan.search(req)
		if !ok {
			t.Fatalf("query %d: rankScan declined", i)
		}
		if !bytes.Equal(got, rec.Body.Bytes()) {
			t.Errorf("query %d: rankScan answered\n%.200s\nhandler answered\n%.200s", i, got, rec.Body.Bytes())
		}
		if overflow != bytes.Contains(rec.Body.Bytes(), []byte(`"overflow":true`)) {
			t.Errorf("query %d: overflow flag %v disagrees with the handler", i, overflow)
		}
	}
	if _, _, ok := scan.search(service.SearchRequest{Filters: map[string]string{"Cut": "Ideal"}}); ok {
		t.Error("rankScan accepted a categorical filter")
	}
}

// The stub counts every search, answers repeats from the memo whatever the
// order of the ranges, and a fresh stub starts from zero.
func TestStubCountsAndMemoises(t *testing.T) {
	ds := dataset.BlueNile(corpusSeed, 500)
	st := newStub(ds.DB(), 0, nil)
	post := func(body string) string {
		rec := httptest.NewRecorder()
		st.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for %s", rec.Code, body)
		}
		return rec.Body.String()
	}
	a := post(`{"ranges":[{"attr":"Carat","max":1},{"attr":"Depth","min":0.5}]}`)
	b := post(`{"ranges":[{"attr":"Depth","min":0.5},{"attr":"Carat","max":1}]}`)
	post(`{"ranges":[{"attr":"Carat","max":2}]}`)
	if a != b {
		t.Error("the same probe in another range order got another answer")
	}
	c := st.counts()
	if c.queries != 3 || c.memoHits != 1 {
		t.Errorf("queries %d, memo hits %d; want 3 and 1", c.queries, c.memoHits)
	}
	if c.respBytes == 0 {
		t.Error("no answer bytes counted")
	}
	rec := httptest.NewRecorder()
	st.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schema", nil))
	if rec.Code != http.StatusOK || st.counts().queries != 3 {
		t.Error("a schema fetch must pass through uncounted")
	}
	if fresh := newStub(ds.DB(), 0, nil).counts(); fresh != (stubCounts{}) {
		t.Errorf("fresh stub counts %+v", fresh)
	}
}

func TestOracle(t *testing.T) {
	ds := dataset.BlueNile(corpusSeed, 300)
	ora := newOracle(ds.Schema, ds.Tuples)
	lo, hi := 0.23, 5.0
	req := service.RerankRequest{
		H:       3,
		Ranges:  []service.RangeSpec{{Attr: "Carat", Min: &lo, Max: &hi}},
		Ranking: service.RankingSpec{Kind: "single", Attrs: []string{"Price"}, Desc: true},
	}
	all, err := ora.sortedScores(req)
	if err != nil || len(all) < 3 {
		t.Fatalf("sortedScores: %v, %d matches", err, len(all))
	}
	good := answer{scores: append([]float64(nil), all[:3]...)}
	if err := ora.check(req, good); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	bad := answer{scores: []float64{all[0], all[2], all[3]}}
	if ora.check(req, bad) == nil {
		t.Error("a skipped tuple was accepted")
	}
	if ora.check(req, answer{scores: good.scores, exhausted: true}) == nil {
		t.Error("a wrong exhausted flag was accepted")
	}
	if ora.check(req, answer{scores: all[:2]}) == nil {
		t.Error("a short answer was accepted")
	}
	req.H = len(all) + 5
	if err := ora.check(req, answer{scores: all, exhausted: true}); err != nil {
		t.Errorf("exhausted answer rejected: %v", err)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{"lat_p50_ms", "ms", "lower", 0.25}
	ops := metricDef{"ops_per_s", "1/s", "higher", 0.25}
	steady := []float64{100, 101, 99, 100, 102}
	if _, _, _, v := judge(lat, steady, []float64{110, 111, 109, 110, 112}); v != verdictOK {
		t.Errorf("+10%% within a 25%% bound: %s", v)
	}
	if _, _, _, v := judge(lat, steady, []float64{140, 141, 139, 140, 142}); v != verdictBreach {
		t.Errorf("+40%% latency: %s", v)
	}
	if _, _, _, v := judge(lat, steady, []float64{60, 61, 59, 60, 62}); v != verdictOK {
		t.Errorf("a faster B: %s", v)
	}
	if worse, _, _, v := judge(ops, steady, []float64{60, 61, 59, 60, 62}); v != verdictBreach || worse < 0.39 {
		t.Errorf("-40%% throughput: %s (worse %.2f)", v, worse)
	}
	noisy := []float64{60, 100, 140, 80, 120}
	if _, _, _, v := judge(lat, steady, noisy); v != verdictUnresolved {
		t.Errorf("a spread wider than the bound: %s", v)
	}
}

// BENCHMARK.json and the metric tables must name the same metrics with the
// same units, directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the repository: %v", err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the spec", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v differs from %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, m := range bj.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v differs from %+v", i, m, d)
		}
	}
}
