// Benchmark harness: one testing.B benchmark per evaluation figure of the
// paper (Figures 6–17), plus ablation benches for the design choices
// DESIGN.md calls out. Each figure bench runs its experiment at reduced
// scale and reports the paper's metric — average upstream queries per user
// query — as a custom "queries/op-style" metric (wall time is NOT the
// paper's cost model).
//
//	go test -bench=. -benchmem
//
// For full-scale numbers use cmd/rerankbench -paper.
package repro_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/hidden"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/service"
	"repro/internal/types"
	"repro/internal/workload"
)

// benchConfig is a reduced configuration that keeps every figure bench
// under a few seconds.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Sizes = []int{1500, 3000}
	cfg.Samples = 1
	cfg.DOTN = 6000
	cfg.BNN = 4000
	cfg.YAN = 3000
	cfg.TopH = 30
	return cfg
}

// reportSeries attaches each series' final point as a benchmark metric.
func reportSeries(b *testing.B, fig experiments.Figure) {
	for _, s := range fig.Series {
		if len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], "avgQ/"+sanitize(s.Name))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '=' || r == ',':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func benchFigure(b *testing.B, id string) {
	runner, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	cfg := benchConfig()
	var fig experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkFig06_OneDImpactOfN_SR1(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig07_OneDImpactOfN_SR2(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig08_OneDSystemK(b *testing.B)        { benchFigure(b, "fig8") }
func BenchmarkFig09_OneDParamsSC(b *testing.B)       { benchFigure(b, "fig9") }
func BenchmarkFig10_OneDQueryOrder(b *testing.B)     { benchFigure(b, "fig10") }
func BenchmarkFig11_OneDTopHBlueNile(b *testing.B)   { benchFigure(b, "fig11") }
func BenchmarkFig12_OneDTopHYahooAutos(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13_MDImpactOfN_SR1(b *testing.B)    { benchFigure(b, "fig13") }
func BenchmarkFig14_MDImpactOfN_SR2(b *testing.B)    { benchFigure(b, "fig14") }
func BenchmarkFig15_MDSystemK(b *testing.B)          { benchFigure(b, "fig15") }
func BenchmarkFig16_MDTopHBlueNile(b *testing.B)     { benchFigure(b, "fig16") }
func BenchmarkFig17_MDTopHYahooAutos(b *testing.B)   { benchFigure(b, "fig17") }

// ablationN is the ablation workload's database size.
const ablationN = 3000

// ablationCost measures the average top-10 MD query cost over a fixed
// workload with the given engine options.
func ablationCost(b *testing.B, opts core.Options) float64 {
	b.Helper()
	full := dataset.DOT(160205100, 6000)
	ds := full.Sample(rand.New(rand.NewSource(4)), ablationN)
	items := workload.MD(rand.New(rand.NewSource(5)), ds,
		workload.Spec{Count: 16, NoFilter: 4, MinAttrs: 2, MaxAttrs: 3})
	db := ds.DBWith(10, dataset.DOTSystemRanker2())
	// Paper-faithful accounting: the fact index would otherwise absorb
	// repeated probes and distort the per-feature ablation deltas.
	opts.ProbeCacheSize = -1
	e := core.NewEngine(db, opts)
	for _, it := range items {
		cur, err := e.NewCursor(it.Q, it.R, core.Rerank)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.TopH(cur, 10); err != nil {
			b.Fatal(err)
		}
	}
	return float64(db.QueryCount()) / float64(len(items))
}

// BenchmarkAblation toggles each MD-RERANK design feature off in turn and
// reports the average query cost, quantifying every design choice's
// contribution under the anti-correlated system ranking.
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{N: ablationN}},
		{"no-history", core.Options{N: ablationN, DisableHistory: true}},
		{"no-dense-index", core.Options{N: 0}}, // N = 0 turns dense indexing off
		{"no-virtual-tuples", core.Options{N: ablationN, DisableVirtualTuples: true}},
		{"no-domination-probe", core.Options{N: ablationN, DisableDominationProbe: true}},
		{"assume-gpa", core.Options{N: ablationN, AssumeGeneralPositioning: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost = ablationCost(b, c.opts)
			}
			b.ReportMetric(cost, "avgQ")
		})
	}
}

// benchParallelRerank hammers one shared engine from GOMAXPROCS goroutines
// with a rotating mix of overlapping requests — the multi-user service
// scenario — and reports both throughput (ns/op is one full top-5 request)
// and the paper's measure, upstream queries per answered request.
func benchParallelRerank(b *testing.B, opts core.Options) {
	ds := dataset.BlueNile(9, 6000)
	db := ds.DB()
	opts.N = 6000
	e := core.NewEngine(db, opts)
	shapes := []string{"Round", "Princess", "Cushion", "Oval", "Emerald", "Pear"}
	rankers := []ranking.Ranker{
		ranking.MustLinear("depth+table", []int{dataset.BNDepth, dataset.BNTable}, []float64{1, 1}),
		ranking.NewSingle("price", dataset.BNPrice, ranking.Asc),
		ranking.NewRatio("ppc", dataset.BNPrice, dataset.BNCarat),
	}
	var next, requests atomic.Int64
	db.ResetCounter()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			q := query.New().WithCat("Shape", shapes[i%int64(len(shapes))])
			r := rankers[i%int64(len(rankers))]
			sess := e.NewSession()
			cur, err := sess.NewCursor(q, r, core.Rerank)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := core.TopH(cur, 5); err != nil {
				b.Error(err)
				return
			}
			requests.Add(1)
		}
	})
	b.StopTimer()
	if n := requests.Load(); n > 0 {
		b.ReportMetric(float64(db.QueryCount())/float64(n), "upstreamQ/req")
	}
}

// BenchmarkParallelRerank measures concurrent throughput and upstream cost
// with and without the fact index. The delta between the two
// sub-benchmarks' upstreamQ/req is what replaying known answers saves when
// overlapping users hit the service at once; in-flight dedup runs in both.
func BenchmarkParallelRerank(b *testing.B) {
	b.Run("coalesced", func(b *testing.B) {
		benchParallelRerank(b, core.Options{})
	})
	b.Run("cache-off", func(b *testing.B) {
		benchParallelRerank(b, core.Options{ProbeCacheSize: -1})
	})
}

// benchCrawlCoalesced runs concurrent complete crawls of overlapping windows
// — the dense-region crawl traffic a multi-user service generates — and
// reports throughput plus the paper's measure, upstream queries per crawl.
// Through one shared engine (shared set), identical in-flight sub-queries are
// issued once and complete sub-answers replay from the fact index; crawling
// straight against the database, every crawl pays full price.
func benchCrawlCoalesced(b *testing.B, shared bool) {
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	rng := rand.New(rand.NewSource(11))
	tuples := make([]types.Tuple, 2000)
	for i := range tuples {
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100},
		}
	}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10})
	e := core.NewEngine(db, core.Options{N: 2000})
	var next, crawls atomic.Int64
	db.ResetCounter()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			lo := float64((i % 8) * 4) // 8 windows, each overlapping its neighbors
			q := query.New().WithRange(0, types.ClosedInterval(lo, lo+6))
			var err error
			if shared {
				_, err = e.NewSession().CrawlAll(q)
			} else {
				_, err = crawl.New(db, crawl.Options{}).All(q)
			}
			if err != nil {
				b.Error(err)
				return
			}
			crawls.Add(1)
		}
	})
	b.StopTimer()
	if n := crawls.Load(); n > 0 {
		b.ReportMetric(float64(db.QueryCount())/float64(n), "upstreamQ/crawl")
	}
}

// BenchmarkCrawlCoalesced measures concurrent crawl throughput and upstream
// cost through a shared engine and, as "uncoalesced", with a plain crawler
// per crawl straight against the database. The coalesced upstreamQ/crawl
// collapsing toward zero is the win the CI bench gate pins: crawl probes
// dedup at probe granularity, not just whole-crawl leadership.
func BenchmarkCrawlCoalesced(b *testing.B) {
	b.Run("coalesced", func(b *testing.B) {
		benchCrawlCoalesced(b, true)
	})
	b.Run("uncoalesced", func(b *testing.B) {
		benchCrawlCoalesced(b, false)
	})
}

// benchHistSchema is the two-ordinal-attribute schema the history write-mix
// benchmark runs over.
func benchHistSchema() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
}

// benchHistTuple fabricates a fresh observed tuple; IDs come from an atomic
// counter so every Add inserts.
func benchHistTuple(rng *rand.Rand, id int64) types.Tuple {
	return types.Tuple{
		ID:  int(id),
		Ord: []float64{rng.Float64() * 100, rng.Float64() * 100},
	}
}

// BenchmarkHistoryWriteMix drives the history store's hot path — Add vs
// indexed MinMatching/MaxMatching — at three read/write ratios and several
// GOMAXPROCS settings. Reads never pay for writes: the store merges
// incrementally per attribute, so ns/op stays flat as the write share grows.
// (The names keep the store=sharded suffix the committed baseline is keyed
// by.)
func BenchmarkHistoryWriteMix(b *testing.B) {
	mixes := []struct {
		name    string
		readPct int
	}{
		{"read-heavy", 95},
		{"mixed", 50},
		{"write-heavy", 5},
	}
	for _, mix := range mixes {
		for _, procs := range []int{1, 4, 8} {
			name := fmt.Sprintf("mix=%s/procs=%d/store=sharded", mix.name, procs)
			b.Run(name, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := history.NewStore(benchHistSchema())
				var nextID, nextSeed atomic.Int64
				// Pre-populate so reads have something to scan from
				// the first iteration.
				seedRNG := rand.New(rand.NewSource(1))
				for i := 0; i < 5000; i++ {
					s.Add(benchHistTuple(seedRNG, nextID.Add(1)))
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(nextSeed.Add(1)))
					for pb.Next() {
						if rng.Intn(100) < mix.readPct {
							attr := rng.Intn(2)
							lo := rng.Float64() * 90
							iv := types.ClosedInterval(lo, lo+10)
							q := query.New().WithRange(1-attr, types.ClosedInterval(0, 75))
							if rng.Intn(2) == 0 {
								s.MinMatching(q, attr, iv)
							} else {
								s.MaxMatching(q, attr, iv)
							}
						} else {
							s.Add(benchHistTuple(rng, nextID.Add(1)))
						}
					}
				})
			})
		}
	}
}

// latencyDB wraps an upstream with a fixed per-probe delay, modelling the
// round-trip to a remote search endpoint — the deployment rerankd actually
// targets, and the regime the speculative parallel MD search exists for:
// sequential search serializes these delays, speculation overlaps them.
type latencyDB struct {
	hidden.Database
	delay time.Duration
}

func (l latencyDB) TopK(q query.Query) (hidden.Result, error) {
	time.Sleep(l.delay)
	return l.Database.TopK(q)
}

// benchMDParallel runs full MD-RERANK requests over overlapping windows
// against a latency-wrapped upstream at the given GOMAXPROCS and speculative
// width. Each iteration uses a fresh engine, so every request pays its
// probes cold and ns/op measures the search itself, not cache warmth.
func benchMDParallel(b *testing.B, procs, width int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	rng := rand.New(rand.NewSource(7))
	tuples := make([]types.Tuple, 1500)
	for i := range tuples {
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100},
		}
	}
	// Anti-correlated system ranking keeps the branch-and-bound honest.
	sys := hidden.FuncRanker{Label: "anti", F: func(t types.Tuple) float64 {
		return -(t.Ord[0] + t.Ord[1])
	}}
	base := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})
	db := latencyDB{Database: base, delay: 300 * time.Microsecond}
	rank := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdWindows(b, db, rank, width, i)
	}
	b.StopTimer()
	// The cost metrics come from one untimed pass over all 12 window
	// offsets (three fresh engines × 4 requests), so they do not move with
	// b.N.
	const requests = 12
	var upstream, specIssued, specWasted int64
	for i := 0; i < requests/4; i++ {
		st := mdWindows(b, db, rank, width, i)
		upstream += st.EngineQueries
		specIssued += st.SpecProbesIssued
		specWasted += st.SpecProbesWasted
	}
	b.ReportMetric(float64(upstream)/float64(requests), "upstreamQ/req")
	b.ReportMetric(float64(specIssued)/float64(requests), "specQ/req")
	if upstream > 0 {
		b.ReportMetric(float64(specWasted)/float64(upstream), "wastedFrac")
	}
}

// mdWindows runs iteration i's 4 requests on a fresh engine and returns its
// stats. Overlapping windows: neighbors share half their range, the
// multi-user pattern the probe path sees in production; iterations i and
// i+3 use the same offsets.
func mdWindows(b *testing.B, db hidden.Database, rank ranking.Ranker, width, i int) core.Stats {
	e := core.NewEngine(db, core.Options{N: 1500, SearchParallelism: width})
	for r := 0; r < 4; r++ {
		lo := float64(((i*4 + r) % 12) * 8)
		q := query.New().WithRange(0, types.ClosedInterval(lo, lo+16))
		cur := e.NewSession().NewMDCursor(q, rank, core.Rerank)
		if _, err := core.TopH(cur, 8); err != nil {
			b.Fatal(err)
		}
	}
	return e.Stats()
}

// BenchmarkMDParallel prices the speculative search on the overlapping-window
// workload. The upstream carries a 300µs per-probe latency — the
// remote-upstream regime the parallel search targets; sequential search
// serializes those round-trips, region rounds and the tightening ladder
// overlap up to W of them. On a 2-CPU machine, width=8 takes 48–70 ms per
// 4-request iteration against 111–122 ms at width=1. Over the 12 window
// offsets it spends 17.50 upstream queries per request against 21.42, with
// wastedFrac 0.024. The emitted sequence is width-independent (asserted by
// TestMDParallelEquivalence).
func BenchmarkMDParallel(b *testing.B) {
	for _, procs := range []int{1, 4, 8} {
		for _, width := range []int{1, 8} {
			b.Run(fmt.Sprintf("procs=%d/width=%d", procs, width), func(b *testing.B) {
				benchMDParallel(b, procs, width)
			})
		}
	}
}

// BenchmarkGetNextLatency measures the computational overhead (not query
// cost) of one Get-Next call on a warm MD-RERANK cursor — the service-side
// CPU price per increment.
func BenchmarkGetNextLatency(b *testing.B) {
	ds := dataset.BlueNile(3, 20000)
	db := ds.DB()
	rank := ranking.MustLinear("depth+table",
		[]int{dataset.BNDepth, dataset.BNTable}, []float64{1, 1})
	e := core.NewEngine(db, core.Options{N: 20000})
	cur, err := e.NewCursor(query.New(), rank, core.Rerank)
	if err != nil {
		b.Fatal(err)
	}
	db.ResetCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cur.Next(); err != nil || !ok {
			b.StopTimer()
			// Cursor drained: restart on a fresh engine.
			e = core.NewEngine(db, core.Options{N: 20000})
			cur, _ = e.NewCursor(query.New(), rank, core.Rerank)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(db.QueryCount())/float64(b.N), "upstreamQ/op")
}

// benchAcquirer wires an acquirer straight to an engine the way the service
// tier does, but with the idle, pressure and admission gates held open: the
// benchmark drives Tick synchronously inside explicit idle gaps, so gating
// is the scenario, not the subject.
func benchAcquirer(b *testing.B, e *core.Engine) *acquire.Acquirer {
	b.Helper()
	iv := func(w acquire.Window) types.Interval { return types.ClosedInterval(w.Lo, w.Hi) }
	return acquire.New(acquire.Config{WindowsPerTick: 4, WarmDepth: 12}, acquire.Hooks{
		Candidates: func(max int) []acquire.Candidate { return e.Heat().Candidates(max) },
		Warm:       func(w acquire.Window) bool { return e.WindowWarm(w.Attr, iv(w)) },
		IdleSince:  func() time.Duration { return time.Hour },
		Pressure:   func() bool { return false },
		Admit:      func() (func(), bool) { return func() {}, true },
		Acquire: func(w acquire.Window, depth int, abort func() bool) (int64, bool, error) {
			sess := e.NewSession()
			sess.SetAbort(abort)
			err := sess.WarmWindow(w.Attr, iv(w), depth)
			return sess.Queries(), false, err
		},
	})
}

// benchAcquire models the cold-traffic scenario background acquisition
// exists for: a Zipf-skewed user burst heats a handful of windows
// (ascending order), the service goes idle, then traffic returns asking for
// the opposite order — a probe stream no user request has cached. Each
// iteration runs on a fresh engine against a 250µs-per-probe upstream:
// burst, idle gap (with the acquirer ticking through it or not), then the
// cold phase, whose per-op latency and upstream cost are the reported
// p95-cold-ms and upstreamQ/op. With the acquirer on, the idle gap warms
// the hot windows in both directions, so the cold phase replays from
// knowledge instead of paying upstream round-trips.
func benchAcquire(b *testing.B, on bool) {
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	rng := rand.New(rand.NewSource(21))
	tuples := make([]types.Tuple, 1800)
	for i := range tuples {
		tuples[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100},
		}
	}
	base := hidden.MustDB(schema, tuples, hidden.Options{K: 10})
	db := latencyDB{Database: base, delay: 250 * time.Microsecond}

	// A discrete window universe over A0; popularity is Zipfian, so a few
	// windows carry most of the traffic — the regime where warming the head
	// of the distribution pays for the whole tail.
	windows := make([]types.Interval, 12)
	for i := range windows {
		lo := float64(i * 8)
		windows[i] = types.ClosedInterval(lo, lo+8)
	}
	asc := ranking.NewSingle("A0", 0, ranking.Asc)
	desc := ranking.NewSingle("A0", 0, ranking.Desc)

	var coldLats []float64
	var coldOps, coldUpstream int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(db, core.Options{N: 1800})
		zrng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(zrng, 1.3, 1, uint64(len(windows)-1))

		// Burst phase: Zipf-sampled hot windows, ascending order.
		for j := 0; j < 24; j++ {
			q := query.New().WithRange(0, windows[zipf.Uint64()])
			e.RecordHeat(q)
			sess := e.NewSession()
			cur, err := sess.NewCursor(q, asc, core.Rerank)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TopH(cur, 3); err != nil {
				b.Fatal(err)
			}
		}

		// Idle gap: with acquisition on, the acquirer spends it warming the
		// hottest windows; off, the gap is free but the knowledge stays as
		// the burst left it.
		if on {
			acq := benchAcquirer(b, e)
			for t := 0; t < 3; t++ {
				acq.Tick()
			}
			if st := acq.Stats(); st.WindowsAcquired == 0 {
				b.Fatalf("idle gap acquired nothing: %+v", st)
			}
		}

		// Cold phase: the same Zipf populations, opposite order — probe
		// streams no burst request cached.
		for j := 0; j < 24; j++ {
			q := query.New().WithRange(0, windows[zipf.Uint64()])
			sess := e.NewSession()
			begin := time.Now()
			cur, err := sess.NewCursor(q, desc, core.Rerank)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TopH(cur, 3); err != nil {
				b.Fatal(err)
			}
			coldLats = append(coldLats, float64(time.Since(begin))/float64(time.Millisecond))
			coldUpstream += sess.Queries()
			coldOps++
		}
	}
	b.StopTimer()
	if coldOps > 0 {
		sort.Float64s(coldLats)
		b.ReportMetric(coldLats[int(0.95*float64(len(coldLats)-1))], "p95-cold-ms")
		b.ReportMetric(float64(coldUpstream)/float64(coldOps), "upstreamQ/op")
	}
}

// BenchmarkAcquire pins the proactive-acquisition win on cold traffic:
// /on's p95-cold-ms and upstreamQ/op must collapse versus /off (the
// acceptance floor is a ≥30% p95 reduction; in practice the cold phase
// replays almost entirely from acquired knowledge). ns/op is gated by
// bench/baseline/acquire.json in CI.
func BenchmarkAcquire(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchAcquire(b, false) })
	b.Run("on", func(b *testing.B) { benchAcquire(b, true) })
}

// BenchmarkServiceThroughput drives the full serving stack — HTTP handler,
// admission gate, JSON wire codecs, engine sessions — with concurrent
// clients issuing the production mix (single 1D and MD reranks, 4-item
// batches through the shared probe path, NDJSON streams drained to the final
// event) against one in-process server. ns/op is the end-to-end price of
// one mixed operation at GOMAXPROCS parallelism; upstreamQ/op reports the
// paper's cost measure for the same traffic. This is the benchdiff-gated
// guardrail for the serving tier: admission bookkeeping, budget ledgers, or
// wire-format changes that tax the hot path show up here.
func BenchmarkServiceThroughput(b *testing.B) {
	ds := dataset.BlueNile(13, 4000)
	db, err := hidden.NewDB(ds.Schema, ds.Tuples, hidden.Options{
		K: ds.DefaultSystemK, Ranker: ds.DefaultRanker,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := service.NewServerWithOptions(db, service.Options{
		Core:        core.Options{N: 4000},
		MaxSessions: 4 * runtime.GOMAXPROCS(0),
	})
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	window := func(i int64) (float64, float64) {
		lo := 2000 + float64(i%6)*1000 // six overlapping price bands
		return lo, lo + 1500
	}
	oneD := func(i int64) service.RerankRequest {
		lo, hi := window(i)
		return service.RerankRequest{
			Ranges:  []service.RangeSpec{{Attr: "Price", Min: &lo, Max: &hi}},
			Ranking: service.RankingSpec{Kind: "single", Attrs: []string{"Price"}},
			H:       5,
		}
	}
	md := func(i int64) service.RerankRequest {
		lo, hi := window(i)
		return service.RerankRequest{
			Ranges: []service.RangeSpec{{Attr: "Price", Min: &lo, Max: &hi}},
			Ranking: service.RankingSpec{Kind: "linear",
				Attrs: []string{"Price", "Carat"}, Weights: []float64{1, 1}},
			H: 5,
		}
	}

	var next, ops atomic.Int64
	db.ResetCounter()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := service.NewClientWith(api.URL, service.WithHTTPClient(api.Client()))
		for pb.Next() {
			i := next.Add(1)
			var err error
			switch i % 4 {
			case 0:
				_, err = client.Rerank(oneD(i))
			case 1:
				_, err = client.Rerank(md(i))
			case 2:
				_, err = client.RerankBatch(service.BatchRequest{Requests: []service.RerankRequest{
					oneD(i), md(i), oneD(i + 1), md(i + 1),
				}})
			default:
				_, err = client.RerankStream(md(i), nil)
			}
			if err != nil {
				b.Error(err)
				return
			}
			ops.Add(1)
		}
	})
	b.StopTimer()
	if n := ops.Load(); n > 0 {
		b.ReportMetric(float64(db.QueryCount())/float64(n), "upstreamQ/op")
	}
}

// BenchmarkEpochRevalidate prices the living-upstreams epoch machinery on
// the serving hot path. fresh: touching cached knowledge at the current
// epoch (the overwhelmingly common case — must stay free: 0 upstream
// queries, pure cache reads). stale: the same touches right after an epoch
// bump, where every entry spends its one confirming probe and is promoted.
// upstreamQ/op reports the paper's cost measure; the benchdiff gate guards
// the fresh path's ns/op against regressions.
func BenchmarkEpochRevalidate(b *testing.B) {
	const nTuples, k, nProbes = 5000, 10, 64
	rng := rand.New(rand.NewSource(7))
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	tuples := make([]types.Tuple, nTuples)
	for i := range tuples {
		tuples[i] = types.Tuple{ID: i, Ord: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: k})

	// Narrow windows over A0, each holding fewer than k tuples so one probe
	// answers it completely (cacheable, hence promotable).
	width := 100.0 / nTuples * float64(k) / 4
	queries := make([]query.Query, nProbes)
	for i := range queries {
		lo := rng.Float64() * (100 - width)
		queries[i] = query.New().WithRange(0, types.ClosedInterval(lo, lo+width))
	}
	newWarmEngine := func(b *testing.B) *core.Engine {
		b.Helper()
		eng := core.NewEngine(db, core.Options{N: nTuples, ProbeCacheSize: 4 * nProbes})
		sess := eng.NewSession()
		for _, q := range queries {
			if _, err := sess.CrawlAll(q); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}
	touchAll := func(b *testing.B, eng *core.Engine) {
		b.Helper()
		sess := eng.NewSession()
		for _, q := range queries {
			if _, err := sess.CrawlAll(q); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("fresh", func(b *testing.B) {
		eng := newWarmEngine(b)
		before := eng.Queries()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			touchAll(b, eng)
		}
		b.StopTimer()
		spent := eng.Queries() - before
		if spent != 0 {
			b.Fatalf("fresh touches spent %d upstream queries, want 0", spent)
		}
		b.ReportMetric(0, "upstreamQ/op")
	})
	b.Run("stale", func(b *testing.B) {
		eng := newWarmEngine(b)
		before := eng.Queries()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.BumpEpoch()
			touchAll(b, eng)
		}
		b.StopTimer()
		spent := eng.Queries() - before
		if want := int64(b.N) * nProbes; spent != want {
			b.Fatalf("stale touches spent %d upstream queries, want exactly %d (1 per entry per bump)", spent, want)
		}
		b.ReportMetric(float64(spent)/float64(b.N), "upstreamQ/op")
	})
}
