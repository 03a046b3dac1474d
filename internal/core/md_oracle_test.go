// The MD oracle test, the twin of oned_oracle_test.go: every MD answer — all
// three variants, every search width, coalescing on and off, across an epoch
// bump and across drift — equals a brute-force ranker's tuple for tuple, and
// the ledgers equal what the upstream saw.

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// mdWorld is one corpus of the oracle test with the user windows and linear
// rankers its cursors run.
type mdWorld struct {
	name    string
	tuples  []types.Tuple
	open    func(tuples []types.Tuple) *hidden.DB
	windows []query.Query
	rankers []ranking.Ranker
}

func mdWorlds() []mdWorld {
	bn := dataset.BlueNile(83, 2500)
	dot := dataset.DOT(84, 3000)
	// A 12 × 12 grid on the ranked attributes: every point is a tie group of
	// about ten tuples under a page of twenty, so pages, tie groups and the
	// page limit keep running into one another.
	schema := testSchema(3)
	grid := genTuples(rand.New(rand.NewSource(85)), schema, 1500, true)
	return []mdWorld{{
		name: "bluenile", tuples: bn.Tuples,
		open: func(ts []types.Tuple) *hidden.DB {
			return hidden.MustDB(bn.Schema, ts, hidden.Options{K: bn.DefaultSystemK, Ranker: bn.DefaultRanker})
		},
		windows: []query.Query{
			query.New().WithCat("Shape", "Round"),
			query.New().WithRange(dataset.BNCarat, types.ClosedInterval(0.5, 2)).WithCat("Cut", "Ideal"),
			query.New().WithRange(dataset.BNPrice, types.ClosedInterval(1000, 9000)),
		},
		rankers: []ranking.Ranker{
			ranking.MustLinear("price-carat", []int{dataset.BNPrice, dataset.BNCarat}, []float64{1, -3000}),
			ranking.MustLinear("three", []int{dataset.BNCarat, dataset.BNDepth, dataset.BNPrice}, []float64{-2000, 30, 1}),
		},
	}, {
		// Integer minutes: duplicate-heavy on every ranked attribute.
		name: "dot", tuples: dot.Tuples,
		open: func(ts []types.Tuple) *hidden.DB {
			return hidden.MustDB(dot.Schema, ts, hidden.Options{K: 10, Ranker: dataset.DOTSystemRanker2()})
		},
		windows: []query.Query{
			query.New().WithCat("Carrier", "AA"),
			query.New().WithRange(dataset.DOTTaxiIn, types.ClosedInterval(3, 30)).WithCat("Origin", "SEA"),
			query.New().WithRange(dataset.DOTDistance, types.ClosedInterval(300, 1500)),
		},
		rankers: []ranking.Ranker{
			ranking.MustLinear("taxi", []int{dataset.DOTTaxiOut, dataset.DOTTaxiIn}, []float64{1, 2}),
			ranking.MustLinear("delay", []int{dataset.DOTDepDelay, dataset.DOTTaxiOut, dataset.DOTAirTime}, []float64{1, 1, 0.5}),
		},
	}, {
		name: "grid-ties", tuples: grid,
		open: func(ts []types.Tuple) *hidden.DB {
			sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
			return hidden.MustDB(schema, ts, hidden.Options{K: 20, Ranker: sys})
		},
		windows: []query.Query{
			query.New(),
			query.New().WithCat("cat", "y"),
			query.New().WithRange(1, types.ClosedInterval(10, 80)).WithCat("cat", "z"),
		},
		rankers: []ranking.Ranker{
			ranking.MustLinear("grid", []int{0, 1}, []float64{1, 2}),
			ranking.MustLinear("grid3", []int{0, 1, 2}, []float64{1, 1, 0.01}),
		},
	}}
}

// TestMDOracle runs windows × rankers × h ∈ {1, 5, 25} through one engine per
// (corpus, variant, width, coalescing mode), so later cursors search from the
// history and facts earlier ones left. Half way it makes
// TestOneDOracleAcrossDrift's move: per window and ranker it moves the
// oracle's top tuple to the far end of its first ranked attribute behind the
// engine's back, then bumps the epoch. What was learned before is a hint
// afterwards — history still offers each old version as the best candidate —
// and only what the upstream holds now may be emitted.
func TestMDOracle(t *testing.T) {
	for _, w := range mdWorlds() {
		for _, v := range []Variant{Baseline, Binary, Rerank} {
			for _, width := range []int{1, 4, 8} {
				for _, coalesce := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/%v/W=%d/coalescing=%v", w.name, v, width, coalesce), func(t *testing.T) {
						t.Parallel()
						corpus := deepCopyTuples(w.tuples)
						db := w.open(corpus)
						e := NewEngine(strictDB{db, t}, Options{N: len(corpus), SearchParallelism: width, ProbeCacheSize: probeCache(coalesce)})
						var ledgers int64
						ask := func(q query.Query, r ranking.Ranker, h int) {
							t.Helper()
							s := e.NewSession()
							got, err := TopH(s.NewMDCursor(q, r, v), h)
							if err != nil {
								t.Fatal(err)
							}
							ledgers += s.Queries()
							full := oracleTopH(corpus, q, r, len(corpus))
							assertSameRanking(t, r, got, full[:min(h, len(full))], full)
							for _, tp := range got {
								if !corpus[tp.ID].Equal(tp) {
									t.Fatalf("%s by %s: emitted %v, the corpus holds %v", q, r.Name(), tp, corpus[tp.ID])
								}
							}
						}
						for i, h := range []int{1, 25, 5, 25} {
							if i == 2 {
								// History holds every window's head: drift each
								// window's top tuple behind the engine's back.
								for _, q := range w.windows {
									for _, r := range w.rankers {
										top := oracleTopH(corpus, q, r, 1)[0]
										a := r.Attrs()[0]
										d := db.Schema().Domain(a)
										to := d.Max
										if ranking.ScoreTuple(r, withOrd(top, a, d.Min)) > ranking.ScoreTuple(r, withOrd(top, a, d.Max)) {
											to = d.Min
										}
										if !db.SetOrd(top.ID, a, to) {
											t.Fatal("SetOrd refused")
										}
										corpus[top.ID].Ord[a] = to
									}
								}
								e.BumpEpoch()
							}
							for _, q := range w.windows {
								for _, r := range w.rankers {
									ask(q, r, h)
								}
							}
						}
						st := e.Stats()
						complete, overflow := st.MDCertifiedComplete, st.MDCertifiedOverflow
						if v != Rerank && complete+overflow+st.CoverHits != 0 {
							t.Fatalf("%v certified (%d complete, %d overflowing) or read a page (%d hits)", v, complete, overflow, st.CoverHits)
						}
						// A page of ten certifies at depth 1, the candidate's own contour.
						if v == Rerank && (st.CoverHits == 0 || (certDepth(db.K()) > 1 && complete == 0)) {
							t.Fatalf("%d complete certifications, %d cover hits; the test exercised nothing", complete, st.CoverHits)
						}
						if ledgers != db.QueryCount() || e.Queries() != db.QueryCount() {
							t.Fatalf("session ledgers %d, engine ledger %d, upstream saw %d", ledgers, e.Queries(), db.QueryCount())
						}
					})
				}
			}
		}
	}
}

// withOrd returns a copy of t with ordinal attribute a set to x.
func withOrd(t types.Tuple, a int, x float64) types.Tuple {
	t.Ord = append([]float64(nil), t.Ord...)
	t.Ord[a] = x
	return t
}
