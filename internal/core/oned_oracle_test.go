// The 1D oracle test: every 1D-RERANK answer, over three corpora that stress
// different parts of the search, equals a brute-force ranker's, the ledgers
// equal what the upstream saw, and certification stays within its budget of
// one probe per Get-Next.

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

// strictDB is the upstream of the oracle test: it refuses probes nobody
// should pay for.
type strictDB struct {
	*hidden.DB
	t *testing.T
}

func (s strictDB) TopK(q query.Query) (hidden.Result, error) {
	if q.Empty() {
		s.t.Errorf("trivially empty probe reached the upstream: %s", q)
	}
	return s.DB.TopK(q)
}

// oneDWorld is one corpus of the oracle test with the attribute its cursors
// rank by and the user windows they run over.
type oneDWorld struct {
	name    string
	n       int
	tuples  []types.Tuple
	open    func(tuples []types.Tuple) *hidden.DB
	attr    int
	windows []query.Query
}

func oneDWorlds() []oneDWorld {
	bn := dataset.BlueNile(81, 3000)
	dot := dataset.DOT(82, 4000)
	// TestDenseIndexAmortization's corpus: a dense cluster at the bottom of
	// A0 under a system ranking that shows its far end first.
	rng := rand.New(rand.NewSource(51))
	schema := testSchema(2)
	anti := make([]types.Tuple, 4000)
	for i := range anti {
		ord := make([]float64, schema.Len())
		ord[0] = 1 + rng.Float64()*99
		if i < len(anti)/3 {
			ord[0] = 0.5 + rng.Float64()*0.05
		}
		ord[1] = rng.Float64() * 100
		anti[i] = types.Tuple{ID: i, Ord: ord, Cat: map[string]string{"cat": []string{"x", "y", "z"}[i%3]}}
	}
	return []oneDWorld{{
		name: "bluenile", n: len(bn.Tuples), tuples: bn.Tuples, attr: dataset.BNCarat,
		open: func(ts []types.Tuple) *hidden.DB {
			return hidden.MustDB(bn.Schema, ts, hidden.Options{K: bn.DefaultSystemK, Ranker: bn.DefaultRanker})
		},
		windows: []query.Query{
			query.New().WithRange(dataset.BNCarat, types.ClosedInterval(0.3, 1.96)),
			query.New().WithRange(dataset.BNCarat, types.Interval{Lo: 0.5, Hi: 3, LoOpen: true, HiOpen: true}).WithCat("Cut", "Ideal"),
			query.New().WithRange(dataset.BNPrice, types.ClosedInterval(1000, 9000)).WithCat("Shape", "Round"),
		},
	}, {
		// Integer taxi times: value plateaus far larger than k.
		name: "dot-taxiin", n: len(dot.Tuples), tuples: dot.Tuples, attr: dataset.DOTTaxiIn,
		open: func(ts []types.Tuple) *hidden.DB {
			return hidden.MustDB(dot.Schema, ts, hidden.Options{K: 10, Ranker: dataset.DOTSystemRanker2()})
		},
		windows: []query.Query{
			query.New().WithRange(dataset.DOTTaxiIn, types.ClosedInterval(3, 40)),
			query.New().WithRange(dataset.DOTTaxiIn, types.ClosedInterval(2, 30)).WithCat("Carrier", "AA"),
			query.New().WithCat("Origin", "SEA").WithCat("Carrier", "DL"),
		},
	}, {
		name: "anti-correlated", n: len(anti), tuples: anti, attr: 0,
		open: func(ts []types.Tuple) *hidden.DB {
			sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
			return hidden.MustDB(schema, ts, hidden.Options{K: 10, Ranker: sys})
		},
		windows: []query.Query{
			query.New().WithRange(0, types.ClosedInterval(0.5, 30)),
			query.New().WithRange(0, types.ClosedInterval(0.51, 60)).WithCat("cat", "y"),
			query.New().WithCat("cat", "z"),
		},
	}}
}

// oneDRun drives cursors against one engine and keeps the books the oracle
// test closes at the end.
type oneDRun struct {
	t        *testing.T
	e        *Engine
	ledgers  int64 // Σ session ledgers
	getNexts int64 // Σ searches the Get-Next calls can have run (one per cursor level)
}

// subDepth returns how many plateau sub-cursors are open under c.
func subDepth(c *OneDCursor) int64 {
	d := int64(0)
	for ; c.sub != nil; c = c.sub {
		d++
	}
	return d
}

// topH drains h tuples of q ranked by attr along dir through a fresh session
// and checks them against the brute-force ranker over corpus. Every Get-Next
// runs at most one search per cursor level (the cursor itself plus its open
// plateau sub-cursors), and no search may certify more than once.
func (r *oneDRun) topH(corpus []types.Tuple, q query.Query, attr int, dir ranking.Direction, h int) {
	r.t.Helper()
	s := r.e.NewSession()
	cur := s.NewOneDCursor(q, attr, dir, Rerank)
	var got []types.Tuple
	for len(got) < h {
		levels := 1 + subDepth(cur)
		st0 := r.e.Stats()
		tp, ok, err := cur.Next()
		if err != nil {
			r.t.Fatal(err)
		}
		levels = max(levels, 1+subDepth(cur))
		r.getNexts += levels
		st1 := r.e.Stats()
		if n := st1.CertifiedComplete + st1.CertifiedOverflow - st0.CertifiedComplete - st0.CertifiedOverflow; n > levels {
			r.t.Fatalf("%s by A%d dir %d: Get-Next %d issued %d certification probes across %d cursor levels",
				q, attr, dir, len(got)+1, n, levels)
		}
		if !ok {
			break
		}
		got = append(got, tp)
	}
	r.ledgers += s.Queries()
	rk := ranking.NewSingle("user", attr, dir)
	full := oracleTopH(corpus, q, rk, len(corpus))
	assertSameRanking(r.t, rk, got, full[:min(h, len(full))], full)
	for _, tp := range got {
		if !corpus[tp.ID].Equal(tp) {
			r.t.Fatalf("%s by A%d dir %d: emitted %v, the corpus holds %v", q, attr, dir, tp, corpus[tp.ID])
		}
	}
}

// close checks the run's books against the upstream's own count.
func (r *oneDRun) close(db *hidden.DB) {
	r.t.Helper()
	if r.ledgers != db.QueryCount() || r.e.Queries() != db.QueryCount() {
		r.t.Fatalf("session ledgers %d, engine ledger %d, upstream saw %d", r.ledgers, r.e.Queries(), db.QueryCount())
	}
	if st := r.e.Stats(); st.CertifiedComplete+st.CertifiedOverflow > r.getNexts {
		r.t.Fatalf("%d complete + %d overflowing certifications over %d Get-Nexts", st.CertifiedComplete, st.CertifiedOverflow, r.getNexts)
	}
}

// probeCache is the ProbeCacheSize of an oracle engine with the fact index
// on (the default) or off — the matrices' "coalescing" dimension.
func probeCache(on bool) int {
	if on {
		return 0
	}
	return -1
}

// TestOneDOracle runs windows × {asc, desc} × h ∈ {1, 5, 25} through one
// engine per (corpus, fact index on or off), so later cursors search from the
// history earlier ones left — the regime certification exists for.
func TestOneDOracle(t *testing.T) {
	for _, w := range oneDWorlds() {
		for _, coalesce := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/coalescing=%v", w.name, coalesce), func(t *testing.T) {
				db := w.open(w.tuples)
				run := &oneDRun{t: t, e: NewEngine(strictDB{db, t}, Options{N: w.n, ProbeCacheSize: probeCache(coalesce)})}
				for _, h := range []int{1, 5, 25} {
					for _, q := range w.windows {
						for _, dir := range []ranking.Direction{ranking.Asc, ranking.Desc} {
							run.topH(w.tuples, q, w.attr, dir, h)
						}
					}
				}
				run.close(db)
				if run.e.Stats().CertifiedComplete == 0 {
					t.Fatal("no certification came back complete; the test exercised nothing")
				}
			})
		}
	}
}

// TestOneDOracleAcrossDrift moves the tuple history would offer a fresh
// cursor as its first candidate — further into the window, and out of it —
// bumps the epoch, and requires the fresh cursor's answer to equal the
// brute-force ranker's over the mutated corpus: a history candidate is a
// hint, and what the upstream says about it now decides.
func TestOneDOracleAcrossDrift(t *testing.T) {
	for _, w := range oneDWorlds() {
		for _, coalesce := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/coalescing=%v", w.name, coalesce), func(t *testing.T) {
				corpus := deepCopyTuples(w.tuples)
				db := w.open(corpus)
				run := &oneDRun{t: t, e: NewEngine(strictDB{db, t}, Options{N: w.n, ProbeCacheSize: probeCache(coalesce)})}
				for _, q := range w.windows {
					iv, bounded := q.Range(w.attr)
					for _, dir := range []ranking.Direction{ranking.Asc, ranking.Desc} {
						rk := ranking.NewSingle("user", w.attr, dir)
						for _, out := range []bool{false, true} {
							if out && !bounded {
								continue // no way out of a window that does not bound the ranked attribute
							}
							run.topH(corpus, q, w.attr, dir, 5) // history now holds the window's head
							head := oracleTopH(corpus, q, rk, 8)
							if len(head) < 8 {
								t.Fatalf("precondition: %s matches %d tuples", q, len(head))
							}
							// Within: just past the 7th tuple. Out: past the window's far end.
							to := head[6].Ord[w.attr] + float64(dir)*1e-6
							if out && dir == ranking.Asc {
								to = iv.Hi + 1
							} else if out {
								to = iv.Lo - 1
							}
							if !db.SetOrd(head[0].ID, w.attr, to) {
								t.Fatal("SetOrd refused")
							}
							corpus[head[0].ID].Ord[w.attr] = to
							run.e.BumpEpoch()
							run.topH(corpus, q, w.attr, dir, 5)
							run.topH(corpus, q, w.attr, dir, 25)
						}
					}
				}
				run.close(db)
			})
		}
	}
}
