package core

import (
	"math/rand"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// mdParallelCase is one randomized MD workload the parallel-equivalence
// property test replays at several speculative widths.
type mdParallelCase struct {
	name    string
	m       int // ranked attributes
	n       int
	seed    int64
	ties    bool
	variant Variant
	q       func() query.Query
	r       func() ranking.Ranker
}

func mdParallelCases() []mdParallelCase {
	return []mdParallelCase{
		{
			name: "rerank-2d-filter", m: 2, n: 1500, seed: 11, variant: Rerank,
			q: func() query.Query { return query.New().WithCat("cat", "x") },
			r: func() ranking.Ranker { return ranking.MustLinear("u", []int{0, 1}, []float64{1, 1}) },
		},
		{
			name: "rerank-2d-ties-range", m: 2, n: 1200, seed: 12, ties: true, variant: Rerank,
			q: func() query.Query { return query.New().WithRange(1, types.ClosedInterval(10, 90)) },
			r: func() ranking.Ranker { return ranking.MustLinear("u", []int{0, 1}, []float64{2, 1}) },
		},
		{
			name: "binary-3d", m: 3, n: 1000, seed: 13, variant: Binary,
			q: func() query.Query { return query.New() },
			r: func() ranking.Ranker { return ranking.MustLinear("u", []int{0, 1, 2}, []float64{1, 1, 1}) },
		},
		{
			name: "baseline-2d", m: 2, n: 600, seed: 14, variant: Baseline,
			q: func() query.Query { return query.New().WithCat("cat", "y") },
			r: func() ranking.Ranker { return ranking.MustLinear("u", []int{0, 1}, []float64{1, 3}) },
		},
	}
}

// runMDParallel executes one case on a fresh engine at speculative width w
// and returns the emitted tuple IDs in order plus the session ledger.
func runMDParallel(t *testing.T, tc mdParallelCase, db *hidden.DB, w, h int) (ids []int, ledger int64) {
	t.Helper()
	e := NewEngine(db, Options{N: tc.n, SearchParallelism: w})
	sess := e.NewSession()
	cur := sess.NewMDCursor(tc.q(), tc.r(), tc.variant)
	got, err := TopH(cur, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range got {
		ids = append(ids, tt.ID)
	}
	return ids, sess.Queries()
}

// TestMDParallelEquivalence is the parallel-vs-sequential property test: for
// randomized MD workloads across variants, SearchParallelism ∈ {1, 4, 8}
// must emit the identical tuple sequence, every width's ledger must be
// exactly reproducible run-to-run (deterministic charge-at-issue), and the
// session ledger must equal both the engine counter and the upstream's own
// count. Run under -race this also exercises the concurrent probe rounds.
func TestMDParallelEquivalence(t *testing.T) {
	for _, tc := range mdParallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			schema := testSchema(tc.m)
			tuples := genTuples(rng, schema, tc.n, tc.ties)
			// Adversarial system ranking: anti-correlated with the user's.
			sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
			h := 12

			makeDB := func() *hidden.DB {
				return hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})
			}
			refDB := makeDB()
			refIDs, refLedger := runMDParallel(t, tc, refDB, 1, h)
			if refLedger != refDB.QueryCount() {
				t.Fatalf("W=1 ledger %d != upstream count %d", refLedger, refDB.QueryCount())
			}
			// Exactness against the oracle, so "identical across widths"
			// can never mean identically wrong.
			want := oracleTopH(tuples, tc.q(), tc.r(), h)
			if len(refIDs) != len(want) {
				t.Fatalf("W=1 emitted %d tuples, oracle has %d", len(refIDs), len(want))
			}
			for i := range want {
				if refIDs[i] != want[i].ID {
					t.Fatalf("W=1 rank %d: tuple %d, oracle %d", i, refIDs[i], want[i].ID)
				}
			}
			for _, w := range []int{4, 8} {
				db := makeDB()
				ids, ledger := runMDParallel(t, tc, db, w, h)
				if len(ids) != len(refIDs) {
					t.Fatalf("W=%d emitted %d tuples, W=1 emitted %d", w, len(ids), len(refIDs))
				}
				for i := range ids {
					if ids[i] != refIDs[i] {
						t.Fatalf("W=%d rank %d: tuple %d, W=1 emitted %d", w, i, ids[i], refIDs[i])
					}
				}
				if ledger != db.QueryCount() {
					t.Errorf("W=%d ledger %d != upstream count %d", w, ledger, db.QueryCount())
				}
				// Determinism: an identical run must charge the identical
				// ledger (charge-at-issue, processed in round order).
				db2 := makeDB()
				ids2, ledger2 := runMDParallel(t, tc, db2, w, h)
				if ledger2 != ledger {
					t.Errorf("W=%d ledger not deterministic: %d then %d", w, ledger, ledger2)
				}
				for i := range ids2 {
					if ids2[i] != ids[i] {
						t.Fatalf("W=%d emission not deterministic at rank %d", w, i)
					}
				}
			}
		})
	}
}

// TestMDParallelSharedSession drives several concurrent MD cursors from
// sessions of ONE engine at width 8 while asserting the cost invariants that
// the probe path guarantees: engine counter == upstream count, and the
// per-session ledgers partition it exactly. Run under -race this checks the
// worker pool against the shared engine.
func TestMDParallelSharedSession(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 1500, false)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})
	e := NewEngine(db, Options{N: 1500, SearchParallelism: 8})

	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
	cats := []string{"x", "y", "z"}
	sessions := make([]*Session, len(cats))
	errs := make(chan error, len(cats))
	for i, cat := range cats {
		sessions[i] = e.NewSession()
		go func(s *Session, cat string) {
			cur := s.NewMDCursor(query.New().WithCat("cat", cat), r, Rerank)
			_, err := TopH(cur, 8)
			errs <- err
		}(sessions[i], cat)
	}
	for range cats {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if e.Queries() != db.QueryCount() {
		t.Errorf("engine counted %d queries, upstream answered %d", e.Queries(), db.QueryCount())
	}
	var sum int64
	for _, s := range sessions {
		sum += s.Queries()
	}
	if sum != e.Queries() {
		t.Errorf("session ledgers sum to %d, engine counted %d", sum, e.Queries())
	}
	if st := e.Stats(); st.SpecProbesWasted > st.SpecProbesIssued {
		t.Errorf("wasted %d speculative probes but only %d were issued", st.SpecProbesWasted, st.SpecProbesIssued)
	}
}

// TestMDSpeculationWasteBound pins the cost of width 8 on the
// overlapping-window workload BenchmarkMDParallel uses: at most 168 upstream
// queries in all, wasted speculative probes ≤ 25% of those upstream queries,
// and no more wasted speculative probes than issued ones. The run is fully
// deterministic (single session per window, fixed seed), so these are hard
// bounds, not statistical ones.
func TestMDSpeculationWasteBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 2000, false)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})
	e := NewEngine(db, Options{N: 2000, SearchParallelism: 8})
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 1})
	for i := 0; i < 8; i++ {
		lo := float64(i * 10)
		q := query.New().WithRange(0, types.ClosedInterval(lo, lo+25))
		sess := e.NewSession()
		cur := sess.NewMDCursor(q, r, Rerank)
		if _, err := TopH(cur, 10); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	issued, wasted, total := st.SpecProbesIssued, st.SpecProbesWasted, e.Queries()
	t.Logf("upstream queries %d, speculative issued %d, wasted %d", total, issued, wasted)
	if total == 0 {
		t.Fatal("workload issued no upstream queries")
	}
	if total > 168 {
		t.Errorf("upstream queries %d, want ≤ 168", total)
	}
	if wasted > issued {
		t.Errorf("wasted %d speculative probes but only %d were issued", wasted, issued)
	}
	if frac := float64(wasted) / float64(total); frac > 0.25 {
		t.Errorf("wasted speculative probes are %.1f%% of upstream queries, want ≤ 25%%", frac*100)
	}
}
