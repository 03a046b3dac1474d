package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/types"
)

// TestSerialEqualityAndLedgers locks in that the sharded history store
// changes nothing observable on the serial path: 1D-RERANK and MD-RERANK
// answers equal the brute-force oracle, two identical runs produce identical
// answers and identical per-session cost ledgers (the store is
// deterministic), and the accounting invariant holds — session ledgers
// partition the engine counter, which equals the upstream's own counter.
func TestSerialEqualityAndLedgers(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	db, all := newTestDB(t, rng, 2, 600, 5, true, systemRankers(2)[1])
	items := concurrentWorkload(rng)

	run := func() ([][]types.Tuple, []int64, int64) {
		db.ResetCounter()
		e := NewEngine(db, Options{N: 600})
		answers := make([][]types.Tuple, len(items))
		ledgers := make([]int64, len(items))
		for i, it := range items {
			sess := e.NewSession()
			cur, err := sess.NewCursor(it.q, it.r, it.v)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i], err = TopH(cur, it.h); err != nil {
				t.Fatal(err)
			}
			ledgers[i] = sess.Queries()
		}
		if e.Queries() != db.QueryCount() {
			t.Fatalf("engine counted %d queries, upstream answered %d", e.Queries(), db.QueryCount())
		}
		var sum int64
		for _, l := range ledgers {
			sum += l
		}
		if sum != e.Queries() {
			t.Fatalf("session ledgers sum to %d, engine counted %d", sum, e.Queries())
		}
		return answers, ledgers, e.Queries()
	}

	ans1, led1, total1 := run()
	ans2, led2, total2 := run()

	for i, it := range items {
		full := oracleTopH(all, it.q, it.r, 1<<30)
		want := full
		if len(want) > it.h {
			want = want[:it.h]
		}
		assertSameRanking(t, it.r, ans1[i], want, full)
		// Determinism across runs: exact same emission and cost.
		if len(ans1[i]) != len(ans2[i]) {
			t.Fatalf("item %d: run1 emitted %d tuples, run2 %d", i, len(ans1[i]), len(ans2[i]))
		}
		for j := range ans1[i] {
			if ans1[i][j].ID != ans2[i][j].ID {
				t.Fatalf("item %d rank %d: run1 ID %d, run2 ID %d", i, j, ans1[i][j].ID, ans2[i][j].ID)
			}
		}
		if led1[i] != led2[i] {
			t.Fatalf("item %d: run1 ledger %d, run2 ledger %d", i, led1[i], led2[i])
		}
	}
	if total1 != total2 {
		t.Fatalf("run1 total cost %d, run2 %d", total1, total2)
	}
}

// TestConcurrentStoreReadsWritesLiveCheckpoint stress-mixes, under -race,
// everything the sharded store and checkpointer must survive at once:
// sessions streaming tuples into history (concurrent Add), direct indexed
// reads across all attributes, whole-store scans, and live checkpoints.
// A restart from the store must come back with history intact and the probe
// cache warm (see also the dedicated warmness round-trip).
func TestConcurrentStoreReadsWritesLiveCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	db, _ := newTestDB(t, rng, 2, 600, 5, true, systemRankers(2)[0])
	e := persistedEngine(t, db, Options{N: 600})
	items := concurrentWorkload(rng)

	var wg sync.WaitGroup
	errs := make(chan error, len(items)+8)

	// Request traffic: every item on its own session, writing history.
	for i, it := range items {
		wg.Add(1)
		go func(i int, it concurrentWorkItem) {
			defer wg.Done()
			sess := e.NewSession()
			cur, err := sess.NewCursor(it.q, it.r, it.v)
			if err != nil {
				errs <- err
				return
			}
			if _, err := TopH(cur, it.h); err != nil {
				errs <- fmt.Errorf("item %d: %w", i, err)
			}
		}(i, it)
	}
	// Direct index readers on every ordinal attribute.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(300 + r)))
			hist := e.History()
			for i := 0; i < 400; i++ {
				for _, attr := range db.Schema().OrdinalIndexes() {
					lo := rr.Float64() * 80
					iv := types.ClosedInterval(lo, lo+25)
					q := query.New()
					if rr.Intn(2) == 0 {
						q = q.WithCat("cat", []string{"x", "y", "z"}[rr.Intn(3)])
					}
					if tp, ok := hist.MinMatching(q, attr, iv); ok && (!q.Matches(tp) || !iv.Contains(tp.Ord[attr])) {
						errs <- fmt.Errorf("MinMatching yielded non-qualifying tuple %v", tp)
						return
					}
					if tp, ok := hist.MaxMatching(q, attr, iv); ok && (!q.Matches(tp) || !iv.Contains(tp.Ord[attr])) {
						errs <- fmt.Errorf("MaxMatching yielded non-qualifying tuple %v", tp)
						return
					}
					hist.CountMatching(q)
				}
			}
		}(r)
	}
	// Live checkpointer: commit continuously while everything runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := e.Persister().Checkpoint(); err != nil {
				errs <- fmt.Errorf("live checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A restart (after load has quiesced) must replay every mid-load
	// checkpoint plus the final one cleanly.
	warm := reopenViaStore(t, e)
	if warm.History().Size() != e.History().Size() {
		t.Fatalf("restored history size %d, want %d", warm.History().Size(), e.History().Size())
	}
	if warm.Stats().ProbeCacheEntries != e.Stats().ProbeCacheEntries {
		t.Fatalf("restored %d cached probes, want %d", warm.Stats().ProbeCacheEntries, e.Stats().ProbeCacheEntries)
	}
}
