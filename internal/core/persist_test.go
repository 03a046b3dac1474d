// Engine-level tests for incremental segment/journal persistence: warm
// restart with zero upstream re-spend, crash mid-checkpoint recovering to
// the last committed journal entry, inline payloads for region tuples the
// arena never saw,
// and checkpointing running concurrently with serving. The helpers here
// (persistedEngine, reopenViaStore) are how every warm-restart test in the
// package round-trips knowledge through the on-disk format.

package core

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/types"
)

// persistTestWorld builds a deterministic corpus for persistence tests: 400
// tuples, k=10, no system ranker.
func persistTestWorld(t *testing.T, seed int64) (*hidden.DB, []types.Tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 400, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10})
	return db, tuples
}

// openStore opens a segment store for e's upstream in dir.
func openStore(t *testing.T, e *Engine, dir string, opts segment.Options) *segment.Store {
	t.Helper()
	opts.Fingerprint = e.PersistFingerprint()
	st, err := segment.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// attachStore replays dir's store into e, starts recording, and closes the
// persister with the test. No background loop: tests checkpoint explicitly.
func attachStore(t *testing.T, e *Engine, dir string, opts segment.Options) *Persister {
	t.Helper()
	p, err := e.AttachPersistence(openStore(t, e, dir, opts), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// persistedEngine builds an engine over db that records into a store in a
// fresh temp dir from its first probe on.
func persistedEngine(t *testing.T, db hidden.Database, opts Options) *Engine {
	t.Helper()
	e := NewEngine(db, opts)
	attachStore(t, e, t.TempDir(), segment.Options{})
	return e
}

// reopenViaStore is a clean restart on the production format: e (built by
// persistedEngine) takes its final checkpoint and closes, and a fresh engine
// over the same upstream and options replays the store.
func reopenViaStore(t *testing.T, e *Engine) *Engine {
	t.Helper()
	p := e.Persister()
	if p == nil {
		t.Fatal("reopenViaStore: engine has no open persister")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(e.db, e.opts)
	if st := attachStore(t, e2, p.store.Dir(), segment.Options{}).Stats().Store; st.DroppedRecords != 0 {
		t.Fatalf("clean restart rejected %d committed records: a checkpoint wrote what replay cannot apply", st.DroppedRecords)
	}
	return e2
}

// resultsEqual reports whether two probe answers are identical: same
// overflow flag and the same tuples (ID, ordinal values, categorical values)
// in the same order.
func resultsEqual(a, b hidden.Result) bool {
	return a.Overflow == b.Overflow && slices.EqualFunc(a.Tuples, b.Tuples, types.Tuple.Equal)
}

// persistProbes is a fixed set of narrow queries with complete answers —
// cacheable, hence persistable.
func persistProbes() []query.Query {
	return []query.Query{
		query.New().WithRange(0, types.ClosedInterval(10, 12)).WithCat("cat", "x"),
		query.New().WithRange(1, types.ClosedInterval(40, 41)),
		query.New().WithRange(0, types.ClosedInterval(200, 300)), // underflow
	}
}

// runPersistWorkload warms e: issues the probe set (filling history and the
// probe LRU) and inserts 1D and MD dense regions through the recording
// wrappers, exactly as live crawls do. It returns the probe answers.
func runPersistWorkload(t *testing.T, e *Engine, tuples []types.Tuple) []hidden.Result {
	t.Helper()
	sess := e.NewSession()
	var answers []hidden.Result
	for i, q := range persistProbes() {
		res, err := sess.issue(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow {
			t.Fatalf("precondition: probe %d (%s) overflowed; pick a narrower query", i, q)
		}
		answers = append(answers, res)
	}
	inside1 := func(lo, hi float64) []types.Tuple {
		var out []types.Tuple
		for _, tt := range tuples {
			if tt.Ord[0] >= lo && tt.Ord[0] <= hi {
				out = append(out, tt)
			}
		}
		return out
	}
	e.know.InsertDense1(0, types.Interval{Lo: 3, Hi: 5, HiOpen: true}, inside1(3, 5))
	e.know.InsertDense1(0, types.Interval{Lo: 5, Hi: 8, LoOpen: true}, inside1(5, 8))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		b := query.Box{Dims: []types.Interval{
			{Lo: rng.Float64() * 95, Hi: 0}, {Lo: rng.Float64() * 95, Hi: 0},
		}}
		b.Dims[0].Hi = b.Dims[0].Lo + 0.5 + rng.Float64()
		b.Dims[1].Hi = b.Dims[1].Lo + 0.5 + rng.Float64()
		var in []types.Tuple
		for _, tt := range tuples {
			if b.Contains([]float64{tt.Ord[0], tt.Ord[1]}) {
				in = append(in, tt)
			}
		}
		e.know.InsertDenseMD([]int{0, 1}, b, in)
	}
	return answers
}

// assertSameKnowledge checks that got's rebuilt knowledge equals want's:
// history size, 1D region array, MD region set (boxes + IDs + grid shape),
// and probe-cache entry count.
func assertSameKnowledge(t *testing.T, got, want *Engine) {
	t.Helper()
	if got.History().Size() != want.History().Size() {
		t.Fatalf("history size %d, want %d", got.History().Size(), want.History().Size())
	}
	r1, r2 := want.know.dense1.Export(0), got.know.dense1.Export(0)
	if len(r2) != len(r1) {
		t.Fatalf("restored %d 1D regions, want %d", len(r2), len(r1))
	}
	for i := range r1 {
		if r2[i].Range != r1[i].Range || len(r2[i].Tuples) != len(r1[i].Tuples) {
			t.Fatalf("1D region %d: %v (%d tuples), want %v (%d tuples)",
				i, r2[i].Range, len(r2[i].Tuples), r1[i].Range, len(r1[i].Tuples))
		}
	}
	m1, m2 := want.know.mdIndexFor([]int{0, 1}), got.know.mdIndexFor([]int{0, 1})
	e1, e2 := m1.Export(), m2.Export()
	if len(e2) != len(e1) {
		t.Fatalf("restored %d MD regions, want %d", len(e2), len(e1))
	}
	for i := range e1 {
		if e2[i].Box.String() != e1[i].Box.String() || len(e2[i].Tuples) != len(e1[i].Tuples) {
			t.Fatalf("MD region %d: %v (%d tuples), want %v (%d tuples)",
				i, e2[i].Box, len(e2[i].Tuples), e1[i].Box, len(e1[i].Tuples))
		}
	}
	if s1, s2 := m1.Stats(), m2.Stats(); s2 != s1 {
		t.Fatalf("MD grid stats after restore %+v, want %+v", s2, s1)
	}
	if got.ProbeCacheEntries() != want.ProbeCacheEntries() {
		t.Fatalf("probe cache holds %d entries, want %d", got.ProbeCacheEntries(), want.ProbeCacheEntries())
	}
}

// TestPersistWarmRestartZeroRespend: knowledge checkpointed to a segment
// store restarts warm — the rebuilt indexes are bit-identical to the saved
// engine's, and the replay itself plus every committed probe costs zero
// upstream queries.
func TestPersistWarmRestartZeroRespend(t *testing.T) {
	db, tuples := persistTestWorld(t, 71)
	e1 := persistedEngine(t, db, Options{N: 400})
	want := runPersistWorkload(t, e1, tuples)
	p1 := e1.Persister()

	db.ResetCounter()
	e2 := reopenViaStore(t, e1)
	if st := p1.Stats(); st.Store.Checkpoints == 0 {
		t.Fatalf("no checkpoint committed: %+v", st)
	}
	if n := db.QueryCount(); n != 0 {
		t.Fatalf("segment replay spent %d upstream queries, want 0", n)
	}
	assertSameKnowledge(t, e2, e1)
	sess := e2.NewSession()
	for i, q := range persistProbes() {
		res, err := sess.issue(q)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(res, want[i]) {
			t.Fatalf("probe %d: warm answer differs from the saved one (rank order must survive)", i)
		}
	}
	if n := sess.Queries() + db.QueryCount(); n != 0 {
		t.Fatalf("committed probes re-spent %d upstream queries after restart, want 0", n)
	}
	if _, ok := e2.know.dense1.Lookup(0, types.Interval{Lo: 3.5, Hi: 4.5}); !ok {
		t.Fatal("committed 1D dense region not answerable after restart")
	}
}

// TestPersistCrashMidCheckpointRecoversToLastCommitted: an injected writer
// failure kills the second checkpoint mid-commit; the process "dies" without
// a clean close. Recovery replays exactly the first (committed) checkpoint:
// its probes cost zero upstream queries, and the uncommitted one is cold.
func TestPersistCrashMidCheckpointRecoversToLastCommitted(t *testing.T) {
	for _, stage := range []string{"journal-write", "journal-sync"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db, tuples := persistTestWorld(t, 73)
			e1 := NewEngine(db, Options{N: 400})
			var failing atomic.Bool
			st1 := openStore(t, e1, dir, segment.Options{
				Failpoint: func(s string) error {
					if failing.Load() && s == stage {
						return errors.New("injected writer failure")
					}
					return nil
				},
			})
			p1, err := e1.AttachPersistence(st1, PersistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			runPersistWorkload(t, e1, tuples)
			if err := p1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			committedHist := e1.History().Size()
			committedProbes := e1.ProbeCacheEntries()

			// More knowledge arrives, then the checkpoint trying to commit
			// it dies mid-write.
			extra := query.New().WithRange(1, types.ClosedInterval(70, 71))
			sess := e1.NewSession()
			if _, err := sess.issue(extra); err != nil {
				t.Fatal(err)
			}
			failing.Store(true)
			if err := p1.Checkpoint(); err == nil {
				t.Fatal("checkpoint with injected writer failure succeeded")
			}
			if ps := p1.Stats(); ps.LastError == "" || ps.PendingOps == 0 {
				t.Fatalf("failed checkpoint not re-queued: %+v", ps)
			}
			st1.Close() // crash: no drain, no final checkpoint

			db.ResetCounter()
			e2 := NewEngine(db, Options{N: 400})
			p2 := attachStore(t, e2, dir, segment.Options{})
			if st := p2.Stats(); st.Store.ReplayedDeltas != 1 || st.Store.DroppedRecords != 0 {
				t.Fatalf("recovery replayed %+v, want exactly the 1 committed delta", st.Store)
			}
			// Everything the committed checkpoint covered is warm — and
			// nothing past it: the recovered engine holds exactly the state
			// as of the last committed journal entry.
			if e2.History().Size() != committedHist {
				t.Fatalf("recovered history size %d, want committed %d", e2.History().Size(), committedHist)
			}
			if e2.ProbeCacheEntries() != committedProbes {
				t.Fatalf("recovered probe cache holds %d entries, want committed %d", e2.ProbeCacheEntries(), committedProbes)
			}
			sess2 := e2.NewSession()
			for _, q := range persistProbes() {
				if _, err := sess2.issue(q); err != nil {
					t.Fatal(err)
				}
			}
			if n := sess2.Queries(); n != 0 {
				t.Fatalf("committed knowledge re-spent %d upstream queries, want 0", n)
			}
			// ...and the uncommitted probe is cold (it costs again).
			if _, err := sess2.issue(extra); err != nil {
				t.Fatal(err)
			}
			if n := sess2.Queries(); n == 0 {
				t.Fatal("uncommitted probe answered for free; it cannot have been recovered")
			}
		})
	}
}

// TestPersistInlinesUncommittedTuples: a dense region inserted through the
// Knowledge API may hold tuples no probe ever brought into the history arena.
// Their payloads must travel inline in the delta, keeping the store
// self-contained — while a probe fact never needs that, even under
// DisableHistory: its page is in the arena before the fact exists, and the
// fact commits as row references.
func TestPersistInlinesUncommittedTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
	e1 := persistedEngine(t, db, Options{N: 400, DisableHistory: true})
	q := query.New().WithRange(0, types.ClosedInterval(10, 12)).WithCat("cat", "x")
	sess := e1.NewSession()
	res, err := sess.issue(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow || len(res.Tuples) == 0 {
		t.Fatalf("precondition: want a non-empty complete answer, got %d tuples overflow=%v", len(res.Tuples), res.Overflow)
	}
	iv := types.ClosedInterval(50, 52)
	var region []types.Tuple
	for _, tt := range tuples {
		if iv.Contains(tt.Ord[0]) {
			region = append(region, tt)
		}
	}
	if len(region) == 0 || e1.History().Has(region[0].ID) {
		t.Fatalf("precondition: want a non-empty region the arena has not seen (%d tuples)", len(region))
	}
	e1.know.InsertDense1(0, iv, region)

	p1 := e1.Persister()
	p1.mu.Lock()
	ops := p1.ops
	p1.mu.Unlock()
	d := p1.buildDelta(0, e1.History().Rows(), ops)
	if len(d.Tuples) != len(region) {
		t.Fatalf("delta inlines %d tuples, want exactly the region's %d (the probe fact cites committed rows)", len(d.Tuples), len(region))
	}

	e2 := reopenViaStore(t, e1)
	db.ResetCounter()
	sess2 := e2.NewSession()
	res2, err := sess2.issue(q)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Queries() != 0 {
		t.Fatalf("committed probe fact re-spent %d upstream queries, want 0", sess2.Queries())
	}
	if !resultsEqual(res2, res) {
		t.Fatalf("restored answer %v, want %v", res2.Tuples, res.Tuples)
	}
	reg, ok := e2.know.dense1.Lookup(0, iv)
	if !ok || len(reg.Tuples) != len(region) {
		t.Fatalf("inlined region after restart: ok=%v with %d tuples, want %d", ok, len(reg.Tuples), len(region))
	}
}

// TestPersistCheckpointDoesNotBlockServing stretches a checkpoint's commit
// window with a slow injected fsync and issues live probes through it: the
// probes must complete while the checkpoint is still in flight (capture is a
// queue swap, the write happens off-lock), and knowledge recorded during the
// window commits in the next checkpoint. Run under -race in CI, this also
// proves the recording hooks and capture are race-clean.
func TestPersistCheckpointDoesNotBlockServing(t *testing.T) {
	dir := t.TempDir()
	db, tuples := persistTestWorld(t, 79)
	e1 := NewEngine(db, Options{N: 400})
	slow := make(chan struct{})  // closed when the slow checkpoint enters its sync
	var inCheckpoint atomic.Bool // true while the stretched commit is in flight
	var slowOnce, armed atomic.Bool
	st1 := openStore(t, e1, dir, segment.Options{
		Failpoint: func(s string) error {
			if s == "journal-sync" && armed.Load() && slowOnce.CompareAndSwap(false, true) {
				close(slow)
				time.Sleep(300 * time.Millisecond)
			}
			return nil
		},
	})
	p1, err := e1.AttachPersistence(st1, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runPersistWorkload(t, e1, tuples)

	armed.Store(true)
	inCheckpoint.Store(true)
	ckptDone := make(chan error, 1)
	go func() {
		err := p1.Checkpoint()
		inCheckpoint.Store(false)
		ckptDone <- err
	}()
	<-slow // the checkpoint is inside its stretched fsync now

	// Serve during the commit: distinct new probes, issued concurrently.
	var wg sync.WaitGroup
	servedDuring := int64(0)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e1.NewSession()
			q := query.New().WithRange(1, types.ClosedInterval(float64(20+w), float64(20+w)+0.5))
			if _, err := sess.issue(q); err != nil {
				t.Error(err)
				return
			}
			if inCheckpoint.Load() {
				atomic.AddInt64(&servedDuring, 1)
			}
		}(w)
	}
	wg.Wait()
	if servedDuring == 0 {
		t.Fatal("no request completed while the checkpoint was in flight: serving blocked on persistence")
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	// The knowledge recorded mid-commit lands in the next checkpoint.
	assertSameKnowledge(t, reopenViaStore(t, e1), e1)
}

// TestApplyDeltaRejectsBrokenReferences: the one decoder of persisted
// knowledge refuses a delta whose operations reference tuples the store
// never committed, or whose MD region is malformed — Replay then recovers to
// the last good record instead of installing a region with missing tuples.
func TestApplyDeltaRejectsBrokenReferences(t *testing.T) {
	db, _ := persistTestWorld(t, 62)
	unit := segment.Dim{Lo: 0, Hi: 1}
	for name, d := range map[string]*segment.Delta{
		"dangling 1D reference":     {Dense1: []segment.Dense1Op{{Attr: 0, Dim: unit, IDs: []int{4242}}}},
		"dangling MD reference":     {DenseMD: []segment.MDOp{{Attrs: []int{0, 1}, Dims: []segment.Dim{unit, unit}, IDs: []int{4242}}}},
		"dangling probe reference":  {Probes: []segment.ProbeOp{{Rows: []uint32{4242}}}},
		"history rows out of place": {HistLo: 7, HistHi: 8, Hist: []segment.Tuple{{ID: 1, Ord: []float64{1, 1, 0}}}},
		"MD dims/attrs arity":       {DenseMD: []segment.MDOp{{Attrs: []int{0, 1}, Dims: []segment.Dim{unit}}}},
		"MD region without attrs":   {DenseMD: []segment.MDOp{{}}},
	} {
		e := NewEngine(db, Options{N: 400})
		if err := e.applyDelta(d); err == nil {
			t.Errorf("%s accepted", name)
		}
		if e.MDDenseRegions() != 0 || e.DenseIndex1D().Regions(0) != 0 || e.ProbeCacheEntries() != 0 {
			t.Errorf("%s installed knowledge despite the error", name)
		}
	}
	// A reference resolves from the delta's own inline payloads.
	e := NewEngine(db, Options{N: 400})
	ok := &segment.Delta{
		Tuples: []segment.Tuple{{ID: 4242, Ord: []float64{0.5, 0.5, 0}}},
		Dense1: []segment.Dense1Op{{Attr: 0, Dim: unit, IDs: []int{4242}}},
	}
	if err := e.applyDelta(ok); err != nil || e.DenseIndex1D().Regions(0) != 1 {
		t.Fatalf("self-contained delta: err=%v regions=%d, want nil/1", err, e.DenseIndex1D().Regions(0))
	}
}
