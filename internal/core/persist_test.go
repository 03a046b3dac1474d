// Engine-level tests for incremental segment/journal persistence: warm
// restart with zero upstream re-spend, crash mid-checkpoint recovering to
// the last committed journal entry, regions citing arena rows that precede
// their records, and checkpointing running concurrently with serving. The helpers here
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
	if st := attachStore(t, e2, p.store.Dir(), segment.Options{}).store.Stats(); st.DroppedRecords != 0 {
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
		res, _, err := sess.probe(q)
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
	e.insertCrawled(query.New().WithRange(0, types.Interval{Lo: 3, Hi: 5, HiOpen: true}), inside1(3, 5))
	e.insertCrawled(query.New().WithRange(0, types.Interval{Lo: 5, Hi: 8, LoOpen: true}), inside1(5, 8))
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
		e.insertCrawled(boxRanges([]int{0, 1}, b), in)
	}
	return answers
}

// assertSameRegions checks that got's crawled regions equal want's fact for
// fact: boxes, epochs, rows in order, and the tuples behind the rows.
func assertSameRegions(t *testing.T, got, want *Engine) {
	t.Helper()
	r1, r2 := crawledExport(want.crawled), crawledExport(got.crawled)
	if len(r2) != len(r1) {
		t.Fatalf("restored %d crawled regions, want %d", len(r2), len(r1))
	}
	for i := range r1 {
		b1, b2 := rangesBox(r1[i].q), rangesBox(r2[i].q)
		if !slices.Equal(r2[i].q.Ranges(), r1[i].q.Ranges()) || r2[i].epoch != r1[i].epoch || !slices.Equal(r2[i].rows, r1[i].rows) {
			t.Fatalf("region %d: %v epoch %d rows %v, want %v epoch %d rows %v",
				i, b2, r2[i].epoch, r2[i].rows, b1, r1[i].epoch, r1[i].rows)
		}
		if tuples := got.History().RowTuples(r2[i].rows); !slices.EqualFunc(tuples, want.History().RowTuples(r1[i].rows), types.Tuple.Equal) {
			t.Fatalf("region %d %v: restored rows hold %v", i, b2, tuples)
		}
	}
}

// assertSameKnowledge checks that got's rebuilt knowledge equals want's:
// history size, dense regions, and probe-cache entry count.
func assertSameKnowledge(t *testing.T, got, want *Engine) {
	t.Helper()
	if got.History().Size() != want.History().Size() {
		t.Fatalf("history size %d, want %d", got.History().Size(), want.History().Size())
	}
	assertSameRegions(t, got, want)
	if got.Stats().ProbeCacheEntries != want.Stats().ProbeCacheEntries {
		t.Fatalf("probe cache holds %d entries, want %d", got.Stats().ProbeCacheEntries, want.Stats().ProbeCacheEntries)
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
	if st := p1.store.Stats(); st.Checkpoints == 0 {
		t.Fatalf("no checkpoint committed: %+v", st)
	}
	if n := db.QueryCount(); n != 0 {
		t.Fatalf("segment replay spent %d upstream queries, want 0", n)
	}
	assertSameKnowledge(t, e2, e1)
	sess := e2.NewSession()
	for i, q := range persistProbes() {
		res, _, err := sess.probe(q)
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
	if _, ok := e2.DenseIndex1D().Lookup(0, types.Interval{Lo: 3.5, Hi: 4.5}); !ok {
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
			committedProbes := e1.Stats().ProbeCacheEntries

			// More knowledge arrives, then the checkpoint trying to commit
			// it dies mid-write.
			extra := query.New().WithRange(1, types.ClosedInterval(70, 71))
			sess := e1.NewSession()
			if _, _, err := sess.probe(extra); err != nil {
				t.Fatal(err)
			}
			failing.Store(true)
			if err := p1.Checkpoint(); err == nil {
				t.Fatal("checkpoint with injected writer failure succeeded")
			}
			if ps := e1.Stats(); ps.PersistLastError == "" || ps.PersistPendingOps == 0 {
				t.Fatalf("failed checkpoint not re-queued: %+v", ps)
			}
			st1.Close() // crash: no drain, no final checkpoint

			db.ResetCounter()
			e2 := NewEngine(db, Options{N: 400})
			p2 := attachStore(t, e2, dir, segment.Options{})
			if st := p2.store.Stats(); st.ReplayedDeltas != 1 || st.DroppedRecords != 0 {
				t.Fatalf("recovery replayed %+v, want exactly the 1 committed delta", st)
			}
			// Everything the committed checkpoint covered is warm — and
			// nothing past it: the recovered engine holds exactly the state
			// as of the last committed journal entry.
			if e2.History().Size() != committedHist {
				t.Fatalf("recovered history size %d, want committed %d", e2.History().Size(), committedHist)
			}
			if e2.Stats().ProbeCacheEntries != committedProbes {
				t.Fatalf("recovered probe cache holds %d entries, want committed %d", e2.Stats().ProbeCacheEntries, committedProbes)
			}
			sess2 := e2.NewSession()
			for _, q := range persistProbes() {
				if _, _, err := sess2.probe(q); err != nil {
					t.Fatal(err)
				}
			}
			if n := sess2.Queries(); n != 0 {
				t.Fatalf("committed knowledge re-spent %d upstream queries, want 0", n)
			}
			// ...and the uncommitted probe is cold (it costs again).
			if _, _, err := sess2.probe(extra); err != nil {
				t.Fatal(err)
			}
			if n := sess2.Queries(); n == 0 {
				t.Fatal("uncommitted probe answered for free; it cannot have been recovered")
			}
		})
	}
}

// TestPersistRegionRowsPrecedeRecord: a dense region inserted through
// Engine.insertCrawled may hold tuples no probe ever brought in. They enter the
// history arena before the region's record is queued, so the delta that
// carries the record also carries the rows it cites (all below HistHi) and
// every committed delta stays self-contained — as a probe fact's always is,
// even under DisableHistory: its page is in the arena before the fact exists.
func TestPersistRegionRowsPrecedeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db, tuples := newTestDB(t, rng, 2, 400, 10, false, nil)
	e1 := persistedEngine(t, db, Options{N: 400, DisableHistory: true})
	q := query.New().WithRange(0, types.ClosedInterval(10, 12)).WithCat("cat", "x")
	sess := e1.NewSession()
	res, _, err := sess.probe(q)
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
	e1.insertCrawled(query.New().WithRange(0, iv), region)
	for _, tt := range region {
		if !e1.History().Has(tt.ID) {
			t.Fatalf("region tuple %d is not in the arena after the insert", tt.ID)
		}
	}

	p1 := e1.Persister()
	p1.mu.Lock()
	ops := p1.ops
	p1.mu.Unlock()
	d := p1.buildDelta(0, e1.History().Rows(), ops)
	if len(d.Probes) != 2 || d.Probes[0].Crawled || !d.Probes[1].Crawled || len(d.Probes[1].Rows) != len(region) {
		t.Fatalf("delta records %+v, want the probe fact then the region over %d rows", d.Probes, len(region))
	}
	for _, op := range d.Probes {
		for _, row := range op.Rows {
			if int(row) >= d.HistHi || d.HistHi != d.HistLo+len(d.Hist) {
				t.Fatalf("record cites row %d, delta carries rows [%d,%d) in %d payloads", row, d.HistLo, d.HistHi, len(d.Hist))
			}
		}
	}

	e2 := reopenViaStore(t, e1)
	db.ResetCounter()
	sess2 := e2.NewSession()
	res2, _, err := sess2.probe(q)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Queries() != 0 {
		t.Fatalf("committed probe fact re-spent %d upstream queries, want 0", sess2.Queries())
	}
	if !resultsEqual(res2, res) {
		t.Fatalf("restored answer %v, want %v", res2.Tuples, res.Tuples)
	}
	f := e2.crawled.lookup(query.New().WithRange(0, iv))
	ok := f != nil
	var got []types.Tuple
	if ok {
		got = e2.History().RowTuples(f.rows)
	}
	byID := func(a, b types.Tuple) int { return a.ID - b.ID }
	slices.SortFunc(got, byID)
	slices.SortFunc(region, byID)
	if !ok || !slices.EqualFunc(got, region, types.Tuple.Equal) {
		t.Fatalf("region after restart: ok=%v holding %v, want the %d inserted tuples", ok, got, len(region))
	}
}

// TestReopenReplaysRegionRowsNotLatestVersions: a region is what its crawl
// saw. A member tuple the upstream edits in place before the checkpoint — to
// a value outside the box — becomes a new arena row; the journal names the
// region's rows, not tuple IDs, so the replayed 1D and MD regions equal the
// live ones row for row instead of holding the ID's latest version (a region
// [50,52] holding a tuple at 90).
func TestReopenReplaysRegionRowsNotLatestVersions(t *testing.T) {
	db, tuples := persistTestWorld(t, 81)
	e1 := persistedEngine(t, db, Options{N: 400})
	iv := types.ClosedInterval(50, 52)
	box := query.Box{Dims: []types.Interval{iv, types.ClosedInterval(0, 100)}}
	var region []types.Tuple
	for _, tt := range tuples {
		if iv.Contains(tt.Ord[0]) {
			region = append(region, tt)
		}
	}
	if len(region) < 2 {
		t.Fatalf("precondition: want a region of several tuples, got %d", len(region))
	}
	e1.insertCrawled(query.New().WithRange(0, iv), region)
	e1.insertCrawled(boxRanges([]int{0, 1}, box), region)
	edited := region[0].Clone()
	edited.Ord[0] = 90
	e1.History().Add(edited)

	e2 := reopenViaStore(t, e1)
	assertSameRegions(t, e2, e1)
	f := e2.crawled.lookup(query.New().WithRange(0, iv))
	if f == nil {
		t.Fatal("region not replayed")
	}
	for _, tt := range e2.History().RowTuples(f.rows) {
		if !iv.Contains(tt.Ord[0]) {
			t.Fatalf("replayed region %v holds tuple %d at %v", iv, tt.ID, tt.Ord[0])
		}
	}
	if got, _ := e2.History().Get(edited.ID); got.Ord[0] != 90 {
		t.Fatalf("tuple %d resolves to %v after replay, want its latest version", edited.ID, got)
	}
}

// TestPersistCheckpointDoesNotBlockServing parks a checkpoint inside its
// commit (an injected fsync that waits for the test) and issues live probes
// through it: the probes must complete while the checkpoint is still in
// flight (capture is a queue swap, the write happens off-lock), and knowledge
// recorded during the window commits in the next checkpoint. Run under -race
// in CI, this also proves the recording hooks and capture are race-clean.
func TestPersistCheckpointDoesNotBlockServing(t *testing.T) {
	dir := t.TempDir()
	db, tuples := persistTestWorld(t, 79)
	e1 := NewEngine(db, Options{N: 400})
	parked := make(chan struct{}) // closed when the checkpoint enters its sync
	served := make(chan struct{}) // closed once the live probes have returned
	var parkOnce, armed atomic.Bool
	st1 := openStore(t, e1, dir, segment.Options{
		Failpoint: func(s string) error {
			if s == "journal-sync" && armed.Load() && parkOnce.CompareAndSwap(false, true) {
				close(parked)
				<-served
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
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- p1.Checkpoint() }()
	<-parked // the checkpoint is inside its fsync now, and stays there

	// Serve during the commit: distinct new probes, issued concurrently.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e1.NewSession()
			q := query.New().WithRange(1, types.ClosedInterval(float64(20+w), float64(20+w)+0.5))
			if _, _, err := sess.probe(q); err != nil {
				t.Error(err)
			}
		}(w)
	}
	probesDone := make(chan struct{})
	go func() { wg.Wait(); close(probesDone) }()
	select {
	case <-probesDone:
	case <-time.After(30 * time.Second):
		close(served)
		t.Fatal("no request completed while the checkpoint was in flight: serving blocked on persistence")
	}
	close(served)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	// The knowledge recorded mid-commit lands in the next checkpoint.
	assertSameKnowledge(t, reopenViaStore(t, e1), e1)
}

// TestApplyDeltaRejectsBrokenReferences: the one decoder of persisted
// knowledge refuses a delta whose records cite rows the store never
// committed, or whose crawled region is malformed — Replay then recovers to
// the last good record instead of installing a region with missing tuples.
func TestApplyDeltaRejectsBrokenReferences(t *testing.T) {
	db, _ := persistTestWorld(t, 62)
	unit := func(attr int) segment.ProbeRange { return segment.ProbeRange{Attr: attr, Lo: 0, Hi: 1} }
	crawled := func(op segment.ProbeOp) *segment.Delta {
		op.Crawled = true
		return &segment.Delta{Probes: []segment.ProbeOp{op}}
	}
	for name, d := range map[string]*segment.Delta{
		"dangling 1D reference":     crawled(segment.ProbeOp{Ranges: []segment.ProbeRange{unit(0)}, Rows: []uint32{4242}}),
		"dangling MD reference":     crawled(segment.ProbeOp{Ranges: []segment.ProbeRange{unit(0), unit(1)}, Rows: []uint32{4242}}),
		"dangling probe reference":  {Probes: []segment.ProbeOp{{Rows: []uint32{4242}}}},
		"history rows out of place": {HistLo: 7, HistHi: 8, Hist: []segment.Tuple{{ID: 1, Ord: []float64{1, 1, 0}}}},
		"region without ranges":     crawled(segment.ProbeOp{}),
		"region attrs out of order": crawled(segment.ProbeOp{Ranges: []segment.ProbeRange{unit(1), unit(0)}}),
		"region on a categorical":   crawled(segment.ProbeOp{Ranges: []segment.ProbeRange{unit(2)}}),
	} {
		e := NewEngine(db, Options{N: 400})
		if err := e.applyDelta(d); err == nil {
			t.Errorf("%s accepted", name)
		}
		if e.Stats().MDDenseRegions != 0 || e.DenseIndex1D().Regions(0) != 0 || e.Stats().ProbeCacheEntries != 0 {
			t.Errorf("%s installed knowledge despite the error", name)
		}
	}
	// A reference resolves from the delta's own history rows.
	e := NewEngine(db, Options{N: 400})
	ok := &segment.Delta{
		HistHi: 1, Hist: []segment.Tuple{{ID: 4242, Ord: []float64{0.5, 0.5, 0}}},
		Probes: []segment.ProbeOp{{Ranges: []segment.ProbeRange{unit(0)}, Rows: []uint32{0}, Crawled: true}},
	}
	if err := e.applyDelta(ok); err != nil || e.DenseIndex1D().Regions(0) != 1 {
		t.Fatalf("self-contained delta: err=%v regions=%d, want nil/1", err, e.DenseIndex1D().Regions(0))
	}
}

// TestApplyDeltaRepeatedAttrLaterWins: a (corrupt) probe record naming one
// attribute twice replays as its later range on that attribute, not as the
// two ranges' intersection: the fact sits under the key of the later range.
func TestApplyDeltaRepeatedAttrLaterWins(t *testing.T) {
	db, _ := persistTestWorld(t, 62)
	e := NewEngine(db, Options{N: 400})
	d := &segment.Delta{
		HistHi: 1, Hist: []segment.Tuple{{ID: 4242, Ord: []float64{0.5, 0.5, 0}}},
		Probes: []segment.ProbeOp{{Ranges: []segment.ProbeRange{
			{Attr: 0, Lo: 0, Hi: 1}, {Attr: 1, Lo: 0, Hi: 1}, {Attr: 0, Lo: 0.25, Hi: 2},
		}, Rows: []uint32{0}}},
	}
	if err := e.applyDelta(d); err != nil {
		t.Fatal(err)
	}
	later := query.New().WithRange(0, types.ClosedInterval(0.25, 2)).WithRange(1, types.ClosedInterval(0, 1))
	if n := e.Stats().ProbeCacheEntries; n != 1 || e.facts.byKey[later.String()] == nil {
		t.Fatalf("%d facts, none under %s", n, later)
	}
}
