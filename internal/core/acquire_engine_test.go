// Engine-level tests for background acquisition primitives: WarmWindow's
// ledger separation and zero-upstream replay guarantee (live and across
// segment-store restarts), and heat-sketch persistence through checkpoints.

package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// acquireWindow is the window the WarmWindow tests warm and then re-query.
func acquireWindow() types.Interval { return types.ClosedInterval(20, 30) }

// warmedEngine builds a deterministic world and warms one window through an
// acquirer-style session, returning the engine, the db, and the acquirer
// session's ledger total.
func warmedEngine(t *testing.T, depth int) (*Engine, *hiddenDBHandle) {
	t.Helper()
	rng := rand.New(rand.NewSource(83))
	db, _ := newTestDB(t, rng, 2, 500, 10, false, nil)
	e := persistedEngine(t, db, Options{N: 500})
	acq := e.NewSession()
	if err := acq.WarmWindow(0, acquireWindow(), depth); err != nil {
		t.Fatal(err)
	}
	if acq.Queries() == 0 {
		t.Fatal("cold WarmWindow issued no upstream queries")
	}
	if !e.WindowWarm(0, acquireWindow()) {
		t.Fatal("WarmWindow did not mark the window warm")
	}
	return e, &hiddenDBHandle{db: db, acquired: acq.Queries()}
}

// hiddenDBHandle pairs the upstream with the acquirer's spend, so restart
// tests can reset and re-read the counter.
type hiddenDBHandle struct {
	db interface {
		ResetCounter()
		QueryCount() int64
	}
	acquired int64
}

// assertUserFree drives a user 1D cursor over the warmed window in dir to
// depth h and asserts it costs zero upstream and zero session ledger.
func assertUserFree(t *testing.T, e *Engine, h *hiddenDBHandle, dir ranking.Direction, depth int) {
	t.Helper()
	h.db.ResetCounter()
	user := e.NewSession()
	q := query.New().WithRange(0, acquireWindow())
	cur := user.NewOneDCursor(q, 0, dir, Rerank)
	got, err := TopH(cur, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("warmed window returned no tuples")
	}
	if n := h.db.QueryCount(); n != 0 {
		t.Errorf("user query over warmed window (dir %v) cost %d upstream, want 0", dir, n)
	}
	if n := user.Queries(); n != 0 {
		t.Errorf("user session charged %d queries for a warmed window, want 0", n)
	}
}

// TestWarmWindowLedgerSeparation: acquisition cost lands on the acquirer's
// session and the engine-wide counter, never on a later user session — and
// the warmed window answers users for zero upstream in both directions.
func TestWarmWindowLedgerSeparation(t *testing.T) {
	const depth = 12
	e, h := warmedEngine(t, depth)
	if got := e.Queries(); got != h.acquired {
		t.Fatalf("engine-wide counter %d, want acquirer's %d", got, h.acquired)
	}
	assertUserFree(t, e, h, ranking.Asc, depth)
	assertUserFree(t, e, h, ranking.Desc, depth)
	// A shallower user query replays a strict prefix of the cached stream.
	assertUserFree(t, e, h, ranking.Asc, depth/2)
}

// TestWarmWindowSurvivesRestart: the acquired knowledge — dense coverage,
// history, and the cached probe stream — survives a checkpointed restart,
// so the warmed window still answers users for zero upstream afterwards.
func TestWarmWindowSurvivesRestart(t *testing.T) {
	const depth = 12
	e1, h := warmedEngine(t, depth)
	e2 := reopenViaStore(t, e1)
	if !e2.WindowWarm(0, acquireWindow()) {
		t.Fatal("warm marker lost across restart")
	}
	assertUserFree(t, e2, h, ranking.Asc, depth)
	assertUserFree(t, e2, h, ranking.Desc, depth)
}

// TestWarmWindowAbort: an abort hook that fires mid-acquisition surfaces
// ErrAcquireAborted without charging further probes.
func TestWarmWindowAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db, _ := newTestDB(t, rng, 2, 500, 10, false, nil)
	e := NewEngine(db, Options{N: 500})
	acq := e.NewSession()
	var probes atomic.Int64
	acq.SetAbort(func() bool { return probes.Add(1) > 3 })
	err := acq.WarmWindow(0, acquireWindow(), 12)
	if !errors.Is(err, ErrAcquireAborted) {
		t.Fatalf("aborted WarmWindow returned %v, want ErrAcquireAborted", err)
	}
	// abort fires from the 4th poll on, and every probe polls first: at
	// most 3 probes can have reached the upstream.
	if charged := acq.Queries(); charged > 3 {
		t.Fatalf("aborted acquisition kept issuing: session charged %d, want ≤ 3", charged)
	}
	// The abort is sticky here, so a retry aborts immediately at cost 0.
	before := acq.Queries()
	if err := acq.WarmWindow(0, acquireWindow(), 12); !errors.Is(err, ErrAcquireAborted) {
		t.Fatalf("retry returned %v, want ErrAcquireAborted", err)
	}
	if acq.Queries() != before {
		t.Fatal("aborted retry still charged the session")
	}
}

// TestHeatRestartRoundTrip: the request-heat sketch rides the checkpoint
// and restores candidate-for-candidate, so acquisition resumes where it left
// off after a drain/restart.
func TestHeatRestartRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	db, _ := newTestDB(t, rng, 2, 200, 10, false, nil)
	e1 := persistedEngine(t, db, Options{N: 200})
	hot := query.New().WithRange(0, types.ClosedInterval(10, 20))
	warm := query.New().WithRange(1, types.ClosedInterval(50, 60))
	for i := 0; i < 5; i++ {
		e1.RecordHeat(hot)
	}
	e1.RecordHeat(warm)
	want := e1.Heat().Candidates(4)
	if len(want) != 2 || want[0].Window.Attr != 0 {
		t.Fatalf("precondition: candidates = %+v", want)
	}

	e2 := reopenViaStore(t, e1)
	got := e2.Heat().Candidates(4)
	if len(got) != len(want) {
		t.Fatalf("restored %d heat candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Window != want[i].Window {
			t.Fatalf("candidate %d window %+v, want %+v", i, got[i].Window, want[i].Window)
		}
		if got[i].Heat < want[i].Heat*0.99 || got[i].Heat > want[i].Heat*1.01 {
			t.Fatalf("candidate %d heat %g, want ≈%g", i, got[i].Heat, want[i].Heat)
		}
	}
}

// TestHeatCheckpointRoundTrip: heat rides incremental checkpoints — it is
// committed when observations advanced, skipped when nothing changed, and
// replays into a restarted engine.
func TestHeatCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	db, _ := newTestDB(t, rng, 2, 200, 10, false, nil)
	e1 := persistedEngine(t, db, Options{N: 200})
	p1 := e1.Persister()
	hot := query.New().WithRange(0, types.ClosedInterval(10, 20))
	for i := 0; i < 5; i++ {
		e1.RecordHeat(hot)
	}
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	records := e1.Stats().PersistJournalRecords
	if records == 0 {
		t.Fatal("heat-only change produced no checkpoint record")
	}
	// Nothing changed since: the next checkpoint must write nothing.
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e1.Stats().PersistJournalRecords; got != records {
		t.Fatalf("idle checkpoint appended a record (%d -> %d)", records, got)
	}

	got := reopenViaStore(t, e1).Heat().Candidates(4)
	if len(got) != 1 || got[0].Window.Attr != 0 || got[0].Window.Lo != 10 || got[0].Window.Hi != 20 {
		t.Fatalf("restored heat candidates = %+v, want the hot window on attr 0", got)
	}
}
