// Incremental knowledge persistence: the engine side of the segment store.
//
// A Persister turns the engine's accumulated knowledge into a stream of
// checkpoint deltas (segment.Delta) committed through a segment.Store, and
// replays a store's committed deltas back into a fresh engine at startup.
// This is the only path by which knowledge reaches or leaves disk:
// buildDelta is the one encoder and applyDelta the one decoder. A checkpoint
// commits only what changed since the previous one, so it runs concurrently
// with serving and a crash loses at most one checkpoint interval of
// knowledge.
//
// # What a delta contains, and how it stays cheap
//
// History needs no per-insert hook: the store's append-only columnar arena
// gives every tuple a monotone row number, so "what is new since the last
// checkpoint" is simply the contiguous row range [histLo, Rows()). Crawled
// region inserts and probe-fact admissions are recorded as logical
// operations by thin wrappers on the live insert paths; replay pushes them
// back through those same live paths, so a rebuilt engine's crawled facts
// and fact index are bit-identical to the saved engine's (asserted by
// TestReopenRebuildsDenseStructures).
//
// Both are one kind of record: a box (the probe's structured query, the
// region's ranges) plus the arena ROWS it cites. A probe's page and a
// region's tuples enter the arena before the record is queued, so the rows
// lie below the watermark of the checkpoint that captures the op, replaying
// the committed row ranges in order reproduces the same row numbers, and
// every committed delta is self-contained given its committed predecessors.
// Rows never change, so a replayed fact or region holds exactly what the
// upstream said when it was learned, whatever the tuples became since.
//
// # Failure handling
//
// A failed append re-queues the captured operations ahead of anything
// recorded meanwhile and keeps the history watermark, so the next checkpoint
// retries the same knowledge; the store itself rolls the journal back to its
// last committed record. Nothing is ever dropped silently — the last error
// is surfaced through Engine.Stats (PersistLastError).
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/types"
)

// PersistOptions tune AttachPersistence.
type PersistOptions struct {
	// Interval is the background checkpoint period; 0 disables the
	// background loop (checkpoints then happen only via Checkpoint/Close).
	Interval time.Duration
	// Logf, when set, receives background checkpoint failures.
	Logf func(format string, args ...any)
}

// Persister incrementally checkpoints an engine's knowledge into a
// segment.Store. It is safe for concurrent use with serving sessions: the
// recording hooks take a short mutex, and checkpoint capture holds it only
// long enough to swap the pending-operation queue.
type Persister struct {
	e     *Engine
	store *segment.Store
	logf  func(format string, args ...any)

	mu      sync.Mutex
	histLo  int         // next history arena row not yet committed
	ops     []pendingOp // facts and epoch bumps since the last capture
	lastErr error

	stop chan struct{} // closes to stop the background loop (nil when none)
	done chan struct{}
	once sync.Once
}

// pendingOp is one recorded knowledge mutation awaiting checkpoint: a
// coverage fact — a probe answer, or with crawled set a crawled region — or,
// with bump set and nothing but epoch beside it, an epoch bump. The query and
// rows are shared with the engine (engine-wide immutable), not copied.
type pendingOp struct {
	q        query.Query // the probe, or a crawled region's box
	rows     []uint32
	overflow bool  // an overflow page
	crawled  bool  // every tuple of the box: a crawled region
	bump     bool  // an epoch bump
	epoch    int64 // the epoch the fact was learned or confirmed under, or the new epoch of a bump
}

// PersistFingerprint identifies this engine's upstream deployment for the
// segment store: cached probe answers replay one specific upstream's
// responses verbatim, and a crawled region's authority ("these are ALL the
// corpus tuples in this range") assumes the same corpus, so a store written
// under a different schema, k or system ranker is quarantined, never served.
// The ranker name is known only for an in-process hidden.DB; remote
// upstreams leave it empty.
func (e *Engine) PersistFingerprint() segment.Fingerprint {
	fp := segment.Fingerprint{Schema: e.db.Schema().Names(), UpstreamK: e.db.K()}
	if hdb, ok := e.db.(*hidden.DB); ok {
		fp.UpstreamRanker = hdb.RankerName()
	}
	return fp
}

// AttachPersistence replays the store's committed knowledge into the engine,
// then installs the recording hooks and (when opts.Interval > 0) starts the
// background checkpoint loop. Attach to a fresh engine, before serving:
// only knowledge acquired after the hooks are installed is recorded.
//
// The returned Persister owns the store: Close checkpoints once more and
// closes it. At most one Persister may be attached to an engine.
func (e *Engine) AttachPersistence(store *segment.Store, opts PersistOptions) (*Persister, error) {
	if e.persist.Load() != nil {
		return nil, fmt.Errorf("core: persistence already attached")
	}
	if err := store.Replay(func(d *segment.Delta) error { return e.applyDelta(d) }); err != nil {
		return nil, fmt.Errorf("core: segment replay: %w", err)
	}
	p := &Persister{
		e:      e,
		store:  store,
		logf:   opts.Logf,
		histLo: e.hist.Rows(),
	}
	e.persist.Store(p)
	if opts.Interval > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.loop(opts.Interval)
	}
	return p, nil
}

// Persister returns the attached persister, or nil.
func (e *Engine) Persister() *Persister { return e.persist.Load() }

// applyDelta replays one committed delta through the engine's live insert
// paths. Facts and regions cite arena rows, which the delta's own Hist range
// and its predecessors' must have laid down. A dangling row or a malformed
// region means the store's invariants are broken and the error makes Replay
// quarantine from this record on.
func (e *Engine) applyDelta(d *segment.Delta) error {
	if len(d.Hist) > 0 {
		// Facts cite arena rows, so the replayed arena must be the
		// recorded one row for row: same start, and no tuple deduplicated
		// away (a row is only ever exported because Add appended it).
		if rows := e.hist.Rows(); rows != d.HistLo {
			return fmt.Errorf("core: delta carries history rows from %d, arena holds %d", d.HistLo, rows)
		}
		batch := make([]types.Tuple, 0, len(d.Hist))
		for _, st := range d.Hist {
			batch = append(batch, types.Tuple{ID: st.ID, Ord: st.Ord, Cat: st.Cat})
		}
		if n := e.hist.Add(batch...); n != len(batch) {
			return fmt.Errorf("core: delta history rows [%d,%d) replayed as %d rows", d.HistLo, d.HistHi, n)
		}
	}
	// Restore the epoch before region inserts so that any region this delta
	// carries at the (now current) epoch reads as fresh, not stale.
	if d.Epoch > 0 {
		e.restoreEpoch(d.Epoch)
	}
	rows := uint32(e.hist.Rows())
	for _, op := range d.Probes {
		for _, row := range op.Rows {
			if row >= rows {
				return fmt.Errorf("core: delta fact cites arena row %d of %d", row, rows)
			}
		}
		if op.Crawled {
			if err := e.applyCrawled(op); err != nil {
				return err
			}
			continue
		}
		// A (corrupt) record naming one attribute twice replays its later
		// range on that attribute alone, not the intersection.
		q := query.New()
		for i, r := range op.Ranges {
			if !slices.ContainsFunc(op.Ranges[i+1:], func(o segment.ProbeRange) bool { return o.Attr == r.Attr }) {
				q.AddRange(r.Attr, rangeInterval(r))
			}
		}
		for name, value := range op.Cats {
			q = q.WithCat(name, value)
		}
		e.facts.learn(q.String(), q, op.Rows, op.Overflow, epochOrFirst(op.Epoch))
	}
	// d.Queries is informational (lifetime counter at capture time) and not
	// restored: a restarted engine's counter measures cost paid by THIS
	// process.
	return nil
}

// applyCrawled replays one crawled-region record into the crawled facts.
func (e *Engine) applyCrawled(op segment.ProbeOp) error {
	if op.Overflow || len(op.Cats) > 0 || len(op.Ranges) == 0 {
		return fmt.Errorf("core: delta crawled region with %d ranges, %d categorical predicates, overflow=%v",
			len(op.Ranges), len(op.Cats), op.Overflow)
	}
	schema := e.db.Schema()
	var box query.Query
	for i, r := range op.Ranges {
		if r.Attr < 0 || r.Attr >= schema.Len() || schema.Attr(r.Attr).Kind != types.Ordinal ||
			(i > 0 && r.Attr <= op.Ranges[i-1].Attr) {
			return fmt.Errorf("core: delta crawled region ranges attribute %d out of order or not ordinal", r.Attr)
		}
		iv := rangeInterval(r)
		if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			return fmt.Errorf("core: delta crawled region bound %s on attribute %d is not finite", iv, r.Attr)
		}
		box.AddRange(r.Attr, iv)
	}
	e.crawled.insert(box, op.Rows, epochOrFirst(op.Epoch))
	return nil
}

// record queues one knowledge mutation for the next checkpoint.
func (p *Persister) record(op pendingOp) {
	p.mu.Lock()
	p.ops = append(p.ops, op)
	p.mu.Unlock()
}

// Checkpoint captures everything recorded since the last successful
// checkpoint and commits it as one delta. Concurrent sessions keep serving
// (and recording) throughout: capture is a queue swap under a short mutex,
// and the delta is built and written entirely off-lock. An empty capture
// writes nothing. On append failure the captured work is re-queued and the
// error is also surfaced via Engine.Stats.
func (p *Persister) Checkpoint() error {
	p.mu.Lock()
	ops := p.ops
	p.ops = nil
	histLo := p.histLo
	p.mu.Unlock()

	// The watermark is read AFTER the queue swap: every row a captured op
	// cites reached the arena before the op was recorded, hence is below this
	// histHi and commits in this very delta or an earlier one.
	histHi := p.e.hist.Rows()
	d := p.buildDelta(histLo, histHi, ops)
	if d.Empty() {
		return nil
	}
	if err := p.store.Append(d); err != nil {
		p.mu.Lock()
		p.ops = append(ops, p.ops...) // retry before anything recorded since
		p.lastErr = err
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	p.histLo = histHi
	p.lastErr = nil
	p.mu.Unlock()
	return nil
}

// buildDelta assembles one checkpoint delta: the new history row range plus
// the captured operations.
func (p *Persister) buildDelta(histLo, histHi int, ops []pendingOp) *segment.Delta {
	d := &segment.Delta{HistLo: histLo, HistHi: histHi, Queries: p.e.queries.Load()}
	for _, t := range p.e.hist.ExportRows(histLo, histHi) {
		d.Hist = append(d.Hist, segment.Tuple{ID: t.ID, Ord: t.Ord, Cat: t.Cat})
	}
	for _, op := range ops {
		if op.bump {
			d.Epoch = max(d.Epoch, op.epoch)
			continue
		}
		po := segment.ProbeOp{Rows: op.rows, Overflow: op.overflow, Crawled: op.crawled, Epoch: op.epoch}
		for _, r := range op.q.Ranges() {
			po.Ranges = append(po.Ranges, segment.ProbeRange{Attr: r.Attr,
				Lo: segment.Bound(r.Iv.Lo), Hi: segment.Bound(r.Iv.Hi), LoOpen: r.Iv.LoOpen, HiOpen: r.Iv.HiOpen})
		}
		if cats := op.q.Cats(); len(cats) > 0 {
			po.Cats = make(map[string]string, len(cats))
			for _, c := range cats {
				po.Cats[c.Name] = c.Value
			}
		}
		d.Probes = append(d.Probes, po)
	}
	return d
}

// loop runs background checkpoints until Close.
func (p *Persister) loop(interval time.Duration) {
	defer close(p.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if err := p.Checkpoint(); err != nil && p.logf != nil {
				p.logf("checkpoint failed (will retry): %v", err)
			}
		}
	}
}

// Close stops the background loop, takes one final checkpoint, detaches the
// recording hooks, and closes the store. Safe to call more than once.
func (p *Persister) Close() error {
	var err error
	p.once.Do(func() {
		if p.stop != nil {
			close(p.stop)
			<-p.done
		}
		err = p.Checkpoint()
		p.e.persist.CompareAndSwap(p, nil)
		if cerr := p.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// stats fills st's Persist* gauges.
func (p *Persister) stats(st *Stats) {
	p.mu.Lock()
	st.PersistPendingOps = len(p.ops)
	if p.lastErr != nil {
		st.PersistLastError = p.lastErr.Error()
	}
	p.mu.Unlock()
	ss := p.store.Stats()
	st.PersistEnabled = true
	st.PersistSeq = int64(ss.Seq)
	st.PersistCheckpoints = ss.Checkpoints
	st.PersistCompactions = ss.Compactions
	st.PersistJournalRecords = ss.JournalRecords
	st.PersistSegmentFiles = ss.SegmentFiles
	st.PersistReplayedDeltas = ss.ReplayedDeltas
	st.PersistBytesAppended = ss.BytesAppended
}

func rangeInterval(r segment.ProbeRange) types.Interval {
	return types.Interval{Lo: float64(r.Lo), Hi: float64(r.Hi), LoOpen: r.LoOpen, HiOpen: r.HiOpen}
}

// epochOrFirst maps a persisted epoch to its replay value: 0 (older
// formats without epoch fields) means the first epoch.
func epochOrFirst(e int64) int64 {
	if e <= 0 {
		return FirstEpoch
	}
	return e
}
