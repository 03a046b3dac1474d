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
// checkpoint" is simply the contiguous row range [histLo, Rows()). Dense
// region inserts and probe-fact admissions are recorded as logical
// operations by thin wrappers on the live insert paths; replay pushes them
// back through those same live paths, so a rebuilt engine's index structures
// are bit-identical to the saved engine's (asserted by
// TestReopenRebuildsDenseStructures).
//
// A probe fact is recorded as its structured query plus the arena ROWS it
// cites. Its page entered the arena before the fact existed, so the rows lie
// below the watermark of the checkpoint that captures the op, and replaying
// the committed row ranges in order reproduces the same row numbers. Dense
// regions reference tuples by ID; one is normally covered by the committed
// history prefix (crawls probe through the coalescing layer, which stores
// every page), and when it is not — a region inserted through the Knowledge
// API with tuples no probe brought in — its payload is inlined into the
// delta's Tuples section, so every committed delta is self-contained given
// its committed predecessors.
//
// # Failure handling
//
// A failed append re-queues the captured operations ahead of anything
// recorded meanwhile and keeps the history watermark, so the next checkpoint
// retries the same knowledge; the store itself rolls the journal back to its
// last committed record. Nothing is ever dropped silently — the last error
// is surfaced through Stats.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hidden"
	"repro/internal/index"
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
	heatObs int64       // heat-sketch observation count at last committed capture
	ops     []pendingOp // dense/probe mutations since the last capture
	lastErr error

	stop chan struct{} // closes to stop the background loop (nil when none)
	done chan struct{}
	once sync.Once
}

type opKind int

const (
	opDense1 opKind = iota
	opDenseMD
	opProbe
	opEpoch
)

// pendingOp is one recorded knowledge mutation awaiting checkpoint. The
// tuple slice is shared with the engine (engine-wide immutable), not copied.
type pendingOp struct {
	kind   opKind
	attr   int            // opDense1
	iv     types.Interval // opDense1
	attrs  []int          // opDenseMD, canonical sorted order
	box    query.Box      // opDenseMD
	fact   *fact          // opProbe; immutable apart from its epoch, which epoch below pins
	tuples []types.Tuple  // opDense1, opDenseMD
	epoch  int64          // acquisition epoch (opDense1/opDenseMD/opProbe), or the new epoch (opEpoch)
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
	if e.know.persist.Load() != nil {
		return nil, fmt.Errorf("core: persistence already attached")
	}
	if err := store.Replay(func(d *segment.Delta) error { return e.applyDelta(d) }); err != nil {
		return nil, fmt.Errorf("core: segment replay: %w", err)
	}
	p := &Persister{
		e:       e,
		store:   store,
		logf:    opts.Logf,
		histLo:  e.know.hist.Rows(),
		heatObs: e.know.heat.Observations(),
	}
	e.know.persist.Store(p)
	e.probes.persist.Store(p)
	if opts.Interval > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.loop(opts.Interval)
	}
	return p, nil
}

// Persister returns the attached persister, or nil.
func (e *Engine) Persister() *Persister { return e.know.persist.Load() }

// applyDelta replays one committed delta through the engine's live insert
// paths. Dense-region tuple IDs resolve from the delta itself (its Hist
// range and inline Tuples) or from history committed by earlier deltas;
// probe facts cite arena rows, which the delta's own Hist range and its
// predecessors' must have laid down. An unresolvable reference means the
// store's invariants are broken and the error makes Replay quarantine from
// this record on.
func (e *Engine) applyDelta(d *segment.Delta) error {
	if len(d.Hist) > 0 {
		// Probe facts cite arena rows, so the replayed arena must be the
		// recorded one row for row: same start, and no tuple deduplicated
		// away (a row is only ever exported because Add appended it).
		if rows := e.know.hist.Rows(); rows != d.HistLo {
			return fmt.Errorf("core: delta carries history rows from %d, arena holds %d", d.HistLo, rows)
		}
		batch := make([]types.Tuple, 0, len(d.Hist))
		for _, st := range d.Hist {
			batch = append(batch, types.Tuple{ID: st.ID, Ord: st.Ord, Cat: st.Cat})
		}
		if n := e.know.hist.Add(batch...); n != len(batch) {
			return fmt.Errorf("core: delta history rows [%d,%d) replayed as %d rows", d.HistLo, d.HistHi, n)
		}
	}
	inline := make(map[int]types.Tuple, len(d.Tuples))
	for _, st := range d.Tuples {
		inline[st.ID] = types.Tuple{ID: st.ID, Ord: st.Ord, Cat: st.Cat}
	}
	resolve := func(ids []int) ([]types.Tuple, error) {
		tuples := make([]types.Tuple, 0, len(ids))
		for _, id := range ids {
			t, ok := inline[id]
			if !ok {
				if t, ok = e.know.hist.Get(id); !ok {
					return nil, fmt.Errorf("core: delta references unknown tuple %d", id)
				}
			}
			tuples = append(tuples, t)
		}
		return tuples, nil
	}
	// Restore the epoch before region inserts so that any region this delta
	// carries at the (now current) epoch reads as fresh, not stale.
	if d.Epoch > 0 {
		e.know.restoreEpoch(d.Epoch)
	}
	for _, op := range d.Dense1 {
		tuples, err := resolve(op.IDs)
		if err != nil {
			return err
		}
		e.know.dense1.InsertEpoch(op.Attr, coreInterval(op.Dim), tuples, epochOrFirst(op.Epoch))
	}
	for _, op := range d.DenseMD {
		if len(op.Attrs) == 0 || len(op.Dims) != len(op.Attrs) {
			return fmt.Errorf("core: delta MD region has %d dims for %d attributes", len(op.Dims), len(op.Attrs))
		}
		tuples, err := resolve(op.IDs)
		if err != nil {
			return err
		}
		box := query.Box{Dims: make([]types.Interval, len(op.Dims))}
		for i, dim := range op.Dims {
			box.Dims[i] = coreInterval(dim)
		}
		e.know.mdIndexFor(op.Attrs).InsertEpoch(box, tuples, epochOrFirst(op.Epoch))
	}
	rows := uint32(e.know.hist.Rows())
	for _, op := range d.Probes {
		q := query.New()
		for _, r := range op.Ranges {
			q.Ranges[r.Attr] = types.Interval{Lo: float64(r.Lo), Hi: float64(r.Hi), LoOpen: r.LoOpen, HiOpen: r.HiOpen}
		}
		for name, value := range op.Cats {
			q.Cats[name] = value
		}
		for _, row := range op.Rows {
			if row >= rows {
				return fmt.Errorf("core: delta probe fact cites arena row %d of %d", row, rows)
			}
		}
		e.probes.seed(q, op.Rows, op.Overflow, epochOrFirst(op.Epoch))
	}
	// Heat is last-wins across deltas and Import is idempotent, so replaying
	// a committed prefix (or the same delta twice after a retry) converges.
	e.know.heat.Import(d.Heat)
	// d.Queries is informational (lifetime counter at capture time) and not
	// restored: a restarted engine's counter measures cost paid by THIS
	// process.
	return nil
}

// recordDense1 queues a 1D dense-region insert for the next checkpoint.
func (p *Persister) recordDense1(attr int, iv types.Interval, tuples []types.Tuple, epoch int64) {
	p.mu.Lock()
	p.ops = append(p.ops, pendingOp{kind: opDense1, attr: attr, iv: iv, tuples: tuples, epoch: epoch})
	p.mu.Unlock()
}

// recordDenseMD queues an MD dense-region insert for the next checkpoint.
// attrs must already be in canonical sorted order (Knowledge.InsertDenseMD
// guarantees this).
func (p *Persister) recordDenseMD(attrs []int, box query.Box, tuples []types.Tuple, epoch int64) {
	p.mu.Lock()
	p.ops = append(p.ops, pendingOp{kind: opDenseMD, attrs: attrs, box: box, tuples: tuples, epoch: epoch})
	p.mu.Unlock()
}

// recordProbe queues a probe fact, as admitted or confirmed at epoch, for
// the next checkpoint.
func (p *Persister) recordProbe(f *fact, epoch int64) {
	p.mu.Lock()
	p.ops = append(p.ops, pendingOp{kind: opProbe, fact: f, epoch: epoch})
	p.mu.Unlock()
}

// recordEpoch queues a knowledge-epoch bump for the next checkpoint. A bump
// is durable knowledge in its own right: losing it would resurrect stale
// regions as current after a restart.
func (p *Persister) recordEpoch(epoch int64) {
	p.mu.Lock()
	p.ops = append(p.ops, pendingOp{kind: opEpoch, epoch: epoch})
	p.mu.Unlock()
}

// Checkpoint captures everything recorded since the last successful
// checkpoint and commits it as one delta. Concurrent sessions keep serving
// (and recording) throughout: capture is a queue swap under a short mutex,
// and the delta is built and written entirely off-lock. An empty capture
// writes nothing. On append failure the captured work is re-queued and the
// error is also surfaced via Stats.
func (p *Persister) Checkpoint() error {
	p.mu.Lock()
	ops := p.ops
	p.ops = nil
	histLo := p.histLo
	heatObs := p.heatObs
	p.mu.Unlock()

	// The watermark is read AFTER the queue swap: any tuple a captured op
	// references that reached history before the op was recorded is below
	// this histHi, so it commits by reference in this very delta.
	histHi := p.e.know.hist.Rows()
	d := p.buildDelta(histLo, histHi, ops)
	// Heat rides the delta only when observations advanced since the last
	// committed capture, so an idle engine stays checkpoint-quiet. The
	// observation count is read BEFORE the export: observations arriving in
	// between are exported now and re-exported next time — harmless, since
	// Import is idempotent — whereas the opposite order could mark them
	// committed without capturing them.
	obs := p.e.know.heat.Observations()
	if obs != heatObs {
		d.Heat = p.e.know.heat.Export()
	}
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
	p.heatObs = obs
	p.lastErr = nil
	p.mu.Unlock()
	return nil
}

// buildDelta assembles one checkpoint delta: the new history row range plus
// the captured operations, inlining payloads for any tuple a dense region
// references that the committed history prefix does not cover.
func (p *Persister) buildDelta(histLo, histHi int, ops []pendingOp) *segment.Delta {
	d := &segment.Delta{HistLo: histLo, HistHi: histHi, Queries: p.e.know.queries.Load()}
	hist := p.e.know.hist
	for _, t := range hist.ExportRows(histLo, histHi) {
		d.Hist = append(d.Hist, segTuple(t))
	}
	inlined := make(map[int]bool)
	resolve := func(tuples []types.Tuple) []int {
		ids := make([]int, 0, len(tuples))
		for _, t := range tuples {
			ids = append(ids, t.ID)
			if row, ok := hist.RowOf(t.ID); ok && row < histHi {
				continue // committed by this delta's Hist range or earlier
			}
			if !inlined[t.ID] {
				inlined[t.ID] = true
				d.Tuples = append(d.Tuples, segTuple(t))
			}
		}
		return ids
	}
	for _, op := range ops {
		switch op.kind {
		case opDense1:
			d.Dense1 = append(d.Dense1, segment.Dense1Op{Attr: op.attr, Dim: segDim(op.iv), IDs: resolve(op.tuples), Epoch: op.epoch})
		case opDenseMD:
			md := segment.MDOp{Attrs: op.attrs, Dims: make([]segment.Dim, len(op.box.Dims)), IDs: resolve(op.tuples), Epoch: op.epoch}
			for i, iv := range op.box.Dims {
				md.Dims[i] = segDim(iv)
			}
			d.DenseMD = append(d.DenseMD, md)
		case opProbe:
			po := segment.ProbeOp{Rows: op.fact.rows, Overflow: op.fact.partial, Epoch: op.epoch}
			for _, r := range op.fact.ranges {
				po.Ranges = append(po.Ranges, segment.ProbeRange{Attr: r.attr,
					Lo: segment.Bound(r.iv.Lo), Hi: segment.Bound(r.iv.Hi), LoOpen: r.iv.LoOpen, HiOpen: r.iv.HiOpen})
			}
			for _, c := range op.fact.cats {
				if po.Cats == nil {
					po.Cats = make(map[string]string, len(op.fact.cats))
				}
				po.Cats[c.name] = c.value
			}
			d.Probes = append(d.Probes, po)
		case opEpoch:
			if op.epoch > d.Epoch {
				d.Epoch = op.epoch
			}
		}
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
		p.e.know.persist.CompareAndSwap(p, nil)
		p.e.probes.persist.CompareAndSwap(p, nil)
		if cerr := p.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// PersistStats describes the persister's progress for observability.
type PersistStats struct {
	// Store mirrors the underlying segment store's counters.
	Store segment.Stats
	// PendingOps is the number of recorded operations awaiting checkpoint.
	PendingOps int
	// HistLo is the history row watermark: rows below it are committed.
	HistLo int
	// LastError is the most recent checkpoint failure ("" when healthy).
	LastError string
}

// Stats returns the persister's current counters.
func (p *Persister) Stats() PersistStats {
	p.mu.Lock()
	st := PersistStats{PendingOps: len(p.ops), HistLo: p.histLo}
	if p.lastErr != nil {
		st.LastError = p.lastErr.Error()
	}
	p.mu.Unlock()
	st.Store = p.store.Stats()
	return st
}

func segTuple(t types.Tuple) segment.Tuple {
	return segment.Tuple{ID: t.ID, Ord: t.Ord, Cat: t.Cat}
}

func segDim(iv types.Interval) segment.Dim {
	return segment.Dim{Lo: iv.Lo, Hi: iv.Hi, LoOpen: iv.LoOpen, HiOpen: iv.HiOpen}
}

func coreInterval(d segment.Dim) types.Interval {
	return types.Interval{Lo: d.Lo, Hi: d.Hi, LoOpen: d.LoOpen, HiOpen: d.HiOpen}
}

// epochOrFirst maps a persisted epoch to its replay value: 0 (older
// formats without epoch fields) means the first epoch.
func epochOrFirst(e int64) int64 {
	if e <= 0 {
		return index.FirstEpoch
	}
	return e
}
