// The Knowledge layer: the concurrency-safe shared state of an Engine.
//
// Everything the paper amortizes across user queries lives here — the
// cross-query answer history (§3.1.1), the crawled regions of the on-the-fly
// dense indexes (§3.2.2, §4.4), and the lifetime upstream-query counter. The
// history arena is the only tuple store: a crawled region, like a probe
// fact, is a box, an epoch and the arena rows inside the box. All of it is
// guarded internally (the history store shards its sorted indexes per
// attribute with incremental run+buffer maintenance, the crawled facts carry
// their own RWMutex, the counter is atomic), so arbitrarily many Sessions
// on arbitrarily many goroutines read and grow the same knowledge while
// checkpoints capture it live.

package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/acquire"
	"repro/internal/history"
	"repro/internal/types"
)

// FirstEpoch is the knowledge epoch everything starts in. Epochs only move
// forward; knowledge whose epoch trails the current one is *stale* — still
// authoritative about what the upstream looked like when it was learned, but
// requiring one confirming probe before it may answer again (lazy
// re-validation).
const FirstEpoch int64 = 1

// Knowledge is the shared, concurrency-safe state of one Engine: the answer
// history, the crawled regions, and the upstream-query counter. It is
// what makes later queries cheaper than earlier ones, regardless of which
// user (session) issued them.
type Knowledge struct {
	hist    *history.Store
	crawled *crawledFacts

	queries atomic.Int64 // upstream queries issued through the engine

	// epoch is the namespace's current knowledge epoch. Every crawled region,
	// probe fact, and history watermark records the epoch it was
	// learned under; a sentinel-detected upstream drift bumps this counter,
	// turning everything learned earlier stale. Stale knowledge is
	// re-validated lazily on first touch (one confirming probe), never
	// discarded wholesale.
	epoch atomic.Int64
	// histStaleRows is the history row watermark at the last epoch bump:
	// rows below it were learned under an earlier epoch. History rows are
	// candidate hints that always get probe-confirmed before use, so the
	// watermark is observability, not a correctness gate.
	histStaleRows atomic.Int64
	// Lazy re-validation outcomes for crawled regions (the probe cache keeps
	// its own pair in the coalescer).
	denseRevalPromoted atomic.Int64
	denseRevalEvicted  atomic.Int64

	// heat is the request-window heat sketch feeding the background
	// acquirer: which exact windows users queried recently, with
	// exponential decay. Fed by RecordHeat on the request path; persisted
	// in checkpoints so acquisition resumes after restarts.
	heat *acquire.Sketch

	// persist, when attached, records crawled-region inserts so incremental
	// checkpoints can persist them. History needs no recording hook: the
	// append-only arena's row watermark already identifies what is new.
	persist atomic.Pointer[Persister]
}

// newKnowledge builds an empty knowledge layer over the given schema.
func newKnowledge(schema *types.Schema) *Knowledge {
	hist := history.NewStore(schema)
	k := &Knowledge{
		hist:    hist,
		crawled: &crawledFacts{hist: hist},
		heat:    acquire.NewSketch(schema),
	}
	k.epoch.Store(FirstEpoch)
	return k
}

// Epoch returns the current knowledge epoch.
func (k *Knowledge) Epoch() int64 { return k.epoch.Load() }

// EpochBumps returns how many drift-triggered bumps the epoch has seen.
func (k *Knowledge) EpochBumps() int64 { return k.epoch.Load() - FirstEpoch }

// BumpEpoch advances the knowledge epoch (a sentinel detected upstream
// drift), marks the current history rows stale, records the bump for
// persistence, and returns the new epoch.
func (k *Knowledge) BumpEpoch() int64 {
	e := k.epoch.Add(1)
	k.histStaleRows.Store(int64(k.hist.Rows()))
	if p := k.persist.Load(); p != nil {
		// A bump is durable knowledge in its own right: losing it would
		// resurrect stale regions as current after a restart.
		p.record(pendingOp{bump: true, epoch: e})
	}
	return e
}

// restoreEpoch moves the epoch forward to e (journal replay).
// Epochs never move backward; an older restore is a no-op.
func (k *Knowledge) restoreEpoch(e int64) {
	for {
		cur := k.epoch.Load()
		if e <= cur || k.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// StaleHistoryRows returns the history row watermark below which rows were
// learned under an earlier epoch.
func (k *Knowledge) StaleHistoryRows() int64 { return k.histStaleRows.Load() }

// StaleRegions counts crawled regions whose epoch trails the current one —
// knowledge awaiting lazy re-validation.
func (k *Knowledge) StaleRegions() int {
	cur := k.Epoch()
	return k.crawled.count(func(f *fact) bool { return f.epoch < cur })
}

// Queries returns the number of upstream queries issued so far (coalesced
// probes count once).
func (k *Knowledge) Queries() int64 { return k.queries.Load() }

// insertCrawled records a crawled box — ranges ascending by attribute — with
// every tuple inside it at the current epoch, and records the insert for
// incremental persistence. The tuples are named by their arena rows (added
// first when no probe brought them in), so a region's rows always precede its
// journal record. Live inserts must go through here rather than the crawled
// set directly, so no acquired knowledge is invisible to the next checkpoint.
func (k *Knowledge) insertCrawled(rs []factRange, tuples []types.Tuple) {
	rows, epoch := k.hist.AddRows(tuples), k.Epoch()
	k.crawled.insert(rs, rows, epoch)
	if p := k.persist.Load(); p != nil {
		p.record(pendingOp{ranges: slices.Clone(rs), rows: rows, crawled: true, epoch: epoch})
	}
}
