// The Knowledge layer: the concurrency-safe shared state of an Engine.
//
// Everything the paper amortizes across user queries lives here — the
// cross-query answer history (§3.1.1), the 1D and MD dense-region indexes
// (§3.2.2, §4.4), and the lifetime upstream-query counter. The history arena
// is the only tuple store: a crawled region, like a probe fact, is a box, an
// epoch and the arena rows inside the box. All of it is
// guarded internally (the history store shards its sorted indexes per
// attribute with incremental run+buffer maintenance, the dense indexes carry
// their own RWMutexes, the counter is atomic), so arbitrarily many Sessions
// on arbitrarily many goroutines read and grow the same knowledge while
// checkpoints capture it live.

package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/acquire"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/types"
)

// Knowledge is the shared, concurrency-safe state of one Engine: the answer
// history, the dense-region indexes, and the upstream-query counter. It is
// what makes later queries cheaper than earlier ones, regardless of which
// user (session) issued them.
type Knowledge struct {
	hist   *history.Store
	dense1 *index.Dense1D

	mdMu    sync.Mutex
	denseMD map[string]*index.DenseMD // keyed by ranked-attribute signature

	queries atomic.Int64 // upstream queries issued through the engine

	// epoch is the namespace's current knowledge epoch. Every dense region,
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
	// Lazy re-validation outcomes for dense regions (the probe cache keeps
	// its own pair in the coalescer).
	denseRevalPromoted atomic.Int64
	denseRevalEvicted  atomic.Int64

	// heat is the request-window heat sketch feeding the background
	// acquirer: which exact windows users queried recently, with
	// exponential decay. Fed by RecordHeat on the request path; persisted
	// in checkpoints so acquisition resumes after restarts.
	heat *acquire.Sketch

	// persist, when attached, records dense-region inserts so incremental
	// checkpoints can persist them. History needs no recording hook: the
	// append-only arena's row watermark already identifies what is new.
	persist atomic.Pointer[Persister]
}

// newKnowledge builds an empty knowledge layer over the given schema.
func newKnowledge(schema *types.Schema) *Knowledge {
	hist := history.NewStore(schema)
	k := &Knowledge{
		hist:    hist,
		dense1:  index.NewDense1D(hist),
		denseMD: make(map[string]*index.DenseMD),
		heat:    acquire.NewSketch(schema),
	}
	k.epoch.Store(index.FirstEpoch)
	return k
}

// Epoch returns the current knowledge epoch.
func (k *Knowledge) Epoch() int64 { return k.epoch.Load() }

// EpochBumps returns how many drift-triggered bumps the epoch has seen.
func (k *Knowledge) EpochBumps() int64 { return k.epoch.Load() - index.FirstEpoch }

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

// StaleRegions counts dense regions (1D and MD) whose epoch trails the
// current one — knowledge awaiting lazy re-validation.
func (k *Knowledge) StaleRegions() int {
	cur := k.Epoch()
	n := k.dense1.StaleCount(cur)
	for _, e := range k.mdIndexes() {
		n += e.StaleCount(cur)
	}
	return n
}

// History returns the cross-query tuple cache. Safe for concurrent use.
func (k *Knowledge) History() *history.Store { return k.hist }

// DenseIndex1D returns the 1D dense-region index. Safe for concurrent use.
func (k *Knowledge) DenseIndex1D() *index.Dense1D { return k.dense1 }

// Queries returns the number of upstream queries issued so far (coalesced
// probes count once).
func (k *Knowledge) Queries() int64 { return k.queries.Load() }

// Heat returns the request-window heat sketch. Safe for concurrent use.
func (k *Knowledge) Heat() *acquire.Sketch { return k.heat }

// mdIndexFor returns the MD dense index shared by all rankers over the same
// attribute subset, creating it on first use.
func (k *Knowledge) mdIndexFor(attrs []int) *index.DenseMD {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	key := attrsKey(sorted)
	k.mdMu.Lock()
	defer k.mdMu.Unlock()
	idx, ok := k.denseMD[key]
	if !ok {
		idx = index.NewDenseMD()
		k.denseMD[key] = idx
	}
	return idx
}

// mdIndexes returns the MD dense indexes of every attribute subset, copied
// out from under mdMu so callers can take each index's own lock.
func (k *Knowledge) mdIndexes() []*index.DenseMD {
	k.mdMu.Lock()
	defer k.mdMu.Unlock()
	out := make([]*index.DenseMD, 0, len(k.denseMD))
	for _, idx := range k.denseMD {
		out = append(out, idx)
	}
	return out
}

// InsertDense1 inserts a fully-crawled 1D dense region into the shared index
// at the current epoch and records the insert for incremental persistence.
// The tuples are named by their arena rows (added first when no probe brought
// them in), so a region's rows always precede its journal record. Live region
// inserts must go through this wrapper rather than the index directly, so no
// acquired knowledge is invisible to the next checkpoint.
func (k *Knowledge) InsertDense1(attr int, iv types.Interval, tuples []types.Tuple) {
	rows, epoch := k.hist.AddRows(tuples), k.Epoch()
	k.dense1.Insert(attr, iv, rows, epoch)
	if p := k.persist.Load(); p != nil {
		p.record(pendingOp{ranges: []factRange{{attr, iv}}, rows: rows, crawled: true, epoch: epoch})
	}
}

// InsertDenseMD inserts a fully-crawled MD dense region — box dimensions in
// the order of attrs, which must ascend — at the current epoch and records
// the insert for incremental persistence. See InsertDense1 for how tuples are
// named and why inserts must route through this wrapper.
func (k *Knowledge) InsertDenseMD(attrs []int, box query.Box, tuples []types.Tuple) {
	rows, epoch := k.hist.AddRows(tuples), k.Epoch()
	k.mdIndexFor(attrs).Insert(box, rows, epoch)
	if p := k.persist.Load(); p != nil {
		ranges := make([]factRange, len(attrs))
		for i, attr := range attrs {
			ranges[i] = factRange{attr, box.Dims[i]}
		}
		p.record(pendingOp{ranges: ranges, rows: rows, crawled: true, epoch: epoch})
	}
}

// MDBucketStats aggregates every MD dense index's centroid-grid statistics:
// total regions, total occupied buckets, the worst single bucket, and loose
// (ungridded) regions — the observability handle for the sub-linear lookup
// claim (§4.4 oracle cost stays flat as knowledge grows).
func (k *Knowledge) MDBucketStats() index.GridStats {
	var st index.GridStats
	for _, e := range k.mdIndexes() {
		s := e.Stats()
		st.Regions += s.Regions
		st.Buckets += s.Buckets
		st.Loose += s.Loose
		if s.MaxBucket > st.MaxBucket {
			st.MaxBucket = s.MaxBucket
		}
	}
	return st
}

// MDRegions returns the total number of crawled MD dense regions across all
// attribute subsets — the regions a restarted engine can answer locally.
func (k *Knowledge) MDRegions() int {
	n := 0
	for _, e := range k.mdIndexes() {
		n += e.Len()
	}
	return n
}
