// Package core implements the paper's contribution: the query reranking
// algorithms 1D-BASELINE, 1D-BINARY, 1D-RERANK (§3), TA-over-1D-RERANK
// (§4.1), MD-BASELINE (§4.2), MD-BINARY (§4.3) and MD-RERANK (§4.4), all
// exposed through an incremental Get-Next interface (§2.2).
//
// # Concurrency model: Engine and Sessions
//
// An Engine is the long-lived state of one reranking service instance bound
// to one hidden database: everything that amortizes across user queries —
// the cross-query answer history (§3.1.1 "Leveraging History"), the crawled
// regions of the on-the-fly dense indexes (§3.2.2, §4.4), the fact index of
// probe answers, the knowledge epoch and the upstream-query counter. The
// history arena is the only tuple store: a crawled region, like a probe fact,
// is a box, an epoch and the arena rows inside the box. All of it is guarded
// internally (the history store shards its sorted indexes per attribute, the
// fact index and the crawled set carry their own mutexes, counters are
// atomic), so arbitrarily many sessions on arbitrarily many goroutines read
// and grow the same knowledge while checkpoints capture it live.
//
// A Session (see session.go) holds the per-request state: the upstream-cost
// ledger for one unit of work. Cursors — per-(query, ranking function)
// Get-Next iterators — are created from sessions and carry all traversal
// state themselves; each is a sequential object (drive it from one goroutine
// at a time). Every probe over the primary interface goes through one path,
// Session.probe (see coalesce.go): the fact index answers what is already
// known, identical in-flight upstream calls are issued once, and only a call
// that reaches the upstream is charged, so concurrent users with overlapping
// queries do not multiply upstream cost.
//
// Engine.Stats is the one snapshot of the engine's counters — queries,
// probe-fact and certification outcomes, epochs, storage and persistence —
// that a namespace's /v1/stats block and /metrics series render.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/hidden"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// Variant selects which algorithm family a cursor runs.
type Variant int

const (
	// Baseline is 1D-BASELINE / MD-BASELINE.
	Baseline Variant = iota
	// Binary is 1D-BINARY / MD-BINARY.
	Binary
	// Rerank is 1D-RERANK / MD-RERANK (the paper's full algorithms,
	// with on-the-fly dense indexing).
	Rerank
	// TAOverOneD is the §4.1 strawman: Fagin's threshold algorithm
	// driven by per-attribute 1D-RERANK Get-Next cursors. Only valid for
	// multi-attribute rankers.
	TAOverOneD
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "BASELINE"
	case Binary:
		return "BINARY"
	case Rerank:
		return "RERANK"
	case TAOverOneD:
		return "TA-over-1D-RERANK"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options tune an Engine. The zero value enables everything with the
// paper's default parameters.
type Options struct {
	// N is the (estimated) database size used by the dense-region
	// thresholds. Required for Rerank variants; when 0 dense indexing is
	// off (the dense-index ablation) and Rerank degrades to Binary plus
	// baseline finishing.
	N int
	// S is the dense-region population parameter; 0 means the paper's
	// default s = k·log2(n).
	S float64
	// C is the density-factor parameter; 0 means the paper's default
	// c = n.
	C float64
	// AssumeGeneralPositioning skips the §5 tie-handling point queries.
	// Only safe when every ranked attribute's values are unique.
	AssumeGeneralPositioning bool
	// DisableHistory turns off cross-query answer reuse (ablation): cursors
	// stop consulting the history. Probed tuples are stored regardless —
	// the arena is the only tuple store, and probe facts cite its rows.
	DisableHistory bool
	// DisableVirtualTuples turns off §4.3.2 virtual-tuple pruning in
	// MD-BINARY/MD-RERANK (ablation).
	DisableVirtualTuples bool
	// DisableDominationProbe turns off §4.3.2 direct domination
	// detection (ablation).
	DisableDominationProbe bool
	// MaxQueriesPerOp bounds probes attempted by a single Get-Next
	// call (0 = unlimited); exceeding it returns ErrBudget. The bound is
	// charged per probe attempt, before coalescing, so it is stable
	// regardless of cache state.
	MaxQueriesPerOp int64
	// ProbeCacheSize bounds the fact index — probe answers kept as row
	// references, least recently used evicted first: 0 means the
	// default (16384 facts), negative disables it, so every probe not
	// shared with an identical one in flight is issued (paper-faithful
	// per-probe cost accounting in experiments).
	ProbeCacheSize int
	// SearchParallelism is the speculative width W of the MD search: a
	// region round resolves up to W partition regions concurrently, and a
	// top-1 search caught in an improvement chain probes its frontier box
	// beside up to W−1 tightening-ladder rungs, all through Session.probe's
	// path and bounded by a per-session worker pool. 0 or 1 means
	// sequential. The emitted tuple sequence is identical for every W;
	// speculation can spend extra upstream probes (Stats' SpecProbesIssued
	// and SpecProbesWasted), which hide upstream round-trip latency.
	// Ignored (sequential search) when MaxQueriesPerOp is set: under a
	// binding budget, racing speculative charges would make budget
	// exhaustion nondeterministic.
	SearchParallelism int
}

// FirstEpoch is the knowledge epoch everything starts in. Epochs only move
// forward; knowledge whose epoch trails the current one is *stale* — still
// authoritative about what the upstream looked like when it was learned, but
// requiring one confirming probe before it may answer again (lazy
// re-validation).
const FirstEpoch int64 = 1

// Engine is one reranking service instance bound to a hidden database. It is
// safe for concurrent use: the shared knowledge it owns is guarded
// internally, and per-request state lives in Sessions.
type Engine struct {
	db   hidden.Database
	opts Options

	hist    *history.Store // the one tuple store: every issued page lands here
	crawled *crawledFacts  // the dense-region oracle's crawled regions
	facts   *factIndex     // probe answers; nil when Options.ProbeCacheSize < 0
	flights *flightGroup   // identical in-flight probes
	crawls  *flightGroup   // dense-region crawl dedup

	// publish is held for writing while an issued probe's page enters the
	// arena and its fact the index, and for reading while an MD cursor takes
	// the arena view it seeds from or a 1D cursor reads history's next tuple:
	// a cursor that sees a page also finds its fact, so it never spends a
	// probe the fact would have answered.
	publish sync.RWMutex

	queries atomic.Int64 // upstream queries issued through the engine

	// epoch is the namespace's current knowledge epoch. Every crawled region,
	// probe fact, and history watermark records the epoch it was learned
	// under; a sentinel-detected upstream drift bumps this counter, turning
	// everything learned earlier stale. Stale knowledge is re-validated
	// lazily on first touch (one confirming probe), never discarded
	// wholesale.
	epoch atomic.Int64
	// histStaleRows is the history row watermark at the last epoch bump:
	// rows below it were learned under an earlier epoch. History rows are
	// candidate hints that always get probe-confirmed before use, so the
	// watermark is observability, not a correctness gate.
	histStaleRows atomic.Int64

	// The counters Stats reports, documented on its fields: fact hits,
	// lazy re-validation outcomes of probe facts (Session.fetch) and of
	// crawled regions (Session.crawledLookup), speculative MD probes, and
	// 1D and MD certification outcomes with the cover hits.
	containedHits      atomic.Int64
	partialHits        atomic.Int64
	revalPromoted      atomic.Int64
	revalEvicted       atomic.Int64
	denseRevalPromoted atomic.Int64
	denseRevalEvicted  atomic.Int64
	specIssued         atomic.Int64
	specWasted         atomic.Int64
	certComplete       atomic.Int64
	certOverflow       atomic.Int64
	mdCertComplete     atomic.Int64
	mdCertOverflow     atomic.Int64
	coverHits          atomic.Int64

	// persist, when attached, records every probe fact admitted or
	// confirmed, every crawled-region insert and every epoch bump, so
	// incremental checkpoints persist them. History needs no recording
	// hook: the append-only arena's row watermark already identifies what
	// is new.
	persist atomic.Pointer[Persister]

	// Sentinel drift detection (see sentinel.go): digests of the fixed
	// sentinel probe set from the previous pass, compared each pass.
	sentMu      sync.Mutex
	sentDigests map[string]uint64
	sentPasses  atomic.Int64
	sentBumps   atomic.Int64
	sentLast    atomic.Int64 // unix seconds of the last completed pass
}

// NewEngine builds an engine over db.
func NewEngine(db hidden.Database, opts Options) *Engine {
	cacheSize := opts.ProbeCacheSize
	if cacheSize == 0 {
		cacheSize = defaultProbeCacheSize
	}
	hist := history.NewStore(db.Schema())
	e := &Engine{
		db:      db,
		opts:    opts,
		hist:    hist,
		crawled: &crawledFacts{hist: hist},
		facts:   newFactIndex(cacheSize),
		flights: newFlightGroup(),
		crawls:  newFlightGroup(),
	}
	e.epoch.Store(FirstEpoch)
	return e
}

// DB returns the engine's database.
func (e *Engine) DB() hidden.Database { return e.db }

// Queries returns the number of database queries issued through the engine
// (including dense-index crawling). Probes shared by identical in-flight
// calls count once.
func (e *Engine) Queries() int64 { return e.queries.Load() }

// History returns the engine's cross-query tuple cache.
func (e *Engine) History() *history.Store { return e.hist }

// Epoch returns the namespace's current knowledge epoch.
func (e *Engine) Epoch() int64 { return e.epoch.Load() }

// Stats is one snapshot of an engine's counters: engine, sentinel, storage
// and persistence. service.UpstreamStats embeds it, so these JSON names are
// the /v1/stats keys. Each field is read atomically on its own; the snapshot
// as a whole is not one consistent cut.
type Stats struct {
	// EngineQueries counts the upstream queries issued (dense crawls
	// included); probes shared by identical in-flight calls count once.
	EngineQueries int64 `json:"engineQueries"`
	HistoryTuples int   `json:"historyTuples"`
	// ProbeCacheEntries counts the probe answers — complete ones and
	// overflow pages — held as facts (0 with the fact index off).
	// Checkpoints persist them, so after a warm restart this bounds from
	// below the probes answered for zero upstream cost.
	ProbeCacheEntries int `json:"probeCacheEntries"`
	// MDDenseRegions counts crawled regions over more than one attribute
	// (Algorithm 6's boxes); DenseMDMaxBucket is the largest crawled-region
	// bucket, 1D or MD: the most facts one dense lookup may walk.
	MDDenseRegions   int `json:"mdDenseRegions"`
	DenseMDMaxBucket int `json:"denseMDMaxBucket"`
	// SearchParallelism is the effective speculative probe width W (≥ 1;
	// see searchWidth). SpecProbesIssued counts MD probes issued beyond the
	// first slot of a round: speculative region slots and ladder rungs.
	// SpecProbesWasted counts the rungs that overflowed and so resolved
	// nothing; their pages still land in history and the fact index, so
	// that upstream cost is never paid twice.
	SearchParallelism int   `json:"searchParallelism"`
	SpecProbesIssued  int64 `json:"specProbesIssued"`
	SpecProbesWasted  int64 `json:"specProbesWasted"`

	// Storage* are the history arena's columnar counters;
	// StorageApproxBytes adds ProbeFactBytes to the arena's bytes.
	StorageBlocks         int   `json:"storageBlocks"`
	StorageDictEntries    int   `json:"storageDictEntries"`
	StorageResidentTuples int   `json:"storageResidentTuples"`
	StorageApproxBytes    int64 `json:"storageApproxBytes"`
	// ProbeContainedHits counts probes answered free by filtering a held
	// complete answer whose box contains them, ProbePartialHits probes
	// answered free by replaying the overflow page the identical probe got
	// before (exact hits on complete answers are counted by neither);
	// ProbeFactBytes approximates what the ProbeCacheEntries held answers
	// occupy — queries and row references; their tuples are history rows.
	ProbeContainedHits int64 `json:"probeContainedHits"`
	ProbePartialHits   int64 `json:"probePartialHits"`
	ProbeFactBytes     int64 `json:"probeFactBytes"`
	// CertifiedComplete / CertifiedOverflow count 1D-RERANK's certification
	// probes (at most one per Get-Next, over (last, candidate]) by outcome:
	// a complete page answered the Get-Next outright, an overflowing one
	// only improved the candidate. Their ratio is the certification hit rate.
	CertifiedComplete int64 `json:"certifiedComplete"`
	CertifiedOverflow int64 `json:"certifiedOverflow"`
	// MDCertifiedComplete / MDCertifiedOverflow count MD-RERANK's deep
	// certification probes (at most one per region resolution, over the
	// contour of the D-th best known tuple) by the same outcomes. CoverHits
	// counts the Get-Nexts, 1D and MD, answered from a certified page a
	// cursor kept: next tuple and tie group for no probe at all.
	MDCertifiedComplete int64 `json:"mdCertifiedComplete"`
	MDCertifiedOverflow int64 `json:"mdCertifiedOverflow"`
	CoverHits           int64 `json:"coverHits"`

	// Living-upstream state (see docs/epochs.md): the knowledge epoch and
	// its drift-triggered bumps, crawled regions and history rows learned
	// under an earlier epoch, lazy re-validation outcomes over probe facts
	// and crawled regions (stale knowledge confirmed, or evicted on drift),
	// and the sentinel's completed passes, bumps and last pass (unix s).
	Epoch            int64 `json:"epoch"`
	EpochBumps       int64 `json:"epochBumps"`
	StaleRegions     int   `json:"staleRegions"`
	StaleHistoryRows int64 `json:"staleHistoryRows"`
	RevalPromoted    int64 `json:"revalPromoted"`
	RevalEvicted     int64 `json:"revalEvicted"`
	SentinelPasses   int64 `json:"sentinelPasses"`
	SentinelBumps    int64 `json:"sentinelBumps"`
	LastSentinelUnix int64 `json:"lastSentinelUnix,omitempty"`

	// Persistence gauges of the attached segment store (see persist.go);
	// all zero when none is attached.
	PersistEnabled        bool   `json:"persistEnabled"`
	PersistSeq            int64  `json:"persistSeq,omitempty"`
	PersistCheckpoints    int64  `json:"persistCheckpoints,omitempty"`
	PersistCompactions    int64  `json:"persistCompactions,omitempty"`
	PersistJournalRecords int    `json:"persistJournalRecords,omitempty"`
	PersistSegmentFiles   int    `json:"persistSegmentFiles,omitempty"`
	PersistPendingOps     int    `json:"persistPendingOps,omitempty"`
	PersistReplayedDeltas int    `json:"persistReplayedDeltas,omitempty"`
	PersistBytesAppended  int64  `json:"persistBytesAppended,omitempty"`
	PersistLastError      string `json:"persistLastError,omitempty"`
}

// Stats snapshots the engine's counters. It walks the crawled set and the
// history shards, so the request path reads Queries and Epoch instead.
func (e *Engine) Stats() Stats {
	ep := e.Epoch()
	ss := e.hist.StorageStats()
	st := Stats{
		EngineQueries:         e.queries.Load(),
		HistoryTuples:         e.hist.Size(),
		MDDenseRegions:        e.crawled.count(func(f *fact) bool { return len(f.q.Ranges()) > 1 }),
		DenseMDMaxBucket:      e.crawled.maxBucket(),
		SearchParallelism:     e.searchWidth(),
		SpecProbesIssued:      e.specIssued.Load(),
		SpecProbesWasted:      e.specWasted.Load(),
		StorageBlocks:         ss.Blocks,
		StorageDictEntries:    ss.DictEntries,
		StorageResidentTuples: ss.Tuples,
		ProbeContainedHits:    e.containedHits.Load(),
		ProbePartialHits:      e.partialHits.Load(),
		CertifiedComplete:     e.certComplete.Load(),
		CertifiedOverflow:     e.certOverflow.Load(),
		MDCertifiedComplete:   e.mdCertComplete.Load(),
		MDCertifiedOverflow:   e.mdCertOverflow.Load(),
		CoverHits:             e.coverHits.Load(),
		Epoch:                 ep,
		EpochBumps:            ep - FirstEpoch,
		StaleRegions:          e.crawled.count(func(f *fact) bool { return f.epoch < ep }),
		StaleHistoryRows:      e.histStaleRows.Load(),
		RevalPromoted:         e.denseRevalPromoted.Load() + e.revalPromoted.Load(),
		RevalEvicted:          e.denseRevalEvicted.Load() + e.revalEvicted.Load(),
		SentinelPasses:        e.sentPasses.Load(),
		SentinelBumps:         e.sentBumps.Load(),
		LastSentinelUnix:      e.sentLast.Load(),
	}
	if e.facts != nil {
		st.ProbeCacheEntries = int(e.facts.entries.Load())
		st.ProbeFactBytes = e.facts.bytes.Load()
	}
	st.StorageApproxBytes = ss.ApproxBytes + st.ProbeFactBytes
	if p := e.persist.Load(); p != nil {
		p.stats(&st)
	}
	return st
}

// BumpEpoch advances the knowledge epoch (a sentinel detected upstream
// drift), marks the current history rows stale, records the bump for
// persistence, and returns the new epoch.
func (e *Engine) BumpEpoch() int64 {
	ep := e.epoch.Add(1)
	e.histStaleRows.Store(int64(e.hist.Rows()))
	if p := e.persist.Load(); p != nil {
		// A bump is durable knowledge in its own right: losing it would
		// resurrect stale regions as current after a restart.
		p.record(pendingOp{bump: true, epoch: ep})
	}
	return ep
}

// restoreEpoch moves the epoch forward to ep (journal replay).
// Epochs never move backward; an older restore is a no-op.
func (e *Engine) restoreEpoch(ep int64) {
	for {
		cur := e.epoch.Load()
		if ep <= cur || e.epoch.CompareAndSwap(cur, ep) {
			return
		}
	}
}

// insertCrawled records a crawled box (a query of ranges only) with every
// tuple inside it at the current epoch, and records the insert for
// incremental persistence. The tuples are named by their arena rows (added
// first when no probe brought them in), so a region's rows always precede its
// journal record. Live inserts must go through here rather than the crawled
// set directly, so no acquired knowledge is invisible to the next checkpoint.
func (e *Engine) insertCrawled(box query.Query, tuples []types.Tuple) {
	rows, epoch := e.hist.AddRows(tuples), e.Epoch()
	e.crawled.insert(box, rows, epoch)
	if p := e.persist.Load(); p != nil {
		p.record(pendingOp{q: box.Clone(), rows: rows, crawled: true, epoch: epoch})
	}
}

// DenseIndex1D exposes the crawled regions over one attribute — Algorithm 4's
// dense index — for inspection.
func (e *Engine) DenseIndex1D() Dense1D { return Dense1D{e.crawled} }

// Dense1D is a read-only view of the 1D crawled regions.
type Dense1D struct{ c *crawledFacts }

// Lookup returns the crawled interval on attr covering iv, of any epoch.
func (d Dense1D) Lookup(attr int, iv types.Interval) (types.Interval, bool) {
	if f := d.c.lookup(query.New().WithRange(attr, iv)); f != nil {
		return f.q.Ranges()[0].Iv, true
	}
	return types.Interval{}, false
}

// Regions returns the number of crawled intervals on attr.
func (d Dense1D) Regions(attr int) int {
	return d.c.count(func(f *fact) bool {
		rs := f.q.Ranges()
		return len(rs) == 1 && rs[0].Attr == attr
	})
}

// searchWidth returns the MD search's speculative probe width (≥ 1). A
// configured per-op budget forces sequential search: under a binding
// budget, concurrent speculative charges would race the mandatory probes
// for the remaining attempts, making WHICH probe exhausts the budget — and
// hence whether an op fails — depend on goroutine interleaving. Sequential
// search keeps MaxQueriesPerOp semantics exactly deterministic.
func (e *Engine) searchWidth() int {
	if e.opts.SearchParallelism > 1 && e.opts.MaxQueriesPerOp <= 0 {
		return e.opts.SearchParallelism
	}
	return 1
}

// sParam returns the dense-region population parameter s (§3.2.2), defaulting
// to k·log2(n).
func (e *Engine) sParam() float64 {
	if e.opts.S > 0 {
		return e.opts.S
	}
	n := float64(e.opts.N)
	if n < 2 {
		n = 2
	}
	return float64(e.db.K()) * math.Log2(n)
}

// cParam returns the density factor c, defaulting to n.
func (e *Engine) cParam() float64 {
	if e.opts.C > 0 {
		return e.opts.C
	}
	return float64(e.opts.N)
}

// denseWidth1D returns the 1D dense-region width threshold
// |V(Ai)|·(s/n)/c for the given attribute, or 0 when N is unset.
func (e *Engine) denseWidth1D(attr int) float64 {
	if e.opts.N <= 0 {
		return 0
	}
	d := e.db.Schema().Domain(attr)
	return d.Width() * (e.sParam() / float64(e.opts.N)) / e.cParam()
}

// denseVolumeMD returns the MD dense-region volume threshold |V|·(s/n)/c
// over the given ranked attributes, or 0 when N is unset.
func (e *Engine) denseVolumeMD(attrs []int) float64 {
	if e.opts.N <= 0 {
		return 0
	}
	vol := 1.0
	for _, a := range attrs {
		vol *= e.db.Schema().Domain(a).Width()
	}
	return vol * (e.sParam() / float64(e.opts.N)) / e.cParam()
}

// Cursor is the incremental Get-Next interface of §2.2: each call returns
// the next-best tuple of the user query under the user ranking function.
// ok is false once the query's matching tuples are exhausted.
type Cursor interface {
	Next() (t types.Tuple, ok bool, err error)
}

// TopH drains up to h tuples from a cursor. Non-positive h yields an empty
// result without touching the cursor.
func TopH(c Cursor, h int) ([]types.Tuple, error) {
	if h <= 0 {
		return nil, nil
	}
	out := make([]types.Tuple, 0, h)
	for len(out) < h {
		t, ok, err := c.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// ErrBudget is returned when a single Get-Next exceeds MaxQueriesPerOp.
var ErrBudget = fmt.Errorf("core: per-operation query budget exhausted")

// NewCursor builds a cursor running the given algorithm variant for user
// query q under ranker r, in a fresh single-cursor session. Callers that
// need a per-request cost ledger spanning several cursors should create a
// Session explicitly.
func (e *Engine) NewCursor(q query.Query, r ranking.Ranker, v Variant) (Cursor, error) {
	return e.NewSession().NewCursor(q, r, v)
}
