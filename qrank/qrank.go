// Package qrank is the public API of the query-reranking library — a Go
// implementation of "Query Reranking As A Service" (Asudeh, Zhang, Das;
// VLDB 2016).
//
// Given any client-server database that exposes only a restricted top-k
// search interface with a proprietary ranking function, qrank answers user
// queries under ANY monotone user-specified ranking function, exactly, while
// minimizing the number of search queries issued upstream.
//
// # Quickstart
//
//	db := myDataset.DB() // anything implementing qrank.Database
//	rr := qrank.New(db, qrank.Options{N: 100_000})
//	rank := qrank.MustLinear("cheap+low-miles", []int{priceIdx, milesIdx}, []float64{1, 0.1})
//	cur, err := rr.Query(qrank.NewQuery(), rank)
//	top10, err := qrank.TopH(cur, 10)
//
// # Concurrency
//
// A Reranker is safe for concurrent use. Internally it is split into a
// shared engine — the cross-query answer history, the crawled regions of the
// on-the-fly dense indexes (facts over the history, like probe answers), the
// fact index of probe answers and the upstream-query counter, all internally
// synchronized — and per-request Sessions that hold traversal state and a
// per-request cost ledger. Create cursors from any goroutine; each
// individual Cursor must be driven by one goroutine at a time. Identical
// in-flight upstream queries are issued once and recent complete answers
// replay, so concurrent users with overlapping queries do not multiply
// upstream cost (deduplicated probes are counted once).
// Options.ProbeCacheSize < 0 turns the replay off.
//
// The heavy lifting lives in internal/core (the paper's 1D-RERANK and
// MD-RERANK algorithms with on-the-fly dense-region indexing); this package
// re-exports the stable surface.
package qrank

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/segment"
	"repro/internal/types"
)

// StorageStats describes the resident footprint of the columnar tuple store
// backing the answer history (see docs/storage.md): arena row and block
// counts, interned-dictionary size, and an approximate byte total.
type StorageStats = history.StorageStats

// Re-exported data-model types.
type (
	// Tuple is one database row.
	Tuple = types.Tuple
	// Schema describes a database's attributes.
	Schema = types.Schema
	// Attribute is one schema column.
	Attribute = types.Attribute
	// Domain is an ordinal attribute's value domain.
	Domain = types.Domain
	// Interval is a one-dimensional range with open/closed endpoints.
	Interval = types.Interval
	// Query is a conjunctive selection (ranges + categorical equality).
	// Its fields are unexported: build one with NewQuery, WithRange and
	// WithCat, and read it with Range, Cat, Ranges and Cats, which walk
	// its predicates in one canonical order (ranges by attribute,
	// categorical predicates by name).
	Query = query.Query
	// Database is the restricted top-k search interface the reranker
	// drives. Implement it to plug in any upstream source.
	Database = hidden.Database
	// Result is one top-k search answer.
	Result = hidden.Result
	// Ranker is a monotone user-specified ranking function.
	Ranker = ranking.Ranker
	// Direction is an attribute preference order (Asc or Desc).
	Direction = ranking.Direction
	// Cursor incrementally yields ranked answers (Get-Next, §2.2).
	Cursor = core.Cursor
	// Options tune the reranking engine.
	Options = core.Options
	// Variant selects the algorithm family (Rerank is the paper's full
	// algorithm and the default).
	Variant = core.Variant
	// Session scopes the cursors of one logical request and tracks the
	// upstream queries charged to it. Create one per request via
	// Reranker.NewSession when a per-request cost ledger is needed;
	// sessions from many goroutines may run concurrently.
	Session = core.Session
)

// Attribute kinds.
const (
	Ordinal     = types.Ordinal
	Categorical = types.Categorical
)

// Preference directions.
const (
	Asc  = ranking.Asc
	Desc = ranking.Desc
)

// Algorithm variants.
const (
	Baseline   = core.Baseline
	Binary     = core.Binary
	Rerank     = core.Rerank
	TAOverOneD = core.TAOverOneD
)

// NewSchema builds a schema from attributes.
func NewSchema(attrs []Attribute) (*Schema, error) { return types.NewSchema(attrs) }

// MustSchema is NewSchema panicking on error.
func MustSchema(attrs []Attribute) *Schema { return types.MustSchema(attrs) }

// NewQuery returns an empty (match-all) user query; refine it with
// Query.WithRange and Query.WithCat.
func NewQuery() Query { return query.New() }

// OpenInterval returns the open interval (lo, hi).
func OpenInterval(lo, hi float64) Interval { return types.OpenInterval(lo, hi) }

// ClosedInterval returns the closed interval [lo, hi].
func ClosedInterval(lo, hi float64) Interval { return types.ClosedInterval(lo, hi) }

// NewLinear builds a weighted linear ranking function Σ w_i·A_i (smaller
// score ranks first; negative weights prefer larger values).
func NewLinear(name string, attrs []int, weights []float64) (Ranker, error) {
	return ranking.NewLinear(name, attrs, weights)
}

// MustLinear is NewLinear panicking on error.
func MustLinear(name string, attrs []int, weights []float64) Ranker {
	return ranking.MustLinear(name, attrs, weights)
}

// NewSingle ranks by one attribute in the given direction.
func NewSingle(name string, attr int, dir Direction) Ranker {
	return ranking.NewSingle(name, attr, dir)
}

// NewRatio ranks by attrs[num]/attrs[den] ascending (e.g. price-per-carat).
// The denominator's domain must be strictly positive.
func NewRatio(name string, num, den int) Ranker { return ranking.NewRatio(name, num, den) }

// Reranker is a long-lived reranking service instance bound to one upstream
// database. Its answer history and on-the-fly dense indexes persist across
// queries, so costs amortize the more it is used. It is safe for concurrent
// use: cursors may be created and driven from many goroutines at once (one
// goroutine per cursor).
type Reranker struct {
	engine *core.Engine
}

// New builds a Reranker over db. Options.N should estimate the upstream
// database size (it calibrates the dense-region thresholds); everything else
// can be left zero.
func New(db Database, opts Options) *Reranker {
	return &Reranker{engine: core.NewEngine(db, opts)}
}

// Query starts incremental Get-Next processing of q under ranker r using
// the paper's full algorithms (1D-RERANK / MD-RERANK).
func (r *Reranker) Query(q Query, rank Ranker) (Cursor, error) {
	return r.engine.NewCursor(q, rank, core.Rerank)
}

// QueryVariant is Query with an explicit algorithm choice (for comparisons
// and experiments).
func (r *Reranker) QueryVariant(q Query, rank Ranker, v Variant) (Cursor, error) {
	return r.engine.NewCursor(q, rank, v)
}

// NewSession starts a session: a per-request scope whose Queries ledger
// reports exactly the upstream cost charged to the cursors created from it,
// even while other sessions run concurrently.
func (r *Reranker) NewSession() *Session { return r.engine.NewSession() }

// QueriesIssued reports the total number of upstream search queries this
// instance has spent — the paper's sole cost measure. Probes shared by
// identical in-flight calls count once.
func (r *Reranker) QueriesIssued() int64 { return r.engine.Queries() }

// OpenDataDir makes the Reranker's knowledge durable: it replays whatever a
// previous Reranker over the same upstream committed under dir, so this one
// starts warm, then checkpoints newly acquired knowledge there every
// checkpointEvery (0 = only at Close) in a crash-safe journal. Call it on a
// fresh Reranker, before the first Query; Close takes a final checkpoint. A
// store written for a different upstream (schema, k or system ranking) is
// quarantined under dir and the Reranker starts cold.
func (r *Reranker) OpenDataDir(dir string, checkpointEvery time.Duration) (io.Closer, error) {
	st, err := segment.Open(dir, segment.Options{Fingerprint: r.engine.PersistFingerprint()})
	if err != nil {
		return nil, err
	}
	p, err := r.engine.AttachPersistence(st, core.PersistOptions{Interval: checkpointEvery})
	if err != nil {
		st.Close()
		return nil, err
	}
	return p, nil
}

// HistorySize reports how many distinct upstream tuples have been observed.
func (r *Reranker) HistorySize() int { return r.engine.History().Size() }

// StorageStats reports the columnar store's resident footprint: sealed
// blocks, dictionary entries, row count, and approximate bytes.
func (r *Reranker) StorageStats() StorageStats { return r.engine.History().StorageStats() }

// TopH drains up to h tuples from a cursor.
func TopH(c Cursor, h int) ([]Tuple, error) { return core.TopH(c, h) }

// Score evaluates a ranking function on a tuple.
func Score(r Ranker, t Tuple) float64 { return ranking.ScoreTuple(r, t) }

// NewMemoryDatabase builds an in-memory hidden database — handy for tests,
// demos, and serving local data through the same interface. The tuples are
// ranked by sys (nil = insertion order) and each search returns at most k.
func NewMemoryDatabase(schema *Schema, tuples []Tuple, k int, sys func(Tuple) float64) (Database, error) {
	var ranker hidden.SystemRanker
	if sys != nil {
		ranker = hidden.FuncRanker{F: sys, Label: "custom"}
	}
	return hidden.NewDB(schema, tuples, hidden.Options{K: k, Ranker: ranker})
}
