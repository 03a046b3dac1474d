// Package hidden simulates a client-server ("hidden") database with a
// restricted top-k search interface, the substrate every experiment in the
// paper runs against (§2.1).
//
// The database accepts conjunctive queries (range predicates on ordinal
// attributes, equality predicates on categorical attributes), applies a
// proprietary system ranking function the client knows nothing about, and
// returns at most k tuples. A query overflows when more than k tuples match,
// is valid when 1..k match, and underflows when none match. The only cost
// the reranking literature charges is the number of such queries; Counter
// tracks it.
package hidden

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// Result is the answer to one top-k query.
type Result struct {
	// Tuples are the returned tuples, at most k, ordered by the system
	// ranking function (best first).
	Tuples []types.Tuple
	// Overflow reports that more tuples matched than were returned.
	Overflow bool
}

// Underflow reports that no tuple matched.
func (r Result) Underflow() bool { return len(r.Tuples) == 0 }

// Valid reports that all matching tuples were returned and at least one
// matched.
func (r Result) Valid() bool { return !r.Overflow && len(r.Tuples) > 0 }

// Database is the only capability the reranking service has: issue a
// conjunctive query, get back at most k system-ranked tuples. Implementations
// must be safe for concurrent use.
type Database interface {
	// TopK runs q and returns the top-k matching tuples under the
	// database's proprietary ranking.
	TopK(q query.Query) (Result, error)
	// K returns the interface's result limit ("system-k").
	K() int
	// Schema describes the attributes exposed by the search interface.
	Schema() *types.Schema
}

// Counter counts queries issued to a database. It is the paper's sole
// performance measure (§2.2).
type Counter struct {
	n atomic.Int64
}

// Add records one issued query.
func (c *Counter) Add() { c.n.Add(1) }

// Count returns the number of queries issued so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// ErrRateLimited is returned by DB.TopK once the configured query budget is
// exhausted, modelling the per-day API limits real web databases enforce
// (e.g. 50 free queries/day on Google Flight Search, §1).
var ErrRateLimited = errors.New("hidden: query rate limit exhausted")

// Options configure an in-memory hidden database.
type Options struct {
	// K is the system-k (max tuples returned per query). Required, ≥ 1.
	K int
	// Ranker is the proprietary system ranking function. It may be nil,
	// in which case insertion (ID) order is used — an "arbitrary" unknown
	// ranking. It does NOT have to be monotone (Yahoo! Autos' default
	// "distance from a location" ranking is not).
	Ranker SystemRanker
	// QueryBudget, when > 0, limits the total number of queries the
	// database will answer before returning ErrRateLimited.
	QueryBudget int64
}

// SystemRanker orders tuples for the database. Lower scores are returned
// first. It receives the full tuple, so non-monotone or categorical-aware
// rankings are expressible.
type SystemRanker interface {
	SystemScore(t types.Tuple) float64
	Name() string
}

// RankerAdapter lifts a user-style monotone ranking.Ranker into a
// SystemRanker.
type RankerAdapter struct{ R ranking.Ranker }

// SystemScore implements SystemRanker.
func (ra RankerAdapter) SystemScore(t types.Tuple) float64 {
	return ranking.ScoreTuple(ra.R, t)
}

// Name implements SystemRanker.
func (ra RankerAdapter) Name() string { return ra.R.Name() }

// FuncRanker adapts an arbitrary score function into a SystemRanker.
type FuncRanker struct {
	F     func(t types.Tuple) float64
	Label string
}

// SystemScore implements SystemRanker.
func (fr FuncRanker) SystemScore(t types.Tuple) float64 { return fr.F(t) }

// Name implements SystemRanker.
func (fr FuncRanker) Name() string { return fr.Label }

// DB is an in-memory hidden database. It pre-sorts its tuples by the system
// ranking so each query is a single early-exiting scan in rank order.
type DB struct {
	schema *types.Schema
	k      int
	ranker SystemRanker

	// dmu guards byRank against drift injection (Mutate/SetOrd). Queries
	// take the read side; the scan itself stays lock-free over the
	// immutable snapshot. Mutations swap in a freshly sorted copy — they
	// never write a tuple in place, because answered tuples share their
	// Ord slices with whatever the caller stored.
	dmu sync.RWMutex
	// byRank holds all tuples sorted by system rank (best first).
	byRank []types.Tuple

	// views caches ORDER BY permutations per (attr, dir) so repeated
	// NewOrderByView calls (benchmark setup, per-request view construction)
	// sort each ordering once. Shared by WithK views: byRank is immutable
	// between mutations, so the cached permutations stay valid for every k;
	// a mutation purges the cache.
	views *viewCache

	counter Counter
	budget  int64 // 0 = unlimited
	mu      sync.Mutex
	spent   int64
}

// viewCache holds lazily built ORDER BY permutations of an immutable tuple
// set. Safe for concurrent use.
type viewCache struct {
	mu sync.Mutex
	m  map[viewKey][]types.Tuple
}

type viewKey struct {
	attr int
	dir  ranking.Direction
}

// rankFor returns the tuples sorted by (attr·dir, ID), building and caching
// the permutation on first use.
func (vc *viewCache) rankFor(byRank []types.Tuple, attr int, dir ranking.Direction) []types.Tuple {
	key := viewKey{attr: attr, dir: dir}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if lst, ok := vc.m[key]; ok {
		return lst
	}
	lst := append([]types.Tuple(nil), byRank...)
	sort.SliceStable(lst, func(a, b int) bool {
		va, vb := lst[a].Ord[attr]*float64(dir), lst[b].Ord[attr]*float64(dir)
		if va != vb {
			return va < vb
		}
		return lst[a].ID < lst[b].ID
	})
	if vc.m == nil {
		vc.m = make(map[viewKey][]types.Tuple)
	}
	vc.m[key] = lst
	return lst
}

// purge drops every cached permutation (the underlying corpus mutated).
func (vc *viewCache) purge() {
	if vc == nil {
		return
	}
	vc.mu.Lock()
	vc.m = nil
	vc.mu.Unlock()
}

// NewDB builds a hidden database over the given tuples. The tuple slice is
// copied; ordinal value count must match the schema.
func NewDB(schema *types.Schema, tuples []types.Tuple, opts Options) (*DB, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("hidden: system-k must be ≥ 1, got %d", opts.K)
	}
	db := &DB{
		schema: schema,
		k:      opts.K,
		ranker: opts.Ranker,
		byRank: append([]types.Tuple(nil), tuples...),
		views:  &viewCache{},
		budget: opts.QueryBudget,
	}
	for _, t := range db.byRank {
		if len(t.Ord) != schema.Len() {
			return nil, fmt.Errorf("hidden: tuple %d has %d ordinal slots, schema has %d attributes", t.ID, len(t.Ord), schema.Len())
		}
	}
	db.byRank = rankSort(db.byRank, db.ranker)
	return db, nil
}

// rankSort returns ts sorted by (system score, ID), or unchanged when the
// ranking is insertion order (nil ranker).
func rankSort(ts []types.Tuple, ranker SystemRanker) []types.Tuple {
	if ranker == nil {
		return ts
	}
	scores := make([]float64, len(ts))
	for i, t := range ts {
		scores[i] = ranker.SystemScore(t)
	}
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return ts[idx[a]].ID < ts[idx[b]].ID
	})
	sorted := make([]types.Tuple, len(ts))
	for i, j := range idx {
		sorted[i] = ts[j]
	}
	return sorted
}

// MustDB is NewDB that panics on error; for tests.
func MustDB(schema *types.Schema, tuples []types.Tuple, opts Options) *DB {
	db, err := NewDB(schema, tuples, opts)
	if err != nil {
		panic(err)
	}
	return db
}

// TopK implements Database. The scan walks tuples in system-rank order and
// stops as soon as k matches plus one overflow witness are found.
func (db *DB) TopK(q query.Query) (Result, error) {
	if db.budget > 0 {
		db.mu.Lock()
		if db.spent >= db.budget {
			db.mu.Unlock()
			return Result{}, ErrRateLimited
		}
		db.spent++
		db.mu.Unlock()
	}
	db.counter.Add()
	db.dmu.RLock()
	byRank := db.byRank
	db.dmu.RUnlock()
	var res Result
	for i := range byRank {
		if !q.Matches(byRank[i]) {
			continue
		}
		if len(res.Tuples) == db.k {
			res.Overflow = true
			break
		}
		res.Tuples = append(res.Tuples, byRank[i])
	}
	return res, nil
}

// K implements Database.
func (db *DB) K() int { return db.k }

// Schema implements Database.
func (db *DB) Schema() *types.Schema { return db.schema }

// Size returns the number of tuples stored (not exposed to rerankers; used
// by experiments and tests).
func (db *DB) Size() int {
	db.dmu.RLock()
	defer db.dmu.RUnlock()
	return len(db.byRank)
}

// SetOrd injects drift: it changes tuple id's ordinal attribute attr to v,
// as if the upstream operator edited a listing in place. The rank order is
// re-sorted and cached ORDER BY views are purged, so subsequent queries see
// the post-mutation corpus; previously answered tuples are untouched (the
// mutated tuple is cloned, never written through shared Ord slices).
// Reports whether a tuple with that ID existed. Safe to call concurrently
// with TopK; OrderByViews constructed before the mutation keep answering
// from the pre-mutation corpus and should be rebuilt.
func (db *DB) SetOrd(id, attr int, v float64) bool {
	db.dmu.Lock()
	defer db.dmu.Unlock()
	for i := range db.byRank {
		if db.byRank[i].ID != id {
			continue
		}
		nt := db.byRank[i].Clone()
		nt.Ord[attr] = v
		next := append([]types.Tuple(nil), db.byRank...)
		next[i] = nt
		db.byRank = rankSort(next, db.ranker)
		db.views.purge()
		return true
	}
	return false
}

// QueryCount returns the number of top-k queries answered so far.
func (db *DB) QueryCount() int64 { return db.counter.Count() }

// ResetCounter zeroes the query counter (and the rate-limit budget spend).
func (db *DB) ResetCounter() {
	db.counter.Reset()
	db.mu.Lock()
	db.spent = 0
	db.mu.Unlock()
}

// All returns a copy of every tuple in system-rank order. It exists for
// test oracles and dataset plumbing only — reranking algorithms must not
// call it.
func (db *DB) All() []types.Tuple {
	db.dmu.RLock()
	defer db.dmu.RUnlock()
	out := make([]types.Tuple, len(db.byRank))
	for i, t := range db.byRank {
		out[i] = t.Clone()
	}
	return out
}

// RankerName returns the system ranking function's name, or "insertion".
func (db *DB) RankerName() string {
	if db.ranker == nil {
		return "insertion"
	}
	return db.ranker.Name()
}

// WithK returns a view of the same data with a different system-k, sharing
// tuples (and the ORDER BY view cache) but with an independent counter. Used
// by the system-k experiments.
func (db *DB) WithK(k int) *DB {
	db.dmu.RLock()
	defer db.dmu.RUnlock()
	return &DB{schema: db.schema, k: k, ranker: db.ranker, byRank: db.byRank, views: db.views}
}

// OrderByView wraps a DB to simulate databases that additionally expose
// ORDER BY on a single attribute (§5 "Multiple/Known System Ranking
// Functions": Blue Nile and Yahoo! Autos both rank by individual attributes
// on demand). Queries issued through an OrderByView are still counted by the
// underlying DB's counter.
type OrderByView struct {
	db   *DB
	attr int
	dir  ranking.Direction
	rank []types.Tuple
}

// NewOrderByView builds a view ordered by the given ordinal attribute. The
// sorted permutation is cached on the DB per (attr, dir): constructing the
// same view repeatedly (per request, or in benchmark setup) sorts once. The
// cached slice is shared and must be treated as immutable, which TopK's
// read-only scan already guarantees.
func NewOrderByView(db *DB, attr int, dir ranking.Direction) *OrderByView {
	v := &OrderByView{db: db, attr: attr, dir: dir}
	db.dmu.RLock()
	byRank := db.byRank
	db.dmu.RUnlock()
	if db.views != nil {
		v.rank = db.views.rankFor(byRank, attr, dir)
		return v
	}
	vc := viewCache{}
	v.rank = vc.rankFor(byRank, attr, dir)
	return v
}

// TopK implements Database with the view's ORDER BY ranking.
func (v *OrderByView) TopK(q query.Query) (Result, error) {
	v.db.counter.Add()
	var res Result
	for i := range v.rank {
		if !q.Matches(v.rank[i]) {
			continue
		}
		if len(res.Tuples) == v.db.k {
			res.Overflow = true
			break
		}
		res.Tuples = append(res.Tuples, v.rank[i])
	}
	return res, nil
}

// K implements Database.
func (v *OrderByView) K() int { return v.db.k }

// Schema implements Database.
func (v *OrderByView) Schema() *types.Schema { return v.db.schema }
