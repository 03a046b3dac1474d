// Package history implements the "leveraging history" idea of §3.1.1: every
// tuple ever returned by the hidden database is cached, deduplicated by ID,
// and indexed per ordinal attribute, so the processing of one user query can
// prune the search space using answers observed while processing others.
//
// # Columnar storage
//
// Tuples live in an append-only colstore.Arena: flat column slices plus a
// shared string dictionary, so a million cached tuples cost a handful of
// large allocations instead of a million row structs each carrying its own
// Ord slice and Cat map. The row-struct types.Tuple stays the API type,
// materialized from the columns only when a lookup actually returns a row;
// ScanMatching exposes the raw view for consumers that can score rows
// without materializing at all.
//
// The arena is the engine's only tuple store. Probe answers kept in the
// engine's fact index and the crawled regions of the dense indexes are lists of
// arena rows (AddRows names them, RowTuples reads them back as shared row
// forms materialized at most once per row and never for rows nobody cites,
// ScanRun searches a region's sorted run the way MinMatching searches a
// shard), and a tuple the upstream changed in place becomes a new row version
// rather than an overwrite, so rows stay immutable and an answer or a region
// keeps citing exactly what the upstream said.
//
// # Sharded incremental indexes
//
// The store is write-heavy by nature — sustained discovery traffic keeps
// appending freshly observed tuples — so index maintenance is incremental and
// sharded per attribute. Each ordinal attribute owns an independent shard
// guarded by its own lock, holding
//
//   - a sealed sorted run of row numbers (ascending by value, ties by ID),
//     replaced wholesale and never mutated in place, and
//   - a small sorted "recent" buffer that absorbs inserts.
//
// When the buffer fills it is merged into the run — a linear merge of two
// sorted runs, never a full re-sort — so no reader ever pays an O(n log n)
// rebuild, and readers of attribute A never contend with a writer flushing
// attribute B. MinMatching/MaxMatching scan run and buffer cooperatively and
// combine the two candidates.
//
// Whole-store scans (ScanMatching over the caller's view, CountMatching over
// its own) iterate an immutable point-in-time arena view in insertion order;
// the iteration runs lock-free, so callbacks may re-enter the store freely.
package history

import (
	"sync"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

// maxBufferLen is the per-shard recent-buffer flush threshold. A larger
// buffer amortizes merges over more inserts at the price of a longer buffer
// scan on every read; 256 keeps both sides trivially cheap. It is a variable
// so tests can shrink it to force frequent merges.
var maxBufferLen = 256

// shard is the sorted-run index for one ordinal attribute: row numbers into
// the store's arena ordered by (attribute value, tuple ID).
type shard struct {
	attr int
	mu   sync.RWMutex
	run  colstore.Run // sealed sorted run
	buf  colstore.Run // small sorted recent buffer
}

// insert adds freshly appended rows to the shard. Small batches binary-insert
// into the buffer; once the buffer would exceed maxBufferLen the batch is
// sorted wholesale and buffer+batch are merged into the sealed run.
//
// The view that orders the rows is taken under the shard lock: every row
// already in the shard was published before its own insert, hence before
// this one got the lock, so the view covers them all — a view taken earlier
// can predate a row (and its block) that a concurrent Add slipped in first.
func (sh *shard) insert(a *colstore.Arena, news []uint32) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := a.View()
	if sh.buf.Len()+len(news) >= maxBufferLen {
		batch := colstore.NewRun(v, sh.attr, news)
		sh.run = colstore.MergeRuns(v, sh.run, colstore.MergeRuns(v, sh.buf, batch))
		sh.buf = colstore.Run{}
		return
	}
	for _, row := range news {
		sh.buf.Insert(v, v.Ord(int(row), sh.attr), row)
	}
}

// minMatching returns the matching row with the smallest attribute value in
// iv (ties: smallest ID), scanning the sealed run and the buffer.
func (sh *shard) minMatching(m *colstore.Matcher, iv types.Interval) (int, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	aRow, aVal, aOK := sh.run.ScanMin(m, iv)
	bRow, bVal, bOK := sh.buf.ScanMin(m, iv)
	switch {
	case aOK && bOK:
		v := m.View()
		if bVal < aVal || (bVal == aVal && v.ID(int(bRow)) < v.ID(int(aRow))) {
			return int(bRow), true
		}
		return int(aRow), true
	case aOK:
		return int(aRow), true
	case bOK:
		return int(bRow), true
	}
	return 0, false
}

// maxMatching is minMatching's mirror (ties: largest ID).
func (sh *shard) maxMatching(m *colstore.Matcher, iv types.Interval) (int, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	aRow, aVal, aOK := sh.run.ScanMax(m, iv)
	bRow, bVal, bOK := sh.buf.ScanMax(m, iv)
	switch {
	case aOK && bOK:
		v := m.View()
		if bVal > aVal || (bVal == aVal && v.ID(int(bRow)) > v.ID(int(aRow))) {
			return int(bRow), true
		}
		return int(aRow), true
	case aOK:
		return int(aRow), true
	case bOK:
		return int(bRow), true
	}
	return 0, false
}

// Store is the thread-safe tuple history, deduplicated by tuple ID, with a
// sorted shard per indexed ordinal attribute.
type Store struct {
	schema *types.Schema
	arena  *colstore.Arena

	mu   sync.RWMutex
	byID map[int]uint32 // tuple ID -> arena row

	shards map[int]*shard // ordinal attr index -> shard
}

// NewStore builds an empty history over schema, indexing every ordinal
// attribute.
func NewStore(schema *types.Schema) *Store {
	s := &Store{
		schema: schema,
		arena:  colstore.NewArena(colstore.NewLayout(schema), colstore.NewDict()),
		byID:   make(map[int]uint32),
		shards: make(map[int]*shard),
	}
	for _, attr := range schema.OrdinalIndexes() {
		s.shards[attr] = &shard{attr: attr}
	}
	return s
}

// View snapshots the store's current rows for index-based scanning.
func (s *Store) View() colstore.View { return s.arena.View() }

// matcherPool recycles compiled matchers so steady-state lookups allocate
// nothing for predicate compilation.
var matcherPool = sync.Pool{New: func() any { return new(colstore.Matcher) }}

// Add inserts tuples not already present (by ID) and returns how many rows
// were appended. The tuples' values are copied into columns; callers may
// reuse their slices. Add returns only after every shard reflects the new
// tuples.
//
// A tuple whose ID is stored with DIFFERENT values — the upstream edited the
// listing in place — is appended as a new row version and becomes the row
// its ID resolves to. Rows never change, so whatever cites the old version
// keeps reading what the upstream said at the time; the old version also
// stays in the sorted shards, where it is one more unconfirmed hint.
func (s *Store) Add(tuples ...types.Tuple) int {
	return s.add(tuples, nil)
}

// AddRows is Add that also returns the arena row now holding each tuple, in
// argument order: the existing row for an unchanged tuple, a fresh one for a
// new or changed tuple. Two calls therefore return the same rows exactly
// when the upstream said the same thing both times.
func (s *Store) AddRows(tuples []types.Tuple) []uint32 {
	rows := make([]uint32, len(tuples))
	s.add(tuples, rows)
	return rows
}

func (s *Store) add(tuples []types.Tuple, rows []uint32) int {
	var news []uint32
	s.mu.Lock()
	for i, t := range tuples {
		row, seen := s.byID[t.ID]
		// The view is taken per comparison: it must cover rows this very
		// call appended, and costs two atomic loads.
		if !seen || !s.arena.View().Equal(int(row), t) {
			row = s.arena.Append(t)
			s.byID[t.ID] = row
			news = append(news, row)
		}
		if rows != nil {
			rows[i] = row
		}
	}
	s.mu.Unlock()
	if len(news) == 0 {
		return 0
	}
	for _, sh := range s.shards {
		sh.insert(s.arena, news)
	}
	return len(news)
}

// RowTuples returns the tuples stored in rows, in order, as shared row
// forms: each row is materialized at most once, however many answers cite
// it, and rows nobody asks for are never materialized. The result slice is
// the caller's; the tuples' Ord slices and Cat maps are shared and must not
// be modified.
func (s *Store) RowTuples(rows []uint32) []types.Tuple {
	if len(rows) == 0 {
		return nil
	}
	v := s.arena.View()
	out := make([]types.Tuple, len(rows))
	for i, row := range rows {
		out[i] = v.Shared(int(row))
	}
	return out
}

// RowTuplesMatching is RowTuples restricted to the rows matching q, order
// kept.
func (s *Store) RowTuplesMatching(q query.Query, rows []uint32) []types.Tuple {
	v := s.arena.View()
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	var out []types.Tuple
	for _, row := range rows {
		if m.Match(int(row)) {
			if out == nil {
				out = make([]types.Tuple, 0, len(rows))
			}
			out = append(out, v.Shared(int(row)))
		}
	}
	matcherPool.Put(m)
	return out
}

// Rows returns the arena row watermark: rows [0, Rows()) are stored and,
// because the arena is append-only, will never change or move. Persistence
// uses contiguous row ranges below this watermark as its incremental unit.
func (s *Store) Rows() int { return s.arena.Len() }

// ExportRows materializes the tuples in arena rows [lo, hi), clamped to the
// currently published rows. Row order is insertion order, so replaying
// exported ranges through Add reproduces identical row numbers.
func (s *Store) ExportRows(lo, hi int) []types.Tuple {
	return s.arena.View().TupleRange(lo, hi)
}

// Size returns the number of distinct tuples stored.
func (s *Store) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Has reports whether a tuple with the given ID is stored.
func (s *Store) Has(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.byID[id]
	return ok
}

// Get returns a copy of the stored tuple with the given ID.
func (s *Store) Get(id int) (types.Tuple, bool) {
	s.mu.RLock()
	row, ok := s.byID[id]
	s.mu.RUnlock()
	if !ok {
		return types.Tuple{}, false
	}
	return s.arena.View().Tuple(int(row)), true
}

// MinMatching returns the stored tuple matching q whose value on attr lies
// in iv and is smallest (ties: smallest ID).
func (s *Store) MinMatching(q query.Query, attr int, iv types.Interval) (types.Tuple, bool) {
	sh, ok := s.shards[attr]
	if !ok {
		return types.Tuple{}, false
	}
	v := s.arena.View()
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	row, found := sh.minMatching(m, iv)
	matcherPool.Put(m)
	if !found {
		return types.Tuple{}, false
	}
	return v.Tuple(row), true
}

// MaxMatching is MinMatching's mirror (ties: largest ID).
func (s *Store) MaxMatching(q query.Query, attr int, iv types.Interval) (types.Tuple, bool) {
	sh, ok := s.shards[attr]
	if !ok {
		return types.Tuple{}, false
	}
	v := s.arena.View()
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	row, found := sh.maxMatching(m, iv)
	matcherPool.Put(m)
	if !found {
		return types.Tuple{}, false
	}
	return v.Tuple(row), true
}

// ScanRun is MinMatching (MaxMatching when desc) over run — a sorted run of
// this store's rows that the caller holds, such as a crawled region's — in
// place of an attribute shard: the tuple matching q with the smallest
// (largest) run value inside iv, ties broken as the shards break them.
func (s *Store) ScanRun(q query.Query, run colstore.Run, iv types.Interval, desc bool) (types.Tuple, bool) {
	v := s.arena.View()
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	var row uint32
	var found bool
	if desc {
		row, _, found = run.ScanMax(m, iv)
	} else {
		row, _, found = run.ScanMin(m, iv)
	}
	matcherPool.Put(m)
	if !found {
		return types.Tuple{}, false
	}
	return v.Tuple(int(row)), true
}

// ScanMatching calls fn for every row of view v from row from on that matches
// q, in insertion order. fn reads attribute values straight from v's columns
// — the zero-alloc hot path for scoring scans — and the caller's view bounds
// the scan: fn may re-enter the store (including Add), and rows added during
// iteration are not visited. Rows never change, so a caller that keeps what
// it matched resumes at the view's Len and never rescans a row (MD seeding).
func (s *Store) ScanMatching(q query.Query, v colstore.View, from int, fn func(row int)) {
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	for row := from; row < v.Len(); row++ {
		if m.Match(row) {
			fn(row)
		}
	}
	matcherPool.Put(m)
}

// CountMatching returns the number of stored tuples matching q.
func (s *Store) CountMatching(q query.Query) int {
	v := s.arena.View()
	m := matcherPool.Get().(*colstore.Matcher)
	m.Reset(v, q)
	n := 0
	for row := 0; row < v.Len(); row++ {
		if m.Match(row) {
			n++
		}
	}
	matcherPool.Put(m)
	return n
}

// StorageStats describes the store's columnar footprint.
type StorageStats struct {
	// Tuples is the number of resident (deduplicated) tuples.
	Tuples int
	// Blocks is the number of sealed column blocks.
	Blocks int
	// DictEntries is the number of interned categorical symbols.
	DictEntries int
	// DictBytes approximates the string bytes retained by the dictionary.
	DictBytes int64
	// ApproxBytes approximates total resident storage: column blocks,
	// per-shard sorted runs, and the dictionary.
	ApproxBytes int64
}

// StorageStats returns the store's current storage counters.
func (s *Store) StorageStats() StorageStats {
	ast := s.arena.Stats()
	dict := s.arena.Dict()
	st := StorageStats{
		Tuples:      ast.Rows,
		Blocks:      ast.Blocks,
		DictEntries: dict.Len(),
		DictBytes:   dict.Bytes(),
	}
	shardBytes := int64(0)
	for _, sh := range s.shards {
		sh.mu.RLock()
		shardBytes += int64(12 * (sh.run.Len() + sh.buf.Len())) // 8B val + 4B row
		sh.mu.RUnlock()
	}
	st.ApproxBytes = ast.Bytes + shardBytes + st.DictBytes
	return st
}
