// Probe coalescing: the issue-path layer that keeps concurrent users from
// multiplying upstream cost — the paper's sole cost measure.
//
// Two mechanisms, both keyed by the query's canonical string form:
//
//   - Singleflight: identical upstream TopK probes in flight at the same
//     moment are issued once; followers block on the leader's result. This
//     matters exactly when many users ask overlapping queries concurrently.
//   - A small bounded LRU of recent *complete* probe answers (valid or
//     underflow results, §2.1). A complete answer is authoritative — the
//     upstream returned every matching tuple — so replaying it is exact.
//     Overflow pages are partial and are never cached.
//
// Deduplicated probes count once: only the call that actually reaches the
// upstream charges the engine-wide and session query counters. Results are
// shared across goroutines and must be treated as immutable (the reranking
// algorithms only read them; the history store clones on insert).
//
// Correctness against *living* upstreams comes from knowledge epochs:
// every cached answer carries the epoch it was learned under, and an entry
// whose epoch trails the engine's current epoch (a sentinel detected
// upstream drift) is not replayed blindly. Its first touch issues exactly
// one confirming probe through the flight group: an unchanged answer
// promotes the entry to the current epoch, a changed one replaces (or, on
// overflow, evicts) just that entry. Options.DisableCoalescing opts out
// entirely for upstreams too volatile even for that.
//
// The parallel speculative MD search (md.go) leans on this layer twice
// over: its concurrent probe rounds dedup against other sessions' in-flight
// probes exactly like sequential ones, and the complete answers of wasted
// speculative probes land in the LRU, so a mis-speculation's upstream cost
// is never paid a second time.

package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/hidden"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/types"
)

// defaultProbeCacheSize bounds the probe LRU when Options.ProbeCacheSize is
// zero. Entries are whole top-k pages, so the worst-case footprint is
// defaultProbeCacheSize·k tuples.
const defaultProbeCacheSize = 1024

// flight is one in-flight upstream call shared by its followers.
type flight struct {
	done chan struct{}
	res  hidden.Result
	err  error
	// followers counts callers committed to this flight's result (guarded
	// by flightGroup.mu). Tests wait on it instead of sleeping.
	followers int
}

// flightGroup is a minimal singleflight: Do runs fn once per key among
// concurrent callers and hands every caller the same result.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[string]*flight)}
}

// Do executes fn for key, coalescing concurrent callers onto one execution.
// leader reports whether this caller actually ran fn.
//
// A follower only ever inherits a SUCCESSFUL flight. When the leader's call
// fails, the failure is the leader's alone — handing its error to every
// coalesced follower would fan one transient upstream hiccup out to N
// independent requests that never touched the upstream. Instead a follower
// waking to a failed flight re-contends for the key: it becomes the new
// leader (or follows a newer one), so each caller's outcome reflects an
// upstream attempt made on its own behalf. Leaders still see their own
// error, so retry/backoff policy stays with the caller that paid the probe.
func (g *flightGroup) Do(key string, fn func() (hidden.Result, error)) (res hidden.Result, leader bool, err error) {
	for {
		g.mu.Lock()
		if f, ok := g.inflight[key]; ok {
			f.followers++
			g.mu.Unlock()
			<-f.done
			if f.err != nil {
				continue // leader failed; re-contend instead of inheriting
			}
			return f.res, false, nil
		}
		f := &flight{done: make(chan struct{})}
		g.inflight[key] = f
		g.mu.Unlock()

		// Complete the flight even if fn panics: a leaked inflight entry
		// would wedge every future caller of this key on <-f.done forever.
		// The pre-set error stands when fn panics (the assignment below
		// never runs), so followers re-issue instead of reading a fabricated
		// empty success while the panic unwinds the leader.
		f.err = errFlightPanicked
		defer func() {
			g.mu.Lock()
			delete(g.inflight, key)
			g.mu.Unlock()
			close(f.done)
		}()
		f.res, f.err = fn()
		return f.res, true, f.err
	}
}

// errFlightPanicked is what coalesced followers observe when the leader's
// upstream call panicked before producing a result.
var errFlightPanicked = fmt.Errorf("core: coalesced upstream probe aborted by panic")

// probeCache is a bounded LRU of complete (valid/underflow) probe results.
//
// Entries are stored in columnar form (colstore.Answer: flat ID/value/symbol
// lanes interned into the history's shared dictionary) rather than as row
// structs, so a full cache of top-k pages costs a few slices per entry
// instead of cap·k tuples each with its own Ord slice and Cat map. The row
// form is materialized lazily on first hit and memoized — repeated hits on a
// hot probe return the same shared immutable tuples with zero allocation.
// Answers that cannot be encoded exactly (irregular tuples) fall back to
// plain row storage.
type probeCache struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent; values are *cacheEntry
	byKey  map[string]*list.Element
	layout *colstore.Layout
	dict   *colstore.Dict
}

type cacheEntry struct {
	key   string
	ans   *colstore.Answer // columnar form; nil when not exactly representable
	res   hidden.Result    // row form: direct storage, or memoized from ans
	memo  bool             // res has been materialized from ans
	epoch int64            // knowledge epoch the answer was learned under
}

func newProbeCache(capacity int, layout *colstore.Layout, dict *colstore.Dict) *probeCache {
	if capacity <= 0 {
		return nil
	}
	return &probeCache{
		cap:    capacity,
		order:  list.New(),
		byKey:  make(map[string]*list.Element, capacity),
		layout: layout,
		dict:   dict,
	}
}

// fill stores res into ce, compacting to columnar form when possible.
func (p *probeCache) fill(ce *cacheEntry, res hidden.Result) {
	ce.ans, ce.res, ce.memo = nil, res, false
	if p.layout == nil || len(res.Tuples) == 0 {
		return
	}
	if ans, ok := colstore.EncodeAnswer(p.layout, p.dict, res.Tuples); ok {
		ce.ans = ans
		ce.res = hidden.Result{Overflow: res.Overflow}
	}
}

// rowForm returns ce's answer as shared immutable tuples, materializing and
// memoizing the columnar form on first use. Callers hold p.mu.
func (ce *cacheEntry) rowForm() hidden.Result {
	if ce.ans != nil && !ce.memo {
		ce.res.Tuples = ce.ans.Decode()
		ce.memo = true
	}
	return ce.res
}

func (p *probeCache) get(key string) (hidden.Result, int64, bool) {
	if p == nil {
		return hidden.Result{}, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.byKey[key]
	if !ok {
		return hidden.Result{}, 0, false
	}
	p.order.MoveToFront(el)
	ce := el.Value.(*cacheEntry)
	return ce.rowForm(), ce.epoch, true
}

// remove evicts one entry (its cached answer no longer matches the
// upstream and the fresh answer is not cacheable).
func (p *probeCache) remove(key string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.order.Remove(el)
		delete(p.byKey, key)
	}
}

// size returns the number of cached complete answers.
func (p *probeCache) size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len()
}

// approxBytes estimates the resident bytes of the columnar-encoded entries.
func (p *probeCache) approxBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var b int64
	for el := p.order.Front(); el != nil; el = el.Next() {
		if ce := el.Value.(*cacheEntry); ce.ans != nil {
			b += ce.ans.Bytes()
		}
	}
	return b
}

func (p *probeCache) put(key string, res hidden.Result, epoch int64) {
	if p == nil || res.Overflow {
		return // only complete answers are authoritative
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.order.MoveToFront(el)
		ce := el.Value.(*cacheEntry)
		p.fill(ce, res)
		ce.epoch = epoch
		return
	}
	ce := &cacheEntry{key: key, epoch: epoch}
	p.fill(ce, res)
	p.byKey[key] = p.order.PushFront(ce)
	for p.order.Len() > p.cap {
		oldest := p.order.Back()
		p.order.Remove(oldest)
		delete(p.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// coalescer wraps the engine's primary database with singleflight dedup and
// the complete-answer LRU. It is safe for concurrent use.
type coalescer struct {
	db       hidden.Database
	flights  *flightGroup
	cache    *probeCache
	disabled bool // pass every probe straight through

	// epochFn reports the engine's current knowledge epoch; cache entries
	// learned under an older epoch are re-validated before replay.
	epochFn func() int64

	// Lazy re-validation outcome counters (see TopK).
	revalPromoted atomic.Int64
	revalEvicted  atomic.Int64

	// persist, when attached, records every complete answer admitted to the
	// cache so incremental checkpoints persist probe-level warmth.
	persist atomic.Pointer[Persister]
}

// newCoalescer builds the coalescing layer. layout and dict come from the
// engine's history store, so cached answers intern their categorical values
// into the same dictionary as the tuple history. epochFn supplies the
// current knowledge epoch (nil pins every entry to index.FirstEpoch).
func newCoalescer(db hidden.Database, cacheSize int, disabled bool, layout *colstore.Layout, dict *colstore.Dict, epochFn func() int64) *coalescer {
	if cacheSize == 0 {
		cacheSize = defaultProbeCacheSize
	}
	return &coalescer{
		db:       db,
		flights:  newFlightGroup(),
		cache:    newProbeCache(cacheSize, layout, dict),
		disabled: disabled,
		epochFn:  epochFn,
	}
}

// curEpoch returns the engine's current knowledge epoch.
func (c *coalescer) curEpoch() int64 {
	if c.epochFn == nil {
		return index.FirstEpoch
	}
	return c.epochFn()
}

// revalStats returns how many stale cache entries were promoted (confirmed
// unchanged) vs replaced/evicted (drifted) by lazy re-validation.
func (c *coalescer) revalStats() (promoted, evicted int64) {
	return c.revalPromoted.Load(), c.revalEvicted.Load()
}

// seed inserts one complete answer into the LRU at the epoch it was learned
// under, without a persistence record — the segment-replay path, where the
// answer is already committed on disk. A no-op when coalescing is disabled,
// the cache is off, or the result is not complete.
func (c *coalescer) seed(key string, res hidden.Result, epoch int64) {
	if c.disabled {
		return
	}
	c.cache.put(key, res, epoch)
}

// recordPut forwards a complete, cacheable answer to the attached persister.
// Mirrors put's own admission rules (no cache, or overflow ⇒ not cached ⇒
// not recorded) so the journal never carries entries replay would drop.
func (c *coalescer) recordPut(key string, res hidden.Result, epoch int64) {
	if c.cache == nil || res.Overflow {
		return
	}
	if p := c.persist.Load(); p != nil {
		p.recordProbe(key, res, epoch)
	}
}

// cacheSize returns the number of complete answers currently cached.
func (c *coalescer) cacheSize() int {
	if c.disabled {
		return 0
	}
	return c.cache.size()
}

// cacheBytes approximates the resident bytes of columnar-encoded cached
// answers.
func (c *coalescer) cacheBytes() int64 {
	if c.disabled {
		return 0
	}
	return c.cache.approxBytes()
}

// TopK answers q, deduplicating in-flight identical probes and serving
// recent complete answers from the LRU. issued reports whether this call
// actually reached the upstream (cache hits and coalesced followers are
// free and must not be charged).
//
// A cache hit whose epoch trails the current knowledge epoch is *stale*:
// instead of replaying it, the flight group issues exactly one confirming
// upstream probe. An identical fresh answer promotes the entry to the
// current epoch (the knowledge survived the drift); a different one
// replaces the entry — or evicts it, when the fresh answer overflowed and
// is no longer cacheable. Either way the stale entry costs one probe on
// first touch, never a wholesale cache flush.
func (c *coalescer) TopK(q query.Query) (res hidden.Result, issued bool, err error) {
	if c.disabled {
		res, err = c.db.TopK(q)
		return res, true, err
	}
	key := q.String()
	cur := c.curEpoch()
	stale, staleEpoch, inCache := c.cache.get(key)
	if inCache && staleEpoch >= cur {
		return stale, false, nil
	}
	res, _, err = c.flights.Do(key, func() (hidden.Result, error) {
		// Re-check under the flight: another leader may have filled or
		// re-validated the entry while this caller contended for the key.
		if r2, e2, ok2 := c.cache.get(key); ok2 && e2 >= cur {
			return r2, nil
		}
		issued = true
		fres, ferr := c.db.TopK(q)
		if ferr != nil {
			return fres, ferr
		}
		switch {
		case inCache && resultsEqual(fres, stale):
			c.revalPromoted.Add(1)
		case inCache:
			c.revalEvicted.Add(1)
			if fres.Overflow {
				// The drifted answer is partial now; the stale complete
				// answer must not survive to mislead anyone.
				c.cache.remove(key)
			}
		}
		// Populate the cache while the flight is still registered, so a
		// caller arriving between flight completion and cache write cannot
		// slip through both and re-issue the probe upstream. put is also
		// the promote path: same answer, current epoch.
		c.cache.put(key, fres, cur)
		c.recordPut(key, fres, cur)
		return fres, ferr
	})
	return res, issued, err
}

// resultsEqual reports whether two complete probe answers are identical:
// same overflow flag and the same tuples (ID, ordinal values, categorical
// values) in the same order. Used to decide promote-vs-evict during lazy
// re-validation.
func resultsEqual(a, b hidden.Result) bool {
	if a.Overflow != b.Overflow || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !sameTuple(a.Tuples[i], b.Tuples[i]) {
			return false
		}
	}
	return true
}

// sameTuple compares ID and attribute values (not slice identity).
func sameTuple(a, b types.Tuple) bool {
	if a.ID != b.ID || len(a.Ord) != len(b.Ord) || len(a.Cat) != len(b.Cat) {
		return false
	}
	for i := range a.Ord {
		if a.Ord[i] != b.Ord[i] {
			return false
		}
	}
	for k, v := range a.Cat {
		if b.Cat[k] != v {
			return false
		}
	}
	return true
}
