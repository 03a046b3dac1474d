// Probe coalescing: the issue-path layer that keeps concurrent users from
// multiplying upstream cost — the paper's sole cost measure.
//
// Two mechanisms:
//
//   - Singleflight, keyed by the query's canonical string form: identical
//     upstream TopK probes in flight at the same moment are issued once;
//     followers block on the leader's result. This matters exactly when many
//     users ask overlapping queries concurrently.
//   - The fact index (facts.go): a bounded LRU of probe answers held as
//     coverage facts over the history arena. A *complete* answer (a valid or
//     underflow result, §2.1) is authoritative for its whole box — the
//     upstream returned every matching tuple — so it replays exactly, both
//     for the identical probe and for every probe its box contains. An
//     overflow page is the exact answer to its own probe and nothing more:
//     it is kept as a partial fact that replays, still flagged as
//     overflowing, for the identical probe only.
//
// A probe whose query is trivially empty (query.Query.Empty: some range holds
// no value) is answered here as an underflow — no upstream call, no charge,
// no fact.
//
// The issuing leader adds the returned page to the history arena INSIDE its
// flight, before the fact is admitted and before followers wake: a fact can
// only cite published rows, and whoever sees a probe's answer — follower,
// later hit, checkpoint — finds its tuples already in the arena.
//
// Deduplicated probes count once: only the call that actually reaches the
// upstream charges the engine-wide and session query counters. Results are
// shared across goroutines and must be treated as immutable (the reranking
// algorithms only read them; hits are assembled from the arena's shared row
// forms).
//
// Correctness against *living* upstreams comes from knowledge epochs: every
// fact carries the epoch it was learned under, and a fact whose epoch trails
// the engine's current epoch (a sentinel detected upstream drift) is not
// replayed blindly and never answers by containment. Its first exact touch
// issues exactly one confirming probe through the flight group: an unchanged
// answer promotes the fact to the current epoch, a changed one replaces just
// that fact. Options.DisableCoalescing opts out entirely for upstreams too
// volatile even for that.
//
// The parallel speculative MD search (md.go) leans on this layer twice
// over: its concurrent probe rounds dedup against other sessions' in-flight
// probes exactly like sequential ones, and the complete answers of wasted
// speculative probes become facts (as do their overflow pages, for the
// identical probe), so a mis-speculation's upstream cost is never paid a
// second time.

package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hidden"
	"repro/internal/history"
	"repro/internal/query"
)

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

// coalescer wraps the engine's primary database with singleflight dedup and
// the fact index. It is safe for concurrent use.
type coalescer struct {
	db       hidden.Database
	hist     *history.Store // the one tuple store: every issued page lands here
	flights  *flightGroup
	facts    *factIndex // nil when the cache is off (in-flight dedup only)
	disabled bool       // pass every probe straight through

	// epochFn reports the engine's current knowledge epoch; facts learned
	// under an older epoch are re-validated before replay.
	epochFn func() int64

	// containedHits counts probes answered from a fact whose box contains
	// them, partialHits probes answered by replaying their own overflow page
	// (exact hits on complete facts are counted by neither).
	containedHits atomic.Int64
	partialHits   atomic.Int64
	// Lazy re-validation outcome counters (see TopK).
	revalPromoted atomic.Int64
	revalEvicted  atomic.Int64

	// persist, when attached, records every fact admitted or confirmed so
	// incremental checkpoints persist probe-level warmth.
	persist atomic.Pointer[Persister]
}

// newCoalescer builds the coalescing layer over the engine's history store.
// epochFn supplies the current knowledge epoch (nil pins every fact to
// FirstEpoch).
func newCoalescer(db hidden.Database, cacheSize int, disabled bool, hist *history.Store, epochFn func() int64) *coalescer {
	if cacheSize == 0 {
		cacheSize = defaultProbeCacheSize
	}
	c := &coalescer{db: db, hist: hist, flights: newFlightGroup(), disabled: disabled, epochFn: epochFn}
	if !disabled {
		c.facts = newFactIndex(cacheSize)
	}
	return c
}

// curEpoch returns the engine's current knowledge epoch.
func (c *coalescer) curEpoch() int64 {
	if c.epochFn == nil {
		return FirstEpoch
	}
	return c.epochFn()
}

// revalStats returns how many stale facts were promoted (confirmed
// unchanged) vs replaced/evicted (drifted) by lazy re-validation.
func (c *coalescer) revalStats() (promoted, evicted int64) {
	return c.revalPromoted.Load(), c.revalEvicted.Load()
}

// seed admits one committed fact at the epoch it was learned under, without
// a persistence record — the segment-replay path. A no-op when coalescing is
// disabled or the cache is off.
func (c *coalescer) seed(q query.Query, rows []uint32, overflow bool, epoch int64) {
	c.facts.learn(q.String(), q, rows, overflow, epoch)
}

// cacheSize returns the number of facts currently held.
func (c *coalescer) cacheSize() int {
	if c.facts == nil {
		return 0
	}
	return int(c.facts.entries.Load())
}

// cacheBytes approximates the resident bytes of the held facts.
func (c *coalescer) cacheBytes() int64 {
	if c.facts == nil {
		return 0
	}
	return c.facts.bytes.Load()
}

// serve answers q from the fact index at epoch cur — by its own key, and
// when contained is set also by containment — assembling the result from the
// arena's shared row forms.
func (c *coalescer) serve(key []byte, q query.Query, cur int64, contained bool) (hidden.Result, bool) {
	switch rows, kind := c.facts.lookup(key, q, cur, contained); kind {
	case hitExact:
		return hidden.Result{Tuples: c.hist.RowTuples(rows)}, true
	case hitPartial:
		c.partialHits.Add(1)
		return hidden.Result{Tuples: c.hist.RowTuples(rows), Overflow: true}, true
	case hitContained:
		c.containedHits.Add(1)
		return hidden.Result{Tuples: c.hist.RowTuplesMatching(q, rows)}, true
	}
	return hidden.Result{}, false
}

// lookup answers q from what is already known — nothing can match an empty
// query; otherwise the identical answer, or the part of a containing complete
// answer that matches q — without ever touching the upstream.
func (c *coalescer) lookup(q query.Query) (hidden.Result, bool) {
	if q.Empty() {
		return hidden.Result{}, true
	}
	if c.facts == nil {
		return hidden.Result{}, false
	}
	key := keyBufs.Get().(*[]byte)
	*key = q.AppendString((*key)[:0])
	res, ok := c.serve(*key, q, c.curEpoch(), true)
	keyBufs.Put(key)
	return res, ok
}

// knows reports whether lookup would answer q, and whether with a complete
// page rather than a replayed overflow, without assembling the answer or
// counting a hit: the questions MD-RERANK asks, on the cursor goroutine, before
// it spends a probe on a deeper contour than its candidate's own. The fact that
// answers is marked used as lookup would mark it — the probe that follows
// reads it.
func (c *coalescer) knows(q query.Query) (known, complete bool) {
	if q.Empty() {
		return true, true
	}
	if c.facts == nil {
		return false, false
	}
	key := keyBufs.Get().(*[]byte)
	*key = q.AppendString((*key)[:0])
	_, kind := c.facts.lookup(*key, q, c.curEpoch(), true)
	keyBufs.Put(key)
	return kind != hitNone, kind == hitExact || kind == hitContained
}

// keyBufs pools canonical-key byte buffers: a hit looks its key up from
// bytes and never allocates the string.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// TopK answers q: from the fact index when it can (lookup), else from the
// upstream (fetch). issued reports whether this call actually reached the
// upstream (hits and coalesced followers are free and must not be charged).
func (c *coalescer) TopK(q query.Query) (res hidden.Result, issued bool, err error) {
	if res, ok := c.lookup(q); ok {
		return res, false, nil
	}
	return c.fetch(q)
}

// fetch asks the upstream for q, deduplicating identical probes in flight.
// It consults the fact index for q's own key only (under the flight, where
// another leader may just have filled it) and never for containment: callers
// that dispatch several probes at once look each up first, on their own
// goroutine, so which probes of a round are free never depends on which
// finished first.
//
// An issued probe's page is added to the history arena before anything else
// can observe the answer. A fact under q's own key whose epoch trails the
// current knowledge epoch is *stale*: instead of replaying it, the flight
// group issues exactly one confirming upstream probe. An answer citing the
// same arena rows — the arena gives a tuple whose values changed a new row —
// promotes the fact to the current epoch (the knowledge survived the drift);
// a different one replaces the fact, complete or partial as the fresh answer
// is. Either way the stale fact costs one probe on first touch, never a
// wholesale flush.
func (c *coalescer) fetch(q query.Query) (res hidden.Result, issued bool, err error) {
	if q.Empty() {
		return hidden.Result{}, false, nil
	}
	if c.disabled {
		if res, err = c.db.TopK(q); err == nil {
			c.hist.Add(res.Tuples...)
		}
		return res, true, err
	}
	key := q.String()
	cur := c.curEpoch()
	res, _, err = c.flights.Do(key, func() (hidden.Result, error) {
		if r, ok := c.serve([]byte(key), q, cur, false); ok {
			return r, nil
		}
		issued = true
		fres, ferr := c.db.TopK(q)
		if ferr != nil {
			return fres, ferr
		}
		// Arena first, fact second, all while the flight is still
		// registered: the fact cites published rows only, and a caller
		// arriving between flight completion and the index write cannot
		// slip through both and re-issue the probe upstream.
		out := c.facts.learn(key, q, c.hist.AddRows(fres.Tuples), fres.Overflow, cur)
		if out.promoted {
			c.revalPromoted.Add(1)
		}
		if out.evicted {
			c.revalEvicted.Add(1)
		}
		if p := c.persist.Load(); p != nil && out.fact != nil {
			// The fact is immutable apart from its epoch, which cur pins.
			f := out.fact
			p.record(pendingOp{ranges: f.ranges, cats: f.cats, rows: f.rows, overflow: f.partial, epoch: cur})
		}
		return fres, nil
	})
	return res, issued, err
}
