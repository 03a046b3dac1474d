// The probe path: every probe the algorithms and crawls send over the primary
// interface is looked up, issued and charged here (sentinel probes, which
// must see the upstream as it is now, bypass it). It keeps concurrent users
// from multiplying upstream cost — the paper's sole cost measure.
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
//     overflowing, for the identical probe only. Options.ProbeCacheSize < 0
//     turns the index off; flights are always shared.
//
// A probe whose query is trivially empty (query.Query.Empty: some range holds
// no value) is answered as an underflow — no upstream call, no charge, no
// fact.
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
// that fact.
//
// The parallel speculative MD search (md.go) leans on this path twice over:
// its concurrent probe rounds dedup against other sessions' in-flight probes
// exactly like sequential ones, and the complete answers of wasted
// speculative probes become facts (as do their overflow pages, for the
// identical probe), so a mis-speculation's upstream cost is never paid a
// second time.

package core

import (
	"fmt"
	"sync"

	"repro/internal/hidden"
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

// serve answers q from the fact index at epoch cur — by its own key, and
// when contained is set also by containment — assembling the result from the
// arena's shared row forms.
func (e *Engine) serve(key []byte, q query.Query, cur int64, contained bool) (hidden.Result, bool) {
	switch rows, kind := e.facts.lookup(key, q, cur, contained); kind {
	case hitExact:
		return hidden.Result{Tuples: e.hist.RowTuples(rows)}, true
	case hitPartial:
		e.partialHits.Add(1)
		return hidden.Result{Tuples: e.hist.RowTuples(rows), Overflow: true}, true
	case hitContained:
		e.containedHits.Add(1)
		return hidden.Result{Tuples: e.hist.RowTuplesMatching(q, rows)}, true
	}
	return hidden.Result{}, false
}

// knows reports whether the fact index would answer q, and whether with a
// complete page rather than a replayed overflow, without assembling the
// answer or counting a hit: the questions MD-RERANK asks, on the cursor
// goroutine, before it spends a probe on a deeper contour than its
// candidate's own. The fact that answers is marked used as a lookup would
// mark it — the probe that follows reads it.
func (e *Engine) knows(q query.Query) (known, complete bool) {
	if q.Empty() {
		return true, true
	}
	if e.facts == nil {
		return false, false
	}
	key := keyBufs.Get().(*[]byte)
	*key = q.AppendString((*key)[:0])
	_, kind := e.facts.lookup(*key, q, e.Epoch(), true)
	keyBufs.Put(key)
	return kind != hitNone, kind == hitExact || kind == hitContained
}

// keyBufs pools canonical-key byte buffers: a hit looks its key up from
// bytes and never allocates the string.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// probe sends one query to the primary database: the fact-index lookup, and
// on a miss fetch, which issues it under its flight and charges it. issued
// reports whether this call reached the upstream (and was charged); hits and
// coalesced followers are free.
func (s *Session) probe(q query.Query) (res hidden.Result, issued bool, err error) {
	var known bool
	if res, known, err = s.lookup(q); known || err != nil {
		return res, false, err
	}
	return s.fetch(q)
}

// lookup is the first half of a probe: q answered from what is already
// known — nothing can match an empty query; otherwise the identical answer,
// or the part of a containing complete answer that matches q — without ever
// touching the upstream. Callers that dispatch several probes at once look
// every one up first, on their own goroutine, and fetch only the misses.
func (s *Session) lookup(q query.Query) (res hidden.Result, known bool, err error) {
	if q.Empty() {
		return hidden.Result{}, true, nil
	}
	if s.e.facts == nil {
		return hidden.Result{}, false, nil
	}
	key := keyBufs.Get().(*[]byte)
	*key = q.AppendString((*key)[:0])
	res, known = s.e.serve(*key, q, s.e.Epoch(), true)
	keyBufs.Put(key)
	return res, known, nil
}

// fetch asks the upstream for q, which lookup has missed, deduplicating
// identical probes in flight, and charges the engine counter and this
// session's ledger one query when this call is the one that reached the
// upstream. It consults the fact index for q's own key only (under the
// flight, where another leader may just have filled it) and never for
// containment: so which probes of a concurrent round are free never depends
// on which finished first.
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
func (s *Session) fetch(q query.Query) (res hidden.Result, issued bool, err error) {
	e := s.e
	key := q.String()
	cur := e.Epoch()
	res, _, err = e.flights.Do(key, func() (hidden.Result, error) {
		if r, ok := e.serve([]byte(key), q, cur, false); ok {
			return r, nil
		}
		issued = true
		fres, ferr := e.db.TopK(q)
		if ferr != nil {
			return fres, ferr
		}
		// Arena first, fact second, all while the flight is still
		// registered: the fact cites published rows only, and a caller
		// arriving between flight completion and the index write cannot
		// slip through both and re-issue the probe upstream.
		e.publish.Lock()
		out := e.facts.learn(key, q, e.hist.AddRows(fres.Tuples), fres.Overflow, cur)
		e.publish.Unlock()
		if out.promoted {
			e.revalPromoted.Add(1)
		}
		if out.evicted {
			e.revalEvicted.Add(1)
		}
		if p := e.persist.Load(); p != nil && out.fact != nil {
			// The fact is immutable apart from its epoch, which cur pins.
			f := out.fact
			p.record(pendingOp{q: f.q, rows: f.rows, overflow: f.partial, epoch: cur})
		}
		return fres, nil
	})
	if err == nil && issued {
		e.queries.Add(1)
		s.queries.Add(1)
	}
	return res, issued, err
}
