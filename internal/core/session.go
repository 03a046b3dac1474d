// The Session layer: per-cursor execution state.
//
// A Session is the lightweight, single-request counterpart of the shared
// Engine: it carries the upstream-cost ledger for one unit of work (one
// service request, one experiment run, one TA cursor tree) while every
// heavyweight structure — history, crawled regions, the fact index, flights —
// is shared through the Engine. Sessions are cheap to create; make one per
// request. Many sessions may run concurrently against one engine; the
// cursors created from a single session are themselves sequential objects
// (drive each cursor from one goroutine at a time).

package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/crawl"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// Session groups the cursors of one logical request against an Engine and
// tracks the upstream queries charged to it. Coalesced and cached probes are
// free — including probes answered from a snapshot-restored cache after a
// warm restart: a session is only charged for probes that actually reached
// the upstream on its behalf.
type Session struct {
	e       *Engine
	queries atomic.Int64
	// workers bounds the session's concurrent speculative probes (nil when
	// Options.SearchParallelism ≤ 1): one MD cursor issues at most one
	// round of SearchParallelism probes at a time, and several cursors of
	// the same session share this pool rather than multiplying it.
	workers chan struct{}
}

// NewSession starts a session against the engine. Sessions are cheap;
// create one per request (or per cursor) and read its Queries ledger for
// the request's upstream cost.
func (e *Engine) NewSession() *Session {
	s := &Session{e: e}
	if w := e.searchWidth(); w > 1 {
		s.workers = make(chan struct{}, w)
	}
	return s
}

// probeResult is one outcome slot of a concurrent probe round. issued
// mirrors probe's flag: whether this probe reached the upstream (and was
// therefore charged), as opposed to replaying a cached or coalesced answer
// for free.
type probeResult struct {
	res    hidden.Result
	issued bool
	err    error
	known  bool // issueAll scratch: lookup answered the probe
}

// issueAll issues qs concurrently, bounded by the session's worker pool,
// writing outcome i into out[i]. Charging is per probe exactly as in probe:
// only calls that reach the upstream are charged, atomically, so the ledger
// total is order-independent and reproducible. Callers own qs and out again
// once issueAll returns.
//
// Every probe is looked up here, on the caller's goroutine, before any of the
// round's upstream calls is in flight, and the misses then only fetch: a
// round's probes may be nested (the MD search's tightening ladder), and were
// they free to answer one another by containment, which of them got charged
// would depend on which finished first.
func (s *Session) issueAll(qs []query.Query, out []probeResult) {
	if len(qs) == 1 || s.workers == nil {
		for i := range qs {
			out[i].res, out[i].issued, out[i].err = s.probe(qs[i])
		}
		return
	}
	for i := range qs {
		res, known, err := s.lookup(qs[i])
		out[i] = probeResult{res: res, known: known, err: err}
	}
	var wg sync.WaitGroup
	for i := range qs {
		if out[i].known || out[i].err != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.workers <- struct{}{}
			defer func() { <-s.workers }()
			out[i].res, out[i].issued, out[i].err = s.fetch(qs[i])
		}(i)
	}
	wg.Wait()
}

// Queries returns the number of upstream queries charged to this session —
// the per-request incarnation of the paper's cost measure. Probes answered
// from the fact index or by another session's in-flight call cost nothing.
func (s *Session) Queries() int64 { return s.queries.Load() }

// issueOn sends one query directly to an alternate database view (e.g. an
// ORDER BY view, §5). Views rank differently from the primary interface, so
// their answers must not share the primary probe cache.
func (s *Session) issueOn(db hidden.Database, q query.Query) (hidden.Result, error) {
	res, err := db.TopK(q)
	if err != nil {
		return res, err
	}
	s.e.queries.Add(1)
	s.queries.Add(1)
	s.e.hist.Add(res.Tuples...)
	return res, nil
}

// CrawlAll retrieves every tuple matching q (deduplicated and sorted by ID)
// by completely crawling it — the engine-integrated counterpart of
// crawl.Crawler.All. Every sub-query is a probe, so concurrent crawls of
// overlapping regions dedup at probe granularity, repeat crawls replay cached
// complete answers for free, and each probe that reaches the upstream is
// charged — once, to the leader — against the engine and this session as it
// is issued, also when the crawl fails part-way.
func (s *Session) CrawlAll(q query.Query) ([]types.Tuple, error) {
	return crawl.New(s.e.db, crawl.Options{Probe: func(q query.Query) (hidden.Result, error) {
		res, _, err := s.probe(q)
		return res, err
	}}).All(q)
}

// crawledLookup resolves the box (a query of ranges only) against the
// crawled regions with lazy epoch re-validation: a covering fact at the
// current epoch is returned as-is (zero probes); a stale one gets exactly
// one confirming probe over its whole box — an unchanged answer promotes it
// to the current epoch, a drifted one removes it (and the lookup retries, in
// case an older overlapping fact also covers box). nil means the caller must
// crawl.
func (s *Session) crawledLookup(box query.Query) (*fact, error) {
	e := s.e
	for {
		f := e.crawled.lookup(box)
		if f == nil {
			return nil, nil
		}
		cur := e.Epoch()
		if f.epoch >= cur {
			return f, nil
		}
		confirm, _, err := s.probe(f.q)
		if err != nil {
			return nil, err
		}
		if s.confirmsRegion(f.rows, confirm) {
			e.denseRevalPromoted.Add(1)
			return e.crawled.promote(f, cur), nil
		}
		e.crawled.remove(f)
		e.denseRevalEvicted.Add(1)
	}
}

// confirmsRegion decides whether a confirming probe's answer is consistent
// with a stored crawled region — the rule a stale fact is re-validated by
// (same rows: the knowledge survived the drift), for rows that are a set
// rather than a page. The arena gives a tuple whose values changed a new
// row, so citing the same rows is saying the same thing. A complete answer
// must cite exactly the region's rows (the region claims every corpus tuple
// in range). An overflowing answer is partial; every row it cites must then
// be one of the region's, which is the strongest check one probe can buy.
func (s *Session) confirmsRegion(stored []uint32, res hidden.Result) bool {
	if len(res.Tuples) > len(stored) || (!res.Overflow && len(res.Tuples) != len(stored)) {
		return false
	}
	sorted := slices.Clone(stored)
	slices.Sort(sorted)
	for _, row := range s.e.hist.AddRows(res.Tuples) {
		if _, ok := slices.BinarySearch(sorted, row); !ok {
			return false
		}
	}
	return true
}

// crawlBox crawls the box (a query of ranges only: no selection condition of
// any user), so the region serves every future user query, and records it as
// a crawled fact. Concurrent crawls of the same box are deduplicated: one
// session leads, the rest wait and read the inserted fact for free.
func (s *Session) crawlBox(box query.Query) error {
	_, _, err := s.e.crawls.Do(box.String(), func() (hidden.Result, error) {
		// Re-check under the flight: a leader that finished between our
		// caller's lookup miss and this Do would otherwise be re-crawled
		// in full (coverage is monotone, so a hit here is authoritative).
		// The epoch-aware lookup re-validates a stale covering fact
		// instead of skipping the crawl on its word alone.
		if f, err := s.crawledLookup(box); err != nil || f != nil {
			return hidden.Result{}, err
		}
		tuples, err := s.CrawlAll(box)
		if err != nil {
			return hidden.Result{}, err
		}
		s.e.insertCrawled(box, tuples)
		return hidden.Result{}, nil
	})
	return err
}

// crawledFact is the dense-region oracle of Algorithms 4 and 6: the crawled
// fact covering box, crawling it on a miss.
func (s *Session) crawledFact(box query.Query) (*fact, error) {
	f, err := s.crawledLookup(box)
	if err != nil || f != nil {
		return f, err
	}
	if err := s.crawlBox(box); err != nil {
		return nil, err
	}
	if f, err = s.crawledLookup(box); err == nil && f == nil {
		// Coverage is monotone within an epoch: a freshly crawled box
		// stays covered, so this indicates corruption, never a benign miss.
		err = fmt.Errorf("core: crawled region %s missing after crawl", box)
	}
	return f, err
}

// NewCursor builds a cursor running the given algorithm variant for user
// query q under ranker r, charging upstream cost to this session.
// Single-attribute rankers use the 1D algorithms; multi-attribute rankers
// use the MD family (or TA). It returns an error for invalid combinations.
func (s *Session) NewCursor(q query.Query, r ranking.Ranker, v Variant) (Cursor, error) {
	attrs := r.Attrs()
	for _, a := range attrs {
		if a < 0 || a >= s.e.db.Schema().Len() || s.e.db.Schema().Attr(a).Kind != types.Ordinal {
			return nil, fmt.Errorf("core: ranker attribute %d is not an ordinal attribute", a)
		}
	}
	if len(attrs) == 1 {
		if v == TAOverOneD {
			return nil, fmt.Errorf("core: TA requires a multi-attribute ranking function")
		}
		return s.NewOneDCursor(q, attrs[0], r.Dir(0), v), nil
	}
	if v == TAOverOneD {
		return s.NewTACursor(q, r), nil
	}
	return s.NewMDCursor(q, r, v), nil
}
