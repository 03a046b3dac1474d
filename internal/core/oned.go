// 1D query reranking (§3): Get-Next on a single ordinal attribute.
//
// All three variants share one cursor type. Coordinates are handled in axis
// space (value·direction) so ascending and descending preferences use the
// same logic; axis intervals are translated back to real ranges when queries
// are issued.
//
// Ties (the removal of the general positioning assumption, §5) are handled
// at emission time: when the search pins down the next attribute value, a
// fully-specified point query collects every tuple sharing it (crawling the
// point region if even that overflows), and the tie group is emitted from a
// buffer. All search ranges are therefore strictly open at the cursor
// position.
//
// 1D-RERANK spends a probe only on what it does not know yet. When history
// already holds a candidate for the next tuple, one probe over (last, cand] —
// closed at the candidate — certifies it: a complete page IS the answer (its
// minimum, with the whole §5 tie group), and the cursor keeps the page as its
// certified page (certPage, shared with MD-RERANK), so every later Get-Next
// and tie collection that falls inside it costs nothing. Only an overflowing
// page, which merely improves the candidate as Algorithm 1's step does, leaves
// halving to do.

package core

import (
	"math"

	"repro/internal/hidden"
	"repro/internal/ranking"
	"repro/internal/types"

	"repro/internal/query"
)

// OneDCursor incrementally returns the tuples matching a user query in
// ascending order of one attribute along a direction. It implements
// 1D-BASELINE (Algorithm 1), 1D-BINARY (Algorithm 2) or 1D-RERANK
// (Algorithm 3 + the Algorithm 4 oracle) depending on the variant.
type OneDCursor struct {
	s       *Session
	q       query.Query
	attr    int
	dir     ranking.Direction
	variant Variant

	lastAxis  float64       // axis value of the last emitted tie group
	pending   []types.Tuple // small tie group awaiting emission
	exhausted bool
	opQueries int64 // queries spent in the current Next call
	certified bool  // the current Next call has spent its certification probe

	// cover is the last complete certification page (1D-RERANK only): every
	// matching tuple from where its probe started up to its theta, the
	// candidate it certified. The cursor only moves forward, so the page
	// stays complete for every position it reaches below theta.
	cover *certPage

	// Plateau state (§5): when more than k tuples share one attribute
	// value, they are enumerated lazily — "one at a time" — through a
	// sub-cursor ordered by another ordinal attribute, instead of
	// crawling the whole plateau eagerly.
	sub         *OneDCursor
	plateauAxis float64
}

// NewOneDCursor builds a 1D cursor over ordinal attribute attr along dir, in
// a fresh single-cursor session.
func (e *Engine) NewOneDCursor(q query.Query, attr int, dir ranking.Direction, v Variant) *OneDCursor {
	return e.NewSession().NewOneDCursor(q, attr, dir, v)
}

// NewOneDCursor builds a 1D cursor over ordinal attribute attr along dir.
// Variant TAOverOneD is treated as Rerank (TA's sorted access is built from
// 1D-RERANK cursors).
func (s *Session) NewOneDCursor(q query.Query, attr int, dir ranking.Direction, v Variant) *OneDCursor {
	if v == TAOverOneD {
		v = Rerank
	}
	return &OneDCursor{
		s: s, q: q.Clone(), attr: attr, dir: dir, variant: v,
		lastAxis: math.Inf(-1),
	}
}

// axisOf returns the tuple's axis coordinate on the cursor's attribute.
func (c *OneDCursor) axisOf(t types.Tuple) float64 {
	return float64(c.dir) * t.Ord[c.attr]
}

// searchFloor returns where the search for the first tuple starts: the
// tighter of the attribute's domain bound (binary search runs over V(Ai),
// §3.2.1) and the user query's own bound on the ranked attribute, in axis
// space. open reports whether the floor itself is excluded.
func (c *OneDCursor) searchFloor() (floor float64, open bool) {
	d := c.s.e.db.Schema().Domain(c.attr)
	floor = d.Min
	if c.dir == ranking.Desc {
		floor = -d.Max
	}
	if iv, ok := c.q.Range(c.attr); ok {
		if ax := c.realRange(iv); ax.Lo > floor || (ax.Lo == floor && ax.LoOpen) {
			return ax.Lo, ax.LoOpen
		}
	}
	return floor, false
}

// realRange converts an axis interval to the real-value interval for the
// cursor's attribute.
func (c *OneDCursor) realRange(iv types.Interval) types.Interval {
	if c.dir == ranking.Asc {
		return iv
	}
	return types.Interval{Lo: -iv.Hi, Hi: -iv.Lo, LoOpen: iv.HiOpen, HiOpen: iv.LoOpen}
}

// issue sends one range-restricted query, charging the per-op budget.
func (c *OneDCursor) issue(iv types.Interval) (hidden.Result, error) {
	if c.s.e.opts.MaxQueriesPerOp > 0 && c.opQueries >= c.s.e.opts.MaxQueriesPerOp {
		return hidden.Result{}, ErrBudget
	}
	c.opQueries++
	res, _, err := c.s.probe(c.q.WithRange(c.attr, c.realRange(iv)))
	return res, err
}

// minAxis returns the returned tuple with the smallest axis value strictly
// beyond the cursor position.
func (c *OneDCursor) minAxis(ts []types.Tuple) (types.Tuple, bool) {
	var best types.Tuple
	found := false
	for _, t := range ts {
		if c.axisOf(t) <= c.lastAxis {
			continue
		}
		if !found || c.axisOf(t) < c.axisOf(best) ||
			(c.axisOf(t) == c.axisOf(best) && t.ID < best.ID) {
			best, found = t, true
		}
	}
	return best, found
}

// histNext returns the best known (from history) tuple strictly after axis
// position lo. It reads under publish, so a page's tuple is seen only once
// its fact is in the index.
func (c *OneDCursor) histNext(lo float64) (types.Tuple, bool) {
	if c.s.e.opts.DisableHistory {
		return types.Tuple{}, false
	}
	iv := types.Interval{Lo: lo, LoOpen: true, Hi: math.Inf(1), HiOpen: true}
	real := c.realRange(iv)
	c.s.e.publish.RLock()
	defer c.s.e.publish.RUnlock()
	if c.dir == ranking.Asc {
		return c.s.e.hist.MinMatching(c.q, c.attr, real)
	}
	return c.s.e.hist.MaxMatching(c.q, c.attr, real)
}

// Next implements Cursor.
func (c *OneDCursor) Next() (types.Tuple, bool, error) {
	if len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		return t, true, nil
	}
	if c.sub != nil {
		t, ok, err := c.sub.Next()
		if err != nil {
			return types.Tuple{}, false, err
		}
		if ok {
			return t, true, nil
		}
		// Plateau drained: resume the main search beyond it.
		c.sub = nil
		c.lastAxis = c.plateauAxis
	}
	if c.exhausted {
		return types.Tuple{}, false, nil
	}
	c.opQueries, c.certified = 0, false
	for {
		var (
			t   types.Tuple
			ok  bool
			err error
		)
		switch c.variant {
		case Baseline:
			t, ok, err = c.nextBaseline()
		case Binary:
			t, ok, err = c.nextBinary(false)
		default:
			t, ok, err = c.nextBinary(true)
		}
		if err != nil {
			return types.Tuple{}, false, err
		}
		if !ok {
			c.exhausted = true
			return types.Tuple{}, false, nil
		}
		if err := c.tieGroup(t); err != nil {
			return types.Tuple{}, false, err
		}
		if c.sub != nil {
			// Large plateau: emissions stream from the sub-cursor; the
			// first pull must yield a tuple (t itself is in the plateau).
			tt, ok, err := c.sub.Next()
			if err != nil {
				return types.Tuple{}, false, err
			}
			if ok {
				return tt, true, nil
			}
			c.sub = nil
			c.lastAxis = c.plateauAxis
			return t, true, nil
		}
		c.lastAxis = c.axisOf(t)
		if len(c.pending) == 0 {
			// The search fell back on a history candidate the upstream no
			// longer holds at that value (drift): nothing lies up to and
			// including it, so search on from there.
			continue
		}
		out := c.pending[0]
		c.pending = c.pending[1:]
		return out, true, nil
	}
}

// tieGroup fills the pending buffer with t's §5 tie group (collectTies):
// every tuple matching q that shares t's attribute value, off the certified
// page when it lists t, else from a point query, whose answer is
// authoritative. A point query that overflows is a value plateau, enumerated
// by a sub-cursor instead. Under Options.AssumeGeneralPositioning the point
// query is skipped.
func (c *OneDCursor) tieGroup(t types.Tuple) error {
	if c.s.e.opts.AssumeGeneralPositioning {
		c.pending = append(c.pending[:0], t)
		return nil
	}
	ties, ok := c.cover.ties(t, c.axisOf(t))
	if !ok {
		v := t.Ord[c.attr]
		res, err := c.issue(types.Interval{Lo: c.axisOf(t), Hi: c.axisOf(t)})
		if err != nil {
			return err
		}
		ties = res.Tuples
		if res.Overflow {
			// More than k ties (a value plateau): enumerate lazily via a
			// sub-cursor ordered by another ordinal attribute, one tuple
			// per Get-Next, as §5 prescribes ("one at a time").
			if sub, ok := c.plateauCursor(v); ok {
				c.sub = sub
				c.plateauAxis = c.axisOf(t)
				c.pending = c.pending[:0]
				return nil
			}
			// No free ordinal attribute remains: crawl the fully-pinned
			// region, splitting on categorical attributes.
			if ties, err = c.s.CrawlAll(c.q.WithRange(c.attr, types.ClosedInterval(v, v))); err != nil {
				return err
			}
		}
	}
	c.pending, _ = collectTies(c.pending, t, []int{c.attr}, ties, nil)
	return nil
}

// plateauCursor builds the lazy plateau enumerator: a cursor over the same
// query with this attribute pinned to v, ordered by the first ordinal
// attribute whose range is not yet a single point. ok is false when every
// ordinal attribute is pinned.
func (c *OneDCursor) plateauCursor(v float64) (*OneDCursor, bool) {
	subQ := c.q.WithRange(c.attr, types.ClosedInterval(v, v))
	for _, a := range c.s.e.db.Schema().OrdinalIndexes() {
		if a == c.attr {
			continue
		}
		if iv, ok := subQ.Range(a); ok && iv.Lo == iv.Hi {
			continue // already pinned by an outer plateau level
		}
		return c.s.NewOneDCursor(subQ, a, ranking.Asc, c.variant), true
	}
	return nil, false
}

// nextBaseline is Algorithm 1: repeatedly narrow (last, cand) until the
// query stops overflowing.
func (c *OneDCursor) nextBaseline() (types.Tuple, bool, error) {
	cand, have := c.histNext(c.lastAxis)
	for {
		hi := math.Inf(1)
		if have {
			hi = c.axisOf(cand)
		}
		res, err := c.issue(types.Interval{Lo: c.lastAxis, LoOpen: true, Hi: hi, HiOpen: true})
		if err != nil {
			return types.Tuple{}, false, err
		}
		m, found := c.minAxis(res.Tuples)
		if !res.Overflow {
			if found && (!have || c.better(m, cand)) {
				return m, true, nil
			}
			return cand, have, nil
		}
		// Overflow always yields a strictly-later tuple (every return
		// lies strictly inside the open range).
		cand, have = m, true
		_ = found
	}
}

// better reports whether a precedes b in cursor order.
func (c *OneDCursor) better(a, b types.Tuple) bool {
	if c.axisOf(a) != c.axisOf(b) {
		return c.axisOf(a) < c.axisOf(b)
	}
	return a.ID < b.ID
}

// nextBinary is Algorithm 2 (dense=false) and Algorithm 3 (dense=true):
// halve the search interval; with dense indexing, hand narrow intervals to
// the oracle, and certify a history candidate before bisecting towards it.
func (c *OneDCursor) nextBinary(dense bool) (types.Tuple, bool, error) {
	// lo is the position the search starts from (exclusive): the cursor's,
	// or further on once a complete page has shown nothing lies in between.
	lo := c.lastAxis
	if c.cover != nil && lo < c.cover.theta {
		if t, ok := c.cover.after(lo); ok {
			c.s.e.coverHits.Add(1)
			return t, true, nil
		}
		lo = c.cover.theta
	}
	threshold := 0.0
	if dense {
		threshold = c.s.e.denseWidth1D(c.attr)
	}
	for {
		cand, have := c.histNext(lo)
		// Only a candidate history supplied is worth certifying (the
		// upstream's own needs none), and only once per Get-Next.
		certify := dense && have && !c.certified
		if !have {
			// No known upper bound: one unbounded probe (as in Algorithm
			// 1's first step) to obtain a candidate or prove exhaustion.
			res, err := c.issue(types.Interval{Lo: lo, LoOpen: true, Hi: math.Inf(1), HiOpen: true})
			if err != nil {
				return types.Tuple{}, false, err
			}
			m, found := c.minAxis(res.Tuples)
			if !found {
				return types.Tuple{}, false, nil
			}
			if !res.Overflow {
				return m, true, nil
			}
			cand = m
		}
		// Invariant: the next tuple's axis value lies in (searchLo,
		// cand.axis], where cand is a known, not-yet-emitted tuple. Before
		// the first emission the search floor is the tighter of the
		// attribute's domain minimum and the user's own bound.
		searchLo, searchLoOpen := lo, true
		if math.IsInf(searchLo, -1) {
			searchLo, searchLoOpen = c.searchFloor()
		}
		narrow := func() bool {
			return threshold > 0 && c.axisOf(cand)-searchLo < threshold && !math.IsInf(searchLo, -1)
		}
		// A sub-threshold interval goes to the oracle uncertified: a
		// selection-bearing probe serves one user, a crawled region all.
		if certify && !narrow() {
			c.certified = true
			res, err := c.issue(types.Interval{Lo: lo, LoOpen: true, Hi: c.axisOf(cand)})
			if err != nil {
				return types.Tuple{}, false, err
			}
			m, found := c.minAxis(res.Tuples)
			if !res.Overflow {
				// Authoritative, whatever history believed: the next tuple
				// is the page's minimum.
				c.s.e.certComplete.Add(1)
				c.cover = newCertPage(c.axisOf(cand), []int{c.attr}, res.Tuples, c.axisOf, nil)
				if found {
					return m, true, nil
				}
				// The candidate is gone upstream and nothing precedes it:
				// search on from where it was.
				lo = c.axisOf(cand)
				continue
			}
			// Algorithm 1's step: a full page inside (lo, cand] holds a
			// candidate at least as good; halving takes over from it.
			c.s.e.certOverflow.Add(1)
			cand = m
		}
		for {
			if narrow() {
				return c.oracle(searchLo, searchLoOpen, cand)
			}
			mid := searchLo + (c.axisOf(cand)-searchLo)/2
			if !(mid > searchLo) || !(mid < c.axisOf(cand)) || math.IsInf(searchLo, -1) {
				// Interval no longer splittable (or unbounded below):
				// finish with baseline narrowing.
				return c.finishNarrow(searchLo, searchLoOpen, cand)
			}
			res, err := c.issue(types.Interval{Lo: searchLo, LoOpen: searchLoOpen, Hi: mid, HiOpen: true})
			if err != nil {
				return types.Tuple{}, false, err
			}
			if m, found := c.minAxis(res.Tuples); found {
				if !res.Overflow {
					return m, true, nil
				}
				cand = m
				continue
			}
			// Lower half empty: probe the upper half [mid, cand.axis).
			res2, err := c.issue(types.Interval{Lo: mid, LoOpen: false, Hi: c.axisOf(cand), HiOpen: true})
			if err != nil {
				return types.Tuple{}, false, err
			}
			m2, found2 := c.minAxis(res2.Tuples)
			if !found2 {
				return cand, true, nil
			}
			if !res2.Overflow {
				return m2, true, nil
			}
			cand = m2
			searchLo, searchLoOpen = mid, false
		}
	}
}

// finishNarrow completes the search with baseline narrowing inside
// (searchLo, cand.axis).
func (c *OneDCursor) finishNarrow(searchLo float64, searchLoOpen bool, cand types.Tuple) (types.Tuple, bool, error) {
	for {
		res, err := c.issue(types.Interval{Lo: searchLo, LoOpen: searchLoOpen, Hi: c.axisOf(cand), HiOpen: true})
		if err != nil {
			return types.Tuple{}, false, err
		}
		m, found := c.minAxis(res.Tuples)
		if !res.Overflow {
			if found && c.better(m, cand) {
				return m, true, nil
			}
			return cand, true, nil
		}
		cand = m
	}
}

// oracle is Algorithm 4: answer the narrow interval (searchLo, cand.axis)
// from the crawled regions, crawling it on a miss. The crawl deliberately drops
// the user query's selection condition so the indexed region serves every
// future user query — which is why nextBinary sends a sub-threshold interval
// here before it would certify: a certification probe carries the selection
// condition and serves this user only.
func (c *OneDCursor) oracle(searchLo float64, searchLoOpen bool, cand types.Tuple) (types.Tuple, bool, error) {
	// The region is open at cand: on plateau-heavy (discrete) data a
	// closed end would drag cand's entire tie plateau into the crawl,
	// which the lazy §5 tie machinery already handles.
	axisIv := types.Interval{Lo: searchLo, LoOpen: searchLoOpen, Hi: c.axisOf(cand), HiOpen: true}
	realIv := c.realRange(axisIv)
	f, err := c.s.crawledFact(query.New().WithRange(c.attr, realIv))
	if err != nil {
		return types.Tuple{}, false, err
	}
	t, found := c.s.e.hist.ScanRun(c.q, f.run(), realIv, c.dir == ranking.Desc)
	if found && c.axisOf(t) > c.lastAxis && c.better(t, cand) {
		return t, true, nil
	}
	return cand, true, nil
}
