// §5 extensions: exploiting known system ranking functions.
//
// Many real sites (Blue Nile, Yahoo! Autos, Amazon) also expose public
// ORDER BY options on individual attributes. When the ranking the database
// applies is known to equal the attribute order we need, Get-Next does not
// have to search at all — it pages: every top-k answer arrives already
// sorted, so h answers cost about h/k queries. KnownRankCursor implements
// that pager (with the §5 tie handling), and NewTACursorWithAccess lets the
// threshold algorithm consume such cursors for its sorted access, the
// "TA-1D may beat MD-RERANK when rankings align" scenario §5 discusses.

package core

import (
	"math"
	"sort"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// KnownRankCursor enumerates the tuples of q in ascending axis order over
// one attribute, against a database whose system ranking is KNOWN to be
// exactly that order (e.g. a hidden.OrderByView). Each page is consumed
// wholesale; only the page's boundary value group needs care, because it
// may continue onto the next page.
type KnownRankCursor struct {
	s    *Session
	db   hidden.Database // the ORDER BY view; queries counted by its parent
	q    query.Query
	attr int
	dir  ranking.Direction

	buffer    []types.Tuple
	lastAxis  float64
	exhausted bool
}

// NewKnownRankCursor builds the pager in a fresh single-cursor session.
func (e *Engine) NewKnownRankCursor(db hidden.Database, q query.Query, attr int, dir ranking.Direction) *KnownRankCursor {
	return e.NewSession().NewKnownRankCursor(db, q, attr, dir)
}

// NewKnownRankCursor builds the pager. db must return answers ordered
// ascending by dir·attr (best first); the engine is used for history
// bookkeeping and tie crawling only.
func (s *Session) NewKnownRankCursor(db hidden.Database, q query.Query, attr int, dir ranking.Direction) *KnownRankCursor {
	return &KnownRankCursor{
		s: s, db: db, q: q.Clone(), attr: attr, dir: dir,
		lastAxis: math.Inf(-1),
	}
}

func (c *KnownRankCursor) axisOf(t types.Tuple) float64 {
	return float64(c.dir) * t.Ord[c.attr]
}

// Next implements Cursor.
func (c *KnownRankCursor) Next() (types.Tuple, bool, error) {
	if len(c.buffer) > 0 {
		t := c.buffer[0]
		c.buffer = c.buffer[1:]
		return t, true, nil
	}
	if c.exhausted {
		return types.Tuple{}, false, nil
	}
	// Page: everything strictly beyond the last consumed value.
	iv := types.Interval{Lo: c.lastAxis, LoOpen: true, Hi: math.Inf(1), HiOpen: true}
	real := iv
	if c.dir == ranking.Desc {
		real = types.Interval{Lo: math.Inf(-1), LoOpen: true, Hi: -c.lastAxis, HiOpen: true}
	}
	res, err := c.s.issueOn(c.db, c.q.WithRange(c.attr, real))
	if err != nil {
		return types.Tuple{}, false, err
	}
	if len(res.Tuples) == 0 {
		c.exhausted = true
		return types.Tuple{}, false, nil
	}
	page := append([]types.Tuple(nil), res.Tuples...)
	sort.Slice(page, func(i, j int) bool {
		ai, aj := c.axisOf(page[i]), c.axisOf(page[j])
		if ai != aj {
			return ai < aj
		}
		return page[i].ID < page[j].ID
	})
	if !res.Overflow {
		c.buffer = page
		c.exhausted = true
	} else {
		// The page's last value group may be incomplete: keep only
		// complete groups, unless the whole page is one plateau — then
		// collect it exactly (point query / crawl, §5).
		boundary := c.axisOf(page[len(page)-1])
		cut := len(page)
		for cut > 0 && c.axisOf(page[cut-1]) == boundary {
			cut--
		}
		if cut == 0 {
			ties, err := c.collectPlateau(boundary)
			if err != nil {
				return types.Tuple{}, false, err
			}
			c.buffer = ties
		} else {
			c.buffer = page[:cut]
		}
	}
	c.lastAxis = c.axisOf(c.buffer[len(c.buffer)-1])
	t := c.buffer[0]
	c.buffer = c.buffer[1:]
	return t, true, nil
}

// collectPlateau retrieves every tuple of q at exactly the boundary value.
func (c *KnownRankCursor) collectPlateau(boundary float64) ([]types.Tuple, error) {
	v := float64(c.dir) * boundary
	point := c.q.WithRange(c.attr, types.ClosedInterval(v, v))
	res, err := c.s.issueOn(c.db, point)
	if err != nil {
		return nil, err
	}
	var ties []types.Tuple
	if !res.Overflow {
		ties = res.Tuples
	} else {
		// CrawlAll records every issued probe's page in history (via
		// Session.probe), as issueOn did for the non-overflow
		// page. The crawl runs against the primary interface: the
		// matching tuple *set* of a complete crawl is ranking-independent.
		ties, err = c.s.CrawlAll(point)
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(ties, func(i, j int) bool { return ties[i].ID < ties[j].ID })
	return ties, nil
}

// NewTACursorWithAccess runs the threshold algorithm over externally
// provided sorted-access cursors, one per ranked attribute of r, in the
// order of r.Attrs(). Use it when the database publishes ORDER BY options
// (§5): pass KnownRankCursors and TA pays ~1/k queries per sorted access
// instead of a 1D-RERANK search.
func (e *Engine) NewTACursorWithAccess(q query.Query, r ranking.Ranker, access []Cursor) *TACursor {
	return e.NewSession().NewTACursorWithAccess(q, r, access)
}

// NewTACursorWithAccess is the session-scoped form of the engine method of
// the same name; pass cursors created from the same session so the ledger
// captures their sorted-access cost too.
func (s *Session) NewTACursorWithAccess(q query.Query, r ranking.Ranker, access []Cursor) *TACursor {
	ax := ranking.NewAxis(r, s.e.db.Schema())
	t := &TACursor{
		s: s, q: q.Clone(), axis: ax,
		seen:    make(map[int]types.Tuple),
		emitted: make(map[int]bool),
		access:  access,
	}
	for range ax.Attrs() {
		t.frontier = append(t.frontier, math.Inf(-1))
		t.liveAttr = append(t.liveAttr, true)
	}
	return t
}
