// The certified page and the §5 tie collector, shared by 1D-RERANK and
// MD-RERANK.

package core

import (
	"sort"

	"repro/internal/types"
)

// certPage is a complete upstream answer a cursor keeps as its truth for the
// region it asked it over: every tuple matching the cursor's query in that
// region whose score is at most theta, in (score, ID) order. 1D-RERANK's
// score is the tuple's axis value and its region the interval the
// certification probe covered; MD-RERANK's score is the ranking's and its
// region the box of the region holding the page. Later Get-Nexts, their tie
// groups and, in MD, the standing of the parts a region is split into come off
// the page for no probe at all. What the upstream said stays the cursor's truth
// whatever the fact index forgets or an epoch bump marks stale: a page is a
// per-request snapshot (docs/epochs.md).
type certPage struct {
	theta   float64 // +Inf: the page holds its whole region
	attrs   []int   // the ranked attributes: a tie group shares their values
	entries []scoredTuple
}

type scoredTuple struct {
	t     types.Tuple
	score float64
}

// newCertPage keeps the tuples of page that keep admits (all of them when
// keep is nil) as a certified page down to contour theta.
func newCertPage(theta float64, attrs []int, page []types.Tuple, score func(types.Tuple) float64, keep func(scoredTuple) bool) *certPage {
	p := &certPage{theta: theta, attrs: attrs}
	for _, t := range page {
		if e := (scoredTuple{t, score(t)}); keep == nil || keep(e) {
			p.entries = append(p.entries, e)
		}
	}
	sort.Slice(p.entries, func(i, j int) bool {
		a, b := p.entries[i], p.entries[j]
		return a.score < b.score || (a.score == b.score && a.t.ID < b.t.ID)
	})
	return p
}

// after returns the page's first tuple scoring more than s.
func (p *certPage) after(s float64) (types.Tuple, bool) {
	i := sort.Search(len(p.entries), func(i int) bool { return p.entries[i].score > s })
	if i == len(p.entries) {
		return types.Tuple{}, false
	}
	return p.entries[i].t, true
}

// ties returns t's tie group as the page lists it — the tuples at t's score s
// sharing t's values on the ranked attributes — or ok=false when the page does
// not list t itself there (or there is no page).
func (p *certPage) ties(t types.Tuple, s float64) (ties []types.Tuple, ok bool) {
	if p == nil {
		return nil, false
	}
	i := sort.Search(len(p.entries), func(i int) bool { return p.entries[i].score >= s })
	for ; i < len(p.entries) && p.entries[i].score == s; i++ {
		if e := p.entries[i].t; samePoint(e, t, p.attrs) {
			ties = append(ties, e)
			ok = ok || e.ID == t.ID
		}
	}
	return ties, ok
}

func samePoint(a, b types.Tuple, attrs []int) bool {
	for _, i := range attrs {
		if a.Ord[i] != b.Ord[i] {
			return false
		}
	}
	return true
}

// collectTies is the §5 tie collection both cursors share. answer is an
// authoritative answer over t's point: the tie probe's page, a crawl of the
// point when that overflowed, or a certified page's ties. The group is every
// tuple of answer sharing t's values on the ranked attributes, once each and in
// ID order, less those done reports (MD's emitted set; nil for 1D), written
// over dst. listed reports whether the answer holds t there. When it does not,
// t is stale — a history candidate the upstream no longer holds at those
// values — and is left out, never re-added: the group is what the upstream
// holds at the point, possibly nothing, and what the cursor does after such a
// drop is its own.
func collectTies(dst []types.Tuple, t types.Tuple, attrs []int, answer []types.Tuple, done func(id int) bool) (group []types.Tuple, listed bool) {
	seen := map[int]bool{}
	group = dst[:0]
	for _, tt := range answer {
		if !seen[tt.ID] && samePoint(tt, t, attrs) && (done == nil || !done(tt.ID)) {
			seen[tt.ID] = true
			group = append(group, tt)
		}
	}
	sort.Slice(group, func(i, j int) bool { return group[i].ID < group[j].ID })
	return group, seen[t.ID]
}
