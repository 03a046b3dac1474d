// MD top-1 resolution: the per-resolution resolver, its best-first frontier
// of boxes, candidates and the certified page a resolution keeps.

package core

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// mdResolver is the per-resolution mutable state of one top-1 search: its
// own Axis (whose geometric primitives carry scratch buffers), frontier
// heap, probe round scratch and axis-point buffers. Up to W resolvers run
// concurrently during a region round; everything they share through the
// cursor (query, emitted set, dense thresholds) is read-only while a round
// is in flight.
type mdResolver struct {
	c    *MDCursor
	axis *ranking.Axis

	frontier boxHeap
	boxSeq   int64
	charged  int64       // upstream probes this resolution charged the ledger
	spec     bool        // a speculative region-round slot: all its probes count as speculative
	chain    int         // consecutive single-box improvement rounds (ladder trigger)
	covered  []query.Box // boxes answered completely during this top-1 search
	cover    *certPage   // MD-RERANK: the complete page over the whole region, for the cursor to keep
	batch    []batchItem
	results  []probeResult
	probeQs  []query.Query
	zbuf     []float64   // ToAxisInto scratch for improve
	rlk      query.Query // realRanges scratch for crawled-region lookups
}

// frontierBox is one unexplored box in a top-1 search's best-first frontier.
// root marks the region's own box, at most tightened: a complete page over it
// is a certified page of the whole region.
type frontierBox struct {
	box  query.Box
	lb   float64 // admissible lower bound: score of the box's best corner
	seq  int64
	root bool
}

// boxHeap is a min-heap of frontier boxes by (lb, seq); seq makes pop order
// deterministic under equal bounds.
type boxHeap []frontierBox

func (h boxHeap) Len() int { return len(h) }
func (h boxHeap) Less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	return h[i].seq < h[j].seq
}
func (h boxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *boxHeap) Push(x any)   { *h = append(*h, x.(frontierBox)) }
func (h *boxHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = frontierBox{}
	*h = old[:n-1]
	return b
}

// batchItem is one probe of a frontier round, with the threshold its box was
// tightened against at issue time. Slot 0 is the round's frontier box; ladder
// marks a speculative tightening rung in a later slot: a copy of that box
// tightened against an optimistically improved threshold, processed
// improve-only (see padLadder). deep marks the resolution's certification
// probe: the root box tightened against the contour of the D-th best known
// tuple rather than the candidate's own, processed improve-only as well when
// it overflows.
type batchItem struct {
	box      query.Box
	thrScore float64
	thrHave  bool
	ladder   bool
	root     bool
	deep     bool
}

// issue sends one box-restricted query, charging the per-op budget — the
// sequential probe path used by tie collection and domination probes.
func (r *mdResolver) issue(b query.Box) (hidden.Result, error) {
	if !r.c.chargeOp() {
		return hidden.Result{}, ErrBudget
	}
	r.axis.BoxToQueryInto(r.c.q, b, &r.probeQs[0])
	res, issued, err := r.c.s.probe(r.probeQs[0])
	if issued {
		r.charged++
	}
	return res, err
}

// candidate tracks the best non-emitted tuple found during one top-1 search.
// deep, when seedRound gave it room, collects the scores of the best
// len(deep) history tuples in ascending order; certify, when seedRound set it,
// has the resolution's first probe ask for the contour of the last of them in
// place of the candidate's own.
type candidate struct {
	t       types.Tuple
	score   float64
	have    bool
	row     int // during seedRound: the history row t.ID names
	deep    []float64
	certify bool
}

// fileDeep files score s, which beats the last of deep, among the best
// len(deep) seen, in ascending order.
func (cand *candidate) fileDeep(s float64) {
	d := cand.deep
	i := sort.SearchFloat64s(d, s)
	copy(d[i+1:], d[i:])
	d[i] = s
}

func (r *mdResolver) improve(cand *candidate, ts []types.Tuple, box query.Box) {
	for _, t := range ts {
		r.improveOne(cand, t, box)
	}
}

// improveOne considers a single tuple for the candidate, reusing the
// resolver's axis-point scratch.
func (r *mdResolver) improveOne(cand *candidate, t types.Tuple, box query.Box) {
	if r.c.emitted[t.ID] || (len(r.c.skip) > 0 && r.c.skipped(t)) || !r.c.q.Matches(t) {
		return
	}
	z := r.axis.ToAxisInto(t, r.zbuf)
	if !box.Contains(z) {
		return
	}
	s := r.axis.ScoreTuple(t)
	if !cand.have || s < cand.score || (s == cand.score && t.ID < cand.t.ID) {
		cand.t, cand.score, cand.have = t, s, true
	}
}

// pushBox adds a box to the top-1 frontier with its lower-bound key.
func (r *mdResolver) pushBox(b query.Box, root bool) {
	r.boxSeq++
	heap.Push(&r.frontier, frontierBox{box: b, lb: r.axis.LowerBound(b), seq: r.boxSeq, root: root})
}

// top1 finds the best non-emitted tuple matching q inside box, starting from
// the pre-seeded candidate.
//
// The frontier is explored best-first, one box per round: each round pops
// boxes until one survives tightening, the covered-box skip and the dense
// fast path, and probes it. Once an improvement chain is detected, padLadder
// fills the round's other W−1 slots with speculative tightening rungs over
// that box; only a round's probes run concurrently, and composition, budget
// charging and result processing all happen in slot order on the resolver's
// goroutine.
func (r *mdResolver) top1(box query.Box, cand *candidate) (types.Tuple, bool, error) {
	c := r.c
	r.frontier = r.frontier[:0]
	r.boxSeq = 0
	r.charged = 0
	r.chain = 0
	r.covered = r.covered[:0]
	r.cover = nil
	r.pushBox(box, true)
	for r.frontier.Len() > 0 {
		fb := heap.Pop(&r.frontier).(frontierBox)
		b := fb.box
		if b.Empty() {
			continue
		}
		if cand.have {
			tb, ok := r.axis.Tighten(b, cand.score)
			if !ok {
				continue
			}
			b = tb
		}
		// A box inside an already-answered complete page is fully known:
		// improve has seen every tuple in it, so probing it again
		// (typically the confirm probe after a ladder rung collapsed the
		// improvement chain) buys nothing.
		if r.coveredBy(b) {
			continue
		}
		// MD-RERANK fast path: a box already covered by a crawled region
		// at the current epoch is answered locally with zero queries. A
		// stale covering region is re-validated first (one confirming
		// probe); if it drifted, it is evicted and the box falls through
		// to an ordinary probe.
		if c.variant == Rerank && c.denseVol > 0 && b.IsFinite() && r.isDense(b) {
			f, err := c.s.crawledLookup(r.realRanges(b))
			if err != nil {
				return types.Tuple{}, false, err
			}
			if f != nil {
				r.improve(cand, c.s.e.hist.RowTuples(f.rows), b)
				continue
			}
		}
		it := batchItem{box: b, thrScore: cand.score, thrHave: cand.have, root: fb.root}
		if cand.certify {
			// The search's first probe, over the whole region: only here
			// may the box be wider than the candidate's own contour makes
			// it, so certify is spent whatever comes back.
			cand.certify = false
			theta := cand.deep[len(cand.deep)-1]
			if db, ok := r.axis.Tighten(box, theta); ok {
				it.box, it.thrScore, it.deep = db, theta, true
			}
		}
		// Charge the per-op budget at issue. A budget forces W = 1
		// (Engine.searchWidth), so only the frontier slot can exhaust it.
		if !c.chargeOp() {
			r.pushBox(it.box, it.root)
			return types.Tuple{}, false, ErrBudget
		}
		r.batch = append(r.batch[:0], it)
		if r.chain > 0 && c.width > 1 {
			// A detected improvement chain: the previous round's probe
			// improved the threshold, and this round re-probes its box —
			// the regime where the search degenerates to one improvement
			// per round-trip. Fill the free slots with a speculative
			// tightening ladder over this box to collapse the chase.
			// (Gating on a detected chain keeps ordinary one-probe
			// resolutions at one probe.)
			r.padLadder(cand)
			for range r.batch[1:] {
				c.chargeOp()
			}
		}
		for i := range r.batch {
			r.axis.BoxToQueryInto(c.q, r.batch[i].box, &r.probeQs[i])
		}
		c.s.issueAll(r.probeQs[:len(r.batch)], r.results[:len(r.batch)])
		for i := range r.batch {
			if r.results[i].issued {
				r.charged++
				// Ladder rungs are speculative probes (unless this whole
				// resolution is a speculative region slot, whose probes
				// are all counted by runRound).
				if i > 0 && !r.spec {
					c.s.e.specIssued.Add(1)
				}
			}
		}
		// Process results strictly in slot order: the frontier slot first,
		// then the rungs.
		improved := false
		for i := range r.batch {
			it := &r.batch[i]
			if err := r.results[i].err; err != nil {
				return types.Tuple{}, false, err
			}
			res := r.results[i].res
			prevScore, prevHave := cand.score, cand.have
			r.improve(cand, res.Tuples, it.box)
			if !res.Overflow {
				// A complete answer authoritatively resolves the probed
				// box whatever the threshold did since issue: everything
				// in it has been seen. Never waste; remember it so later
				// frontier boxes inside it are skipped.
				r.covered = append(r.covered, it.box)
				if it.deep {
					c.s.e.mdCertComplete.Add(1)
				}
				if it.root && c.variant == Rerank {
					r.keepCover(it, res.Tuples)
				}
				continue
			}
			if it.deep {
				// The deeper contour's box held more than a page: the
				// candidate's own contour is the next probe, as it would
				// have been the first.
				c.s.e.mdCertOverflow.Add(1)
				if tb, ok := r.axis.Tighten(box, cand.score); ok {
					r.pushBox(tb, true)
				}
				continue
			}
			if it.ladder {
				// An overflowing rung guessed too loose a threshold: its
				// page still improved the candidate and fed history, but
				// the rung resolves nothing — count it wasted (only if it
				// actually reached the upstream: free cache replays cost
				// nothing to waste) and let the frontier slot, re-pushed
				// tightened, carry the coverage argument.
				if r.results[i].issued {
					c.s.e.specWasted.Add(1)
				}
				continue
			}
			// MD-RERANK dense-region handling (Algorithm 6): an
			// overflowing sub-threshold box is a certified dense region —
			// crawl it once (generically, without Sel(q)) and index it
			// for every future user query.
			if c.variant == Rerank && c.denseVol > 0 && it.box.IsFinite() && r.isDense(it.box) {
				if err := r.denseAnswer(it.box, cand); err != nil {
					return types.Tuple{}, false, err
				}
				continue
			}
			if cand.have && (!prevHave || cand.score < prevScore) {
				// The probe improved the threshold. MD-BASELINE and
				// MD-BINARY restart the whole search around the new
				// contour ("we restart the entire process with t = t'",
				// §4.2.1 / Algorithm 5 line 7). MD-RERANK instead keeps
				// the partition queue and only re-searches the
				// overflowing box re-tightened — a documented
				// refinement with identical coverage and fewer
				// repeated queries.
				improved = true
				if c.variant == Rerank {
					if tb, ok := r.axis.Tighten(it.box, cand.score); ok {
						r.pushBox(tb, it.root)
					}
				} else {
					r.frontier = r.frontier[:0]
					if tb, ok := r.axis.Tighten(box, cand.score); ok {
						r.pushBox(tb, true)
					}
				}
				continue
			}
			kids, err := r.partition(it.box, res.Tuples, cand)
			if err != nil {
				return types.Tuple{}, false, err
			}
			for _, k := range kids {
				r.pushBox(k, false)
			}
		}
		if improved {
			r.chain++
		} else {
			r.chain = 0
		}
	}
	return cand.t, cand.have, nil
}

// coveredBy reports whether b lies entirely inside a box this top-1 search
// has already received a complete answer for.
func (r *mdResolver) coveredBy(b query.Box) bool {
	for i := range r.covered {
		if r.covered[i].ContainsBox(b) {
			return true
		}
	}
	return false
}

// known reports whether the fact index already answers the probe over box
// tightened against contour theta, and whether with a complete page. A
// contour the box's best corner already reaches leaves nothing to ask: known,
// and no page. It borrows the resolver's probe scratch: cursor goroutine,
// between rounds.
func (r *mdResolver) known(box query.Box, theta float64) (known, complete bool) {
	b, ok := r.axis.Tighten(box, theta)
	if !ok {
		return true, false
	}
	r.axis.BoxToQueryInto(r.c.q, b, &r.probeQs[0])
	return r.c.s.e.knows(r.probeQs[0])
}

// keepCover makes the complete page of root probe it the region's certified
// page. The probe's box was the whole region's tightened against it.thrScore,
// so the page certifies the region down to that contour.
func (r *mdResolver) keepCover(it *batchItem, page []types.Tuple) {
	theta := math.Inf(1)
	if it.thrHave {
		theta = it.thrScore
	}
	r.cover = newCertPage(theta, r.axis.Attrs(), page, r.axis.ScoreTuple, func(e scoredTuple) bool {
		return e.score <= theta && !r.c.emitted[e.t.ID]
	})
}
