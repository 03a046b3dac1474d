// Multi-dimensional query reranking (§4): MD-BASELINE, MD-BINARY and
// MD-RERANK.
//
// The search is a branch-and-bound over axis-space boxes:
//
//   - Boxes are tightened against the current threshold score using the
//     rank-contour bounds (ranking.Tighten unifies the paper's Eq. 6 ℓ(A_i)
//     and Eq. 8 b(A_j)).
//   - An overflowing box is partitioned around a pivot point into disjoint
//     children whose union covers every potentially-better tuple; the
//     pivot's anti-dominance region is pruned when sound (its score is at
//     least the threshold).
//   - MD-BINARY replaces the discovered-tuple pivot with a virtual tuple v'
//     on the threshold contour (§4.3.2), maximizing pruned volume, and
//     probes the box dominating v' first (direct domination detection).
//   - MD-RERANK answers boxes smaller than the dense-region volume
//     threshold from the on-the-fly crawled-box index (§4.4, Algorithm 6).
//
// MD-BASELINE and MD-BINARY restart the whole search on improvement, as the
// paper prescribes ("we restart the entire process with t = t'"). MD-RERANK
// keeps the box queue and re-tightens boxes against the latest threshold
// when popped — a documented refinement with identical coverage and fewer
// repeated queries.
//
// Top-k proceeds by subspace splitting (§4.2.2): emitting a tuple splits its
// box on the first ranked attribute at the tuple's value, and the next
// answer is the best of the per-box top-1s.
//
// # Parallel speculative search
//
// The paper describes the search as sequential: one probe, then the next —
// which, against a remote upstream, serializes round-trip latency. This
// cursor runs it with two speculative mechanisms, both bounded by the
// session's worker pool (Options.SearchParallelism = W):
//
//   - Region rounds. Top-level partition regions live in a score-ordered
//     heap. Unresolved regions are keyed by an admissible lower bound (the
//     score of the region's best corner); resolved regions by their exact
//     top-1 score. Regions resolve lazily, best-first: once the heap
//     minimum is a resolved region, every unresolved lower bound is
//     strictly worse and the minimum is the exact next answer. Each round
//     takes up to W unresolved regions off the top of the heap and resolves
//     them concurrently — slots beyond the first are speculative (the first
//     resolution alone might already beat every remaining lower bound), but
//     their results are exact and persist in the heap, so speculative
//     resolutions are work done early, not work done wrong.
//   - The tightening ladder. Within one region's top-1 search, unexplored
//     boxes live in a best-first frontier heap, and each frontier round
//     probes one box: the best that survives tightening against the current
//     threshold. When the previous round's probe improved the threshold —
//     the chase where a sequential search pays one round-trip per
//     improvement — the round's other W−1 slots carry copies of its box
//     tightened against more optimistic thresholds, probed concurrently
//     with it (padLadder). Rungs only improve the candidate, never steer
//     the search; an overflowing rung resolves nothing and is the only
//     wasted probe.
//
// The winner's tie probe runs alone, between rounds, and the winner's region
// is split only once it succeeds, so a failed probe leaves the heap as it
// was.
//
// Determinism. Every decision point runs in a fixed order on the cursor
// goroutine: region rounds are composed and their results applied in heap
// order, a frontier round's box and rungs are composed and processed in slot
// order, and history is read for seeding only between rounds: the cursor's
// seed list is extended to a view taken there, before any of the round's
// probes can grow the history. Which probes the fact index answers is decided
// there too: a ladder's rungs are nested, and a complete answer also answers
// the probes its box contains, so every probe of a round is looked up before
// any of the round's upstream calls is dispatched (Session.issueAll).
// Concurrent resolutions touch disjoint boxes, so their probes cannot contain
// one another. The emitted tuple sequence is therefore identical for every W
// (each top-1 is an exact minimum regardless of exploration order), and the
// session ledger is exactly reproducible for a fixed W — speculation changes
// how much is charged, never making the charge nondeterministic.
// (The one caveat: ledger reproducibility assumes the engine-wide fact index
// is not evicting mid-run and no unrelated session is mutating it, the same
// caveat PR 1 established for cross-session cost attribution.)
//
// # Certified pages
//
// MD-RERANK spends a probe only on what it does not know yet. A complete page
// over a region's box tightened against a contour Θ certifies every tuple of
// the region scoring ≤ Θ, and the region keeps it as its certified page
// (certPage, shared with 1D-RERANK): the next answers down to Θ, their §5 tie
// groups, and the standing of the parts the region is split into all come off
// the page, with no probe, no history scan and no round — also with
// the fact index off and across an epoch bump. When history supplies a
// resolution's candidate and the fact index does not already hold the
// candidate's own contour, the resolution's first probe asks for the contour
// of the D-th best known tuple instead (D a function of system-k only), so one
// complete page certifies up to D answers; an overflowing page only improves
// the candidate, and the search goes on from the candidate's own contour as it
// would have started: one extra probe at most. It asks for the deeper contour
// too when the fact index holds that page complete — the probe is free, and a
// repeated request then stands on the pages its first run stood on instead of
// scanning history once per Get-Next.
//
// Whether a region stands on its page (settle) and whether a resolution goes
// deep (seedRound, which is where the fact index is asked) are decided on the
// cursor goroutine, between rounds. A resolver builds its page on its own
// goroutine, from its own region's probes only; the cursor attaches the page
// when it applies the round's results in slot order. A speculative region slot
// certifies exactly as the first slot does — its page, like its result, is
// work done early.
//
// A history candidate is only a hint. When the answer over its point no
// longer lists it (collectTies), the candidate is a stale version of a tuple
// the upstream has since changed: it is not emitted, the cursor never picks
// that version again (MDCursor.skip), and the search goes on.
//
// Cost accounting is charge-at-issue: the per-op budget (MaxQueriesPerOp) is
// charged in round order before a round is dispatched, the session ledger is
// charged for exactly the probes that reach the upstream, and wasted probes'
// pages still land in the shared history and the fact index so their cost is
// never paid twice.
package core

import (
	"container/heap"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// MDCursor incrementally returns tuples matching a user query in ascending
// order of an arbitrary monotone multi-attribute ranking function. It seeds
// each resolution from its own seed list of the history rows matching the
// query (seedList), so a round matches only the rows appended since the
// previous one.
type MDCursor struct {
	s       *Session
	q       query.Query
	variant Variant

	started   bool
	regions   regionHeap // unresolved (lower bound) + resolved (exact) regions
	regionSeq int64
	emitted   map[int]bool
	pending   []types.Tuple
	exhausted bool
	opQueries atomic.Int64 // shared by concurrent resolvers (charge-at-issue)

	// depth is MD-RERANK's certification depth D (1 for the other variants):
	// a resolution whose candidate came from history probes the contour of
	// the D-th best known tuple instead of the candidate's own. A function of
	// system-k only, so probe streams never depend on a request's h.
	depth int

	denseVol float64
	denseDim []float64 // per-dimension dense-region width thresholds
	sorted   []int     // ranked attrs sorted ascending (crawled-region canonical order)
	axisPos  []int     // per position in sorted: the axis dimension of that attr

	width     int           // speculative width W (regions per region round, probes per ladder round)
	resolvers []*mdResolver // [0] drives sequential ops; [1..] speculative round slots

	// skip lists the tuple versions no resolution may pick: every version a
	// tie probe found stale (a newer version of the same tuple may still be
	// picked). Written on the cursor goroutine between rounds. Empty but
	// across drift, so seeding pays one length test for it per entry that
	// passes the score and box tests.
	skip []types.Tuple

	// seeds is the cursor's own copy of the history it seeds from: the rows
	// matching q and their scores, extended each round past its watermark.
	seeds seedList

	// Round scratch, reused every round and kept by nothing past it: the
	// popped regions, their candidates, the candidates' deep lists and the
	// resolvers' outcomes, one per slot.
	round []*mdRegion
	cands []candidate
	deep  []float64
	outs  []roundOutcome
}

// mdRegion is one top-level partition region in the region heap.
type mdRegion struct {
	box      query.Box
	best     types.Tuple
	have     bool
	resolved bool
	key      float64 // lower-bound score (unresolved) or exact score (resolved)
	seq      int64
	cover    *certPage // certified page over the region (MD-RERANK), nil when none
}

// regionHeap orders regions by (key, unresolved-first, best.ID/seq). When the
// minimum is a resolved region, every unresolved region's lower bound is
// strictly larger (equal bounds sort unresolved first), so its contents score
// strictly worse and the minimum is exactly the tuple the eager search would
// emit.
type regionHeap []*mdRegion

func (h regionHeap) Len() int { return len(h) }
func (h regionHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.resolved != b.resolved {
		return !a.resolved
	}
	if a.resolved {
		return a.best.ID < b.best.ID
	}
	return a.seq < b.seq
}
func (h regionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *regionHeap) Push(x any)   { *h = append(*h, x.(*mdRegion)) }
func (h *regionHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// certDepth is the certification depth D for system-k: a tenth of a page, so
// that the tuples a deeper contour's box holds beyond the D known ones still
// leave the page complete far more often than not.
func certDepth(k int) int {
	return (k + 9) / 10
}

// NewMDCursor builds an MD cursor for ranker r in a fresh single-cursor
// session.
func (e *Engine) NewMDCursor(q query.Query, r ranking.Ranker, v Variant) *MDCursor {
	return e.NewSession().NewMDCursor(q, r, v)
}

// NewMDCursor builds an MD cursor for ranker r (which must rank ≥ 2
// attributes; single-attribute rankers should use NewOneDCursor).
func (s *Session) NewMDCursor(q query.Query, r ranking.Ranker, v Variant) *MDCursor {
	e := s.e
	ax := ranking.NewAxis(r, e.db.Schema())
	c := &MDCursor{
		s: s, q: q.Clone(), variant: v,
		emitted: make(map[int]bool),
		width:   e.searchWidth(),
		depth:   1,
	}
	c.round = make([]*mdRegion, 0, c.width)
	c.cands = make([]candidate, c.width)
	c.outs = make([]roundOutcome, c.width)
	if v == Rerank {
		c.depth = certDepth(e.db.K())
		if c.depth > 1 {
			c.deep = make([]float64, c.depth*c.width)
		}
		c.denseVol = e.denseVolumeMD(ax.Attrs())
		// Per-dimension dense widths: the volume test alone would
		// classify thin full-width slabs (which tightening produces
		// constantly) as dense regions and crawl them; requiring every
		// side below the m-th root of the relative volume threshold
		// restricts the oracle to genuinely small boxes while keeping
		// the same |V|·(s/n)/c volume bound for cubes.
		rel := (e.sParam() / math.Max(float64(e.opts.N), 1)) / math.Max(e.cParam(), 1)
		side := math.Pow(rel, 1/float64(ax.M()))
		for j := 0; j < ax.M(); j++ {
			c.denseDim = append(c.denseDim, (ax.Hi()[j]-ax.Lo()[j])*side)
		}
	}
	c.sorted = append([]int(nil), ax.Attrs()...)
	sort.Ints(c.sorted)
	pos := make(map[int]int, len(c.sorted))
	for j, a := range ax.Attrs() {
		pos[a] = j
	}
	for _, a := range c.sorted {
		c.axisPos = append(c.axisPos, pos[a])
	}
	// Resolver 0 reuses the axis built above; the speculative slots get
	// their own axes (axis scratch buffers are single-goroutine).
	c.resolvers = make([]*mdResolver, c.width)
	for i := range c.resolvers {
		if i > 0 {
			ax = ranking.NewAxis(r, e.db.Schema())
		}
		c.resolvers[i] = &mdResolver{
			c:       c,
			axis:    ax,
			spec:    i > 0,
			batch:   make([]batchItem, 0, c.width),
			results: make([]probeResult, c.width),
			probeQs: make([]query.Query, c.width),
			zbuf:    make([]float64, ax.M()),
		}
	}
	return c
}

// axis returns the cursor's sequential-path axis (resolver 0's). Only valid
// on the cursor goroutine while no region round is in flight.
func (c *MDCursor) axis() *ranking.Axis { return c.resolvers[0].axis }

// chargeOp charges one probe attempt against the per-op budget, reporting
// whether the budget allows it. Attempts are charged before coalescing so
// the bound is stable regardless of cache state; the check-and-add is a
// single atomic Add so concurrent resolvers cannot over-admit.
func (c *MDCursor) chargeOp() bool {
	if max := c.s.e.opts.MaxQueriesPerOp; max > 0 {
		return c.opQueries.Add(1) <= max
	}
	c.opQueries.Add(1)
	return true
}

// pushRegion adds a region for box to the region heap — unless the box is
// empty or cover, the certified page it lies under, shows it spent.
func (c *MDCursor) pushRegion(box query.Box, cover *certPage) {
	c.regionSeq++
	reg := &mdRegion{box: box, seq: c.regionSeq, cover: cover}
	if !box.Empty() && c.settle(reg) {
		heap.Push(&c.regions, reg)
	}
}

// Next implements Cursor.
func (c *MDCursor) Next() (types.Tuple, bool, error) {
	if len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		return t, true, nil
	}
	if c.exhausted {
		return types.Tuple{}, false, nil
	}
	c.opQueries.Store(0)
	if !c.started {
		c.started = true
		c.pushRegion(c.axis().QueryToBox(c.q), nil)
	}
	for len(c.pending) == 0 {
		// Lazily resolve regions best-first until the heap minimum is
		// resolved: at that point every unresolved region's lower bound is
		// strictly worse than the resolved top-1, so no other region can
		// supply the answer. Each round resolves up to W of the best
		// unresolved regions concurrently; slots beyond the first are
		// speculative (their results persist in the heap, so early work is
		// never thrown away).
		for c.regions.Len() > 0 && !c.regions[0].resolved {
			regs := c.popRound(c.width)
			if err := c.runRound(regs, c.seedRound(regs)); err != nil {
				return types.Tuple{}, false, err
			}
		}
		if c.regions.Len() == 0 {
			c.exhausted = true
			return types.Tuple{}, false, nil
		}
		if err := c.emit(); err != nil {
			return types.Tuple{}, false, err
		}
	}
	out := c.pending[0]
	c.pending = c.pending[1:]
	return out, true, nil
}

// emit pops the winning region, fills the pending buffer with its tuple t's
// tie group and splits the region at t. The buffer stays empty when the
// answer over t's point proves t a stale version with nothing else there;
// Next then searches on, and the split stands, since its two parts still
// partition the region's box. When the tie probe fails, the region goes back
// unchanged for a retry.
func (c *MDCursor) emit() error {
	reg := heap.Pop(&c.regions).(*mdRegion)
	t := reg.best
	var cover *certPage
	if ties, ok := reg.cover.ties(t, reg.key); ok {
		// The region's page lists t, so it lists t's whole tie group and
		// what each part holds next: no tie probe.
		c.s.e.coverHits.Add(1)
		c.pending, _ = collectTies(c.pending, t, c.axis().Attrs(), ties, c.isEmitted)
		cover = reg.cover
	} else if err := c.tieGroup(t); err != nil {
		heap.Push(&c.regions, reg)
		return err
	}
	for _, tt := range c.pending {
		c.emitted[tt.ID] = true
	}
	// Split the region on the first ranked attribute at t's value. The
	// right part keeps the boundary (closed) so tuples sharing the split
	// coordinate remain reachable; the emitted set excludes the tie
	// group itself.
	z0 := c.axis().ToAxis(t)[0]
	b1 := reg.box.Clone()
	b1.Dims[0] = b1.Dims[0].Intersect(types.Interval{Lo: math.Inf(-1), Hi: z0, HiOpen: true})
	b2 := reg.box.Clone()
	b2.Dims[0] = b2.Dims[0].Intersect(types.Interval{Lo: z0, Hi: math.Inf(1), HiOpen: true})
	c.pushRegion(b1, cover)
	c.pushRegion(b2, cover)
	return nil
}

func (c *MDCursor) isEmitted(id int) bool { return c.emitted[id] }

// tieGroup fills the pending buffer with t's §5 tie group — every tuple
// matching q that shares t's values on all ranked attributes — through
// collectTies, from the answer to a tie point probe (a crawl of the point
// when that overflows). When the answer does not list t, t's version joins
// skip for good.
func (c *MDCursor) tieGroup(t types.Tuple) error {
	if c.s.e.opts.AssumeGeneralPositioning {
		c.pending = append(c.pending[:0], t)
		return nil
	}
	point := c.tiePoint(t)
	res, err := c.resolvers[0].issue(point)
	if err != nil {
		return err
	}
	ans := res.Tuples
	if res.Overflow {
		if ans, err = c.s.CrawlAll(c.axis().BoxToQuery(c.q, point)); err != nil {
			return err
		}
	}
	var listed bool
	c.pending, listed = collectTies(c.pending, t, c.axis().Attrs(), ans, c.isEmitted)
	if !listed {
		c.skip = append(c.skip, t)
	}
	return nil
}

// settle sets reg's standing from its page, reporting false when the region
// is spent. The first page tuple not yet emitted is the region's exact top-1.
// With none left, every tuple of the region scoring ≤ Θ has been emitted, so
// the region goes back to unresolved with its lower bound raised just past Θ
// — or, under a page that held the whole region, has nothing more to give.
// Without a page the region is unresolved at its corner bound.
func (c *MDCursor) settle(reg *mdRegion) bool {
	reg.best, reg.have, reg.resolved = types.Tuple{}, false, false
	reg.key = c.axis().LowerBound(reg.box)
	if reg.cover == nil {
		return true
	}
	r0 := c.resolvers[0] // its scratch is the cursor's between rounds
	for _, e := range reg.cover.entries {
		if !c.emitted[e.t.ID] && reg.box.Contains(r0.axis.ToAxisInto(e.t, r0.zbuf)) {
			reg.best, reg.have, reg.resolved, reg.key = e.t, true, true, e.score
			return true
		}
	}
	reg.key = math.Max(reg.key, math.Nextafter(reg.cover.theta, math.Inf(1)))
	return !math.IsInf(reg.cover.theta, 1)
}

// popRound pops up to limit of the best unresolved regions off the heap, in
// deterministic heap order. Speculative slots are bounded by the best
// already-resolved score: an unresolved region whose lower bound exceeds it
// can never block the next emit, so resolving it would be eagerness the lazy
// discipline exists to avoid. The first slot ignores the bound (the blocking
// loop must make progress).
func (c *MDCursor) popRound(limit int) []*mdRegion {
	bound, haveBound := 0.0, false
	for _, r := range c.regions {
		if r.resolved && (!haveBound || r.key < bound) {
			bound, haveBound = r.key, true
		}
	}
	out := c.round[:0]
	for len(out) < limit && c.regions.Len() > 0 && !c.regions[0].resolved {
		if haveBound && c.regions[0].key > bound && len(out) > 0 {
			break
		}
		out = append(out, heap.Pop(&c.regions).(*mdRegion))
	}
	c.round = out
	return out
}

// tiePoint returns the degenerate box holding exactly t's values on the
// ranked attributes.
func (c *MDCursor) tiePoint(t types.Tuple) query.Box {
	z := c.axis().ToAxis(t)
	point := query.Box{Dims: make([]types.Interval, len(z))}
	for j, v := range z {
		point.Dims[j] = types.ClosedInterval(v, v)
	}
	return point
}

// skipped reports whether t is a version no resolution may pick (skip).
func (c *MDCursor) skipped(t types.Tuple) bool {
	for _, s := range c.skip {
		if s.Equal(t) {
			return true
		}
	}
	return false
}

// skippedRow is skipped for a history row, materialized only when a skipped
// version carries its ID.
func (c *MDCursor) skippedRow(v colstore.View, row, id int) bool {
	for _, s := range c.skip {
		if s.ID == id {
			return c.skipped(v.Tuple(row))
		}
	}
	return false
}
