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
// cursor instead exposes parallelism at two levels, both speculative and
// both bounded by the session's worker pool (Options.SearchParallelism = W):
//
//   - Top-level partition regions live in a score-ordered heap. Unresolved
//     regions are keyed by an admissible lower bound (the score of the
//     region's best corner); resolved regions by their exact top-1 score.
//     Regions resolve lazily, best-first: once the heap minimum is a
//     resolved region, every unresolved lower bound is strictly worse and
//     the minimum is the exact next answer. Each resolution round takes up
//     to W unresolved regions off the top of the heap and resolves them
//     concurrently — slots beyond the first are speculative (the first
//     resolution alone might already beat every remaining lower bound), but
//     their results are exact and persist in the heap, so speculative
//     resolutions are work done early, not work done wrong.
//   - Within one region's top-1 search, unexplored boxes live in a
//     best-first frontier heap. Each round pops the best W frontier boxes,
//     tightens them against the current threshold, and issues the probes
//     concurrently through the engine's coalescing layer. Probes
//     beyond the first assume the earlier probes of the round will not
//     improve the threshold; when one does, a later overflow result is
//     invalidated — sequential execution would have probed a smaller,
//     re-tightened box — and counted as waste (complete answers are never
//     waste: a complete page over a superset box resolves the box exactly).
//
// Determinism. Every decision point runs in a fixed order on the cursor
// goroutine: region rounds are composed and their results applied in heap
// order, frontier rounds are composed and processed in pop order, and
// history is read for seeding only between rounds. Which probes the fact
// index answers is decided there too: a round's probes can be nested, and a
// complete answer also answers the probes its box contains, so every probe
// of a round is looked up before any of the round's upstream calls is
// dispatched (Session.issueAll; the tie probe in collectTiesPipelined).
// Concurrent resolutions touch disjoint boxes, so their probes cannot
// contain one another. The emitted tuple sequence is therefore identical for
// every W (each top-1 is an exact minimum regardless of exploration order),
// and the session ledger is exactly reproducible for a fixed W — speculation
// changes how much is charged, never making the charge nondeterministic.
// (The one caveat: ledger reproducibility assumes the engine-wide fact index
// is not evicting mid-run and no unrelated session is mutating it, the same
// caveat PR 1 established for cross-session cost attribution.)
//
// # Certified covers
//
// MD-RERANK spends a probe only on what it does not know yet. A complete page
// over a region's box tightened against a contour Θ certifies every tuple of
// the region scoring ≤ Θ, and the region keeps it (mdCover): the next answers
// down to Θ, their §5 tie groups, and the standing of the parts the region is
// split into all come off the page, with no probe, no history scan and no
// round — also with DisableCoalescing and across an epoch bump. When history
// supplies a resolution's candidate and the fact index does not already hold
// the candidate's own contour, the resolution's first probe asks for the
// contour of the D-th best known tuple instead (D a function of system-k
// only), so one complete page certifies up to D answers; an overflowing page
// only improves the candidate, and the search goes on from the candidate's
// own contour as it would have started: one extra probe at most. It asks for
// the deeper contour too when the fact index holds that page complete — the
// probe is free, and a repeated request then stands on the covers its first
// run stood on instead of scanning history once per Get-Next.
//
// Whether a region stands on its cover (settle) and whether a resolution goes
// deep (seedRound, which is where the fact index is asked) are decided on the
// cursor goroutine, between rounds. A resolver builds its cover on its own
// goroutine, from its own region's probes only; the cursor attaches the cover
// when it applies the round's results in slot order. A speculative region slot
// certifies exactly as the first slot does — its cover, like its result, is
// work done early.
//
// Cost accounting is charge-at-issue: the per-op budget (MaxQueriesPerOp) is
// charged in round order before a round is dispatched, the session ledger is
// charged for exactly the probes that reach the upstream, and wasted probes'
// pages still land in the shared history and the fact index so their cost is
// never paid twice.
package core

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/hidden"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// MDCursor incrementally returns tuples matching a user query in ascending
// order of an arbitrary monotone multi-attribute ranking function.
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
	denseDim []float64      // per-dimension dense-region width thresholds
	sorted   []int          // ranked attrs sorted ascending (dense-index canonical order)
	axisPos  []int          // per position in sorted: the axis dimension of that attr
	denseIdx *index.DenseMD // shared MD index for this attribute subset

	width     int           // speculative width W (regions per round, probes per frontier round)
	resolvers []*mdResolver // [0] drives sequential ops; [1..] speculative round slots

	// excludeID/excludeOK name the tuple being emitted while the prefetch
	// round runs: it is certain to be marked emitted the moment tie
	// collection returns, so prefetched resolutions must not pick it (they
	// would be invalidated immediately). Written on the cursor goroutine
	// before the round launches, cleared after it joins.
	excludeID int
	excludeOK bool
}

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
	cover    *mdCover    // MD-RERANK: the complete page over the whole region, for the cursor to keep
	batch    []batchItem
	results  []probeResult
	probeQs  []query.Query
	zbuf     []float64 // ToAxisInto scratch for improve
	rlkBuf   query.Box // realBoxInto scratch for dense-index lookups
}

// mdRegion is one top-level partition region in the region heap.
type mdRegion struct {
	box      query.Box
	best     types.Tuple
	have     bool
	resolved bool
	key      float64 // lower-bound score (unresolved) or exact score (resolved)
	seq      int64
	cover    *mdCover // certified page over the region (MD-RERANK), nil when none
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

// frontierBox is one unexplored box in a top-1 search's best-first frontier.
// root marks the region's own box, at most tightened: a complete page over it
// is a cover of the whole region.
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

// batchItem is one box of a speculative probe round, with the threshold it
// was tightened against at issue time. ladder marks a speculative tightening
// rung: a copy of the round's best box tightened against an optimistically
// improved threshold, processed improve-only (see padLadder). deep marks the
// resolution's certification probe: the root box tightened against the contour
// of the D-th best known tuple rather than the candidate's own, processed
// improve-only as well when it overflows.
type batchItem struct {
	box      query.Box
	thrScore float64
	thrHave  bool
	ladder   bool
	root     bool
	deep     bool
}

// mdCover is a certified page: every tuple matching the cursor's query inside
// the box of the region holding it that scores ≤ theta, less those emitted
// before the page came back, is in page, in (score, ID) order. A complete
// answer to Tighten(box, theta) certifies exactly that, and what the upstream
// said stays the cursor's truth whatever the fact index forgets or an epoch
// bump marks stale — the MD twin of certCover. The region it was asked over
// keeps it, and so does every part that region is split into: it supplies
// their next answers and those answers' tie groups for no probe at all.
type mdCover struct {
	theta float64 // +Inf: the page holds everything inside the box
	page  []scoredTuple
}

type scoredTuple struct {
	t     types.Tuple
	score float64
}

// tiesOf returns the page's tuples sharing t's values on the ranked attributes
// — t's whole §5 tie group, since equal points score alike — or ok=false when
// the page does not list t itself.
func (cv *mdCover) tiesOf(t types.Tuple, ax *ranking.Axis) (ties []types.Tuple, ok bool) {
	if cv == nil {
		return nil, false
	}
	for _, st := range cv.page {
		same := true
		for _, a := range ax.Attrs() {
			same = same && st.t.Ord[a] == t.Ord[a]
		}
		if same {
			ties = append(ties, st.t)
			ok = ok || st.t.ID == t.ID
		}
	}
	return ties, ok
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
	if v == Rerank {
		c.depth = certDepth(e.db.K())
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
	// Resolve the shared index once: the map entry is created on first use
	// and never replaced, so caching it keeps the per-box fast path off
	// the engine-wide map mutex.
	c.denseIdx = e.know.mdIndexFor(c.sorted)
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
			rlkBuf:  query.Box{Dims: make([]types.Interval, len(c.sorted))},
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

// issue sends one box-restricted query, charging the per-op budget — the
// sequential probe path used by tie collection and domination probes.
func (r *mdResolver) issue(b query.Box) (hidden.Result, error) {
	if !r.c.chargeOp() {
		return hidden.Result{}, ErrBudget
	}
	r.axis.BoxToQueryInto(r.c.q, b, &r.probeQs[0])
	res, issued, err := r.c.s.issueCounted(r.probeQs[0])
	if issued {
		r.charged++
	}
	return res, err
}

// pushRegion adds a region for box to the region heap — unless the box is
// empty or cover, the certified page it lies under, shows it spent — and
// returns it (so Next can roll a split back on error).
func (c *MDCursor) pushRegion(box query.Box, cover *mdCover) *mdRegion {
	c.regionSeq++
	reg := &mdRegion{box: box, seq: c.regionSeq, cover: cover}
	if !box.Empty() && c.settle(reg) {
		heap.Push(&c.regions, reg)
	}
	return reg
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
	// Lazily resolve regions best-first until the heap minimum is resolved:
	// at that point every unresolved region's lower bound is strictly worse
	// than the resolved top-1, so no other region can supply the answer.
	// Each round resolves up to W of the best unresolved regions
	// concurrently; slots beyond the first are speculative (their results
	// persist in the heap, so early work is never thrown away).
	for c.regions.Len() > 0 && !c.regions[0].resolved {
		regs := c.popRound(c.width, true)
		seeds := c.seedRound(regs, 0)
		if err := c.runRound(regs, seeds, 0); err != nil {
			return types.Tuple{}, false, err
		}
	}
	if c.regions.Len() == 0 {
		c.exhausted = true
		return types.Tuple{}, false, nil
	}
	// The winner is now certain. Split its region first (the split needs
	// only the winning tuple), so the winner's tie point probe and a
	// prefetch round resolving the freshly split children — the regions
	// the NEXT call will almost surely block on — can overlap in one
	// concurrent section instead of costing two serial round-trips.
	reg := heap.Pop(&c.regions).(*mdRegion)
	t := reg.best
	ties, covered := reg.cover.tiesOf(t, c.axis())
	// Split the region on the first ranked attribute at t's value. The
	// right part keeps the boundary (closed) so tuples sharing the split
	// coordinate remain reachable; the emitted set excludes the tie
	// group itself.
	z0 := c.axis().ToAxis(t)[0]
	b1 := reg.box.Clone()
	b1.Dims[0] = b1.Dims[0].Intersect(types.Interval{Lo: math.Inf(-1), Hi: z0, HiOpen: true})
	b2 := reg.box.Clone()
	b2.Dims[0] = b2.Dims[0].Intersect(types.Interval{Lo: z0, Hi: math.Inf(1), HiOpen: true})
	if covered {
		// The region's cover lists t, so it lists t's whole tie group and
		// what each part holds next: no tie probe, nothing to prefetch.
		c.s.e.coverHits.Add(1)
		c.pending = c.pending[:0]
		for _, tt := range ties {
			if !c.emitted[tt.ID] {
				c.emitted[tt.ID] = true
				c.pending = append(c.pending, tt)
			}
		}
		c.pushRegion(b1, reg.cover)
		c.pushRegion(b2, reg.cover)
		out := c.pending[0]
		c.pending = c.pending[1:]
		return out, true, nil
	}
	children := []*mdRegion{c.pushRegion(b1, nil), c.pushRegion(b2, nil)}
	c.excludeID, c.excludeOK = t.ID, true
	err := c.collectTiesPipelined(t)
	c.excludeOK = false
	if err != nil {
		// Roll the split back so a retry sees the region exactly once.
		c.unsplit(reg, children)
		return types.Tuple{}, false, err
	}
	for _, tt := range c.pending {
		c.emitted[tt.ID] = true
	}
	// A prefetched region resolved concurrently with the tie probe may
	// have picked a tuple that just became emitted (a tie of t living in
	// the right split child): its resolution is stale — settle it again
	// under the updated emitted set.
	c.invalidateEmitted()
	out := c.pending[0]
	c.pending = c.pending[1:]
	return out, true, nil
}

// unsplit removes the exact child regions pushed for reg's split and
// re-pushes reg — the error-path rollback of the early split in Next. The
// identity filter compacts the heap array out of order, so the heap
// invariant is re-established before pushing.
func (c *MDCursor) unsplit(reg *mdRegion, children []*mdRegion) {
	kept := c.regions[:0]
	for _, r := range c.regions {
		drop := false
		for _, ch := range children {
			if r == ch {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, r)
		}
	}
	c.regions = kept
	heap.Init(&c.regions)
	heap.Push(&c.regions, reg)
}

// collectTiesPipelined runs the §5 tie collection for t while a prefetch
// round resolves the best unresolved regions in the background: the tie
// point probe and the prefetch probes share one concurrent section, so the
// per-emit tie round-trip stops serializing the search. The prefetch uses
// resolver slots 1.., leaving slot 0 (whose axis scratch the tie path uses)
// to collectTies; its seeding happens before the tie goroutine launches so
// every probe stream stays deterministic. Prefetch errors are swallowed —
// the affected regions are re-pushed unresolved and the next call retries
// them against a fresh per-op budget.
func (c *MDCursor) collectTiesPipelined(t types.Tuple) error {
	if c.s.e.opts.AssumeGeneralPositioning || c.width <= 1 {
		return c.collectTies(t)
	}
	prefetch := c.popRound(c.width-1, false)
	if len(prefetch) == 0 {
		return c.collectTies(t)
	}
	seeds := c.seedRound(prefetch, 1)
	// The tie point lies inside the right split child, so a complete page a
	// prefetch probe brings back may contain it. Settle the tie probe against
	// the fact index now, before the prefetch probes fly; inside the
	// concurrent section it only fetches, or whether it was free would depend
	// on which probe finished first.
	r0 := c.resolvers[0]
	point := c.tiePoint(t)
	r0.axis.BoxToQueryInto(c.q, point, &r0.probeQs[0])
	c.chargeOp() // never refuses: a per-op budget forces width 1
	res, known := c.s.e.probes.lookup(r0.probeQs[0])
	var wg sync.WaitGroup
	wg.Add(1)
	var tieErr error
	go func() {
		defer wg.Done()
		if !known {
			var issued bool
			if res, issued, tieErr = c.s.fetchCounted(r0.probeQs[0]); tieErr != nil {
				return
			}
			if issued {
				r0.charged++
			}
		}
		tieErr = c.gatherTies(t, point, res)
	}()
	_ = c.runRound(prefetch, seeds, 1)
	wg.Wait()
	return tieErr
}

// invalidateEmitted settles again every resolved region whose best tuple has
// been emitted — the next tuple of its cover, or back to unresolved —
// rebuilding the heap when any region changed.
func (c *MDCursor) invalidateEmitted() {
	kept, changed := c.regions[:0], false
	for _, reg := range c.regions {
		if reg.resolved && c.emitted[reg.best.ID] {
			changed = true
			if !c.settle(reg) {
				continue
			}
		}
		kept = append(kept, reg)
	}
	if changed {
		clear(c.regions[len(kept):])
		c.regions = kept
		heap.Init(&c.regions)
	}
}

// settle sets reg's standing from its cover, reporting false when the region
// is spent. The first page tuple not yet emitted is the region's exact top-1.
// With none left, every tuple of the region scoring ≤ Θ has been emitted, so
// the region goes back to unresolved with its lower bound raised just past Θ
// — or, under a page that held the whole region, has nothing more to give.
// Without a cover the region is unresolved at its corner bound.
func (c *MDCursor) settle(reg *mdRegion) bool {
	reg.best, reg.have, reg.resolved = types.Tuple{}, false, false
	reg.key = c.axis().LowerBound(reg.box)
	if reg.cover == nil {
		return true
	}
	r0 := c.resolvers[0] // its scratch is the cursor's between rounds
	for _, st := range reg.cover.page {
		if !c.emitted[st.t.ID] && reg.box.Contains(r0.axis.ToAxisInto(st.t, r0.zbuf)) {
			reg.best, reg.have, reg.resolved, reg.key = st.t, true, true, st.score
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
// discipline exists to avoid. When mandatory is set the first slot ignores
// the bound (the blocking loop must make progress).
func (c *MDCursor) popRound(limit int, mandatory bool) []*mdRegion {
	bound, haveBound := 0.0, false
	for _, r := range c.regions {
		if r.resolved && (!haveBound || r.key < bound) {
			bound, haveBound = r.key, true
		}
	}
	out := make([]*mdRegion, 0, limit)
	for len(out) < limit && c.regions.Len() > 0 && !c.regions[0].resolved {
		if haveBound && c.regions[0].key > bound && (len(out) > 0 || !mandatory) {
			break
		}
		out = append(out, heap.Pop(&c.regions).(*mdRegion))
	}
	return out
}

// seedRound seeds one candidate per region from the shared history, on the
// cursor goroutine, before any of the round's probes can grow the history —
// the ordering that keeps each resolution's probe stream deterministic.
// Region i uses resolver i+off.
func (c *MDCursor) seedRound(regs []*mdRegion, off int) []candidate {
	cands := make([]candidate, len(regs))
	if c.s.e.opts.DisableHistory {
		return cands
	}
	if c.depth > 1 {
		deep := make([]float64, c.depth*len(regs))
		for i := range deep {
			deep[i] = math.Inf(1)
		}
		for i := range cands {
			cands[i].deep = deep[i*c.depth : (i+1)*c.depth]
		}
	}
	// One pass over the matching history seeds every slot: all callbacks
	// run on the cursor goroutine, so sharing the scan preserves the
	// deterministic seeding order while keeping the cost independent of W.
	// The scan reads the columnar view directly — a slot's candidate is
	// materialized once, from the row it ended the scan on.
	var view colstore.View
	c.s.e.know.hist.ScanMatching(c.q, func(v colstore.View, row int) bool {
		view = v
		for i, reg := range regs {
			c.resolvers[i+off].improveRow(&cands[i], v, row, reg.box)
		}
		return true
	})
	for i := range cands {
		if cands[i].have {
			cands[i].t = view.Tuple(cands[i].row)
		}
	}
	// History knows deeper tuples than the candidate: the resolution asks for
	// the deepest known contour instead of the candidate's own, and a complete
	// page certifies every answer down to it — when that page is already a
	// fact, so that a repeated request runs as its first run did, or when the
	// candidate's own contour is not, so that the probe is spent either way.
	for i, reg := range regs {
		cand, r := &cands[i], c.resolvers[i+off]
		n := len(cand.deep)
		for n > 0 && math.IsInf(cand.deep[n-1], 1) {
			n--
		}
		cand.deep = cand.deep[:n]
		if n > 1 && cand.deep[n-1] > cand.score {
			if _, held := r.known(reg.box, cand.deep[n-1]); held {
				cand.certify = true
			} else if own, _ := r.known(reg.box, cand.score); !own {
				cand.certify = true
			}
		}
	}
	return cands
}

// runRound resolves the round's regions concurrently (region i on resolver
// i+off) and applies the results in slot order. Slots beyond the heap
// minimum are speculative: the minimum's result alone might have unblocked
// the emit, so the extra resolutions are work done early, counted into the
// engine's speculation ledger.
func (c *MDCursor) runRound(regs []*mdRegion, cands []candidate, off int) error {
	type outcome struct {
		best types.Tuple
		have bool
		err  error
	}
	outs := make([]outcome, len(regs))
	if len(regs) == 1 && off == 0 {
		outs[0].best, outs[0].have, outs[0].err = c.resolvers[0].top1(regs[0].box, &cands[0])
	} else {
		var wg sync.WaitGroup
		for i := range regs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := c.resolvers[i+off]
				outs[i].best, outs[i].have, outs[i].err = r.top1(regs[i].box, &cands[i])
				if i > 0 || off > 0 {
					c.s.e.specIssued.Add(r.charged)
				}
			}(i)
		}
		wg.Wait()
	}
	// Apply results in slot order; on error, surface the first and re-push
	// the regions so the cursor stays consistent for a retry. Scoring uses
	// each slot's own axis: resolver 0's scratch may be serving the
	// pipelined tie path concurrently.
	var firstErr error
	for i, reg := range regs {
		if outs[i].err != nil {
			if firstErr == nil {
				firstErr = outs[i].err
			}
			heap.Push(&c.regions, reg)
			continue
		}
		if firstErr != nil {
			heap.Push(&c.regions, reg)
			continue
		}
		if outs[i].have {
			reg.best, reg.have, reg.resolved = outs[i].best, true, true
			reg.key = c.resolvers[i+off].axis.ScoreTuple(outs[i].best)
			reg.cover = c.resolvers[i+off].cover
			heap.Push(&c.regions, reg)
		}
	}
	return firstErr
}

// collectTies fills the pending buffer with every tuple matching q that
// shares t's values on all ranked attributes (§5).
func (c *MDCursor) collectTies(t types.Tuple) error {
	if c.s.e.opts.AssumeGeneralPositioning {
		c.pending = []types.Tuple{t}
		return nil
	}
	point := c.tiePoint(t)
	res, err := c.resolvers[0].issue(point)
	if err != nil {
		return err
	}
	return c.gatherTies(t, point, res)
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

// gatherTies fills the pending buffer from res, the answer to the tie point
// probe for t, crawling the point when that answer overflowed.
func (c *MDCursor) gatherTies(t types.Tuple, point query.Box, res hidden.Result) error {
	var err error
	var ties []types.Tuple
	if !res.Overflow {
		ties = res.Tuples
	} else {
		ties, err = c.s.crawlRegion(c.axis().BoxToQuery(c.q, point), nil)
		if err != nil {
			return err
		}
	}
	seen := map[int]bool{}
	c.pending = c.pending[:0]
	for _, tt := range ties {
		if !seen[tt.ID] && !c.emitted[tt.ID] {
			seen[tt.ID] = true
			c.pending = append(c.pending, tt)
		}
	}
	if !seen[t.ID] && !c.emitted[t.ID] {
		c.pending = append(c.pending, t)
	}
	sort.Slice(c.pending, func(i, j int) bool { return c.pending[i].ID < c.pending[j].ID })
	return nil
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
	row     int // during seedRound's scan: the history row t.ID names
	deep    []float64
	certify bool
}

// noteDeep files score s among the best len(deep) seen. Nearly every row of a
// scan is turned away by the test, which is the part that inlines.
func (cand *candidate) noteDeep(s float64) {
	if d := cand.deep; len(d) > 0 && s < d[len(d)-1] {
		cand.fileDeep(s)
	}
}

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
	if r.c.emitted[t.ID] || (r.c.excludeOK && t.ID == r.c.excludeID) || !r.c.q.Matches(t) {
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

// improveRow is improveOne reading straight from a columnar history row. The
// scan that feeds it has already filtered by the cursor's query, so only the
// emitted/excluded checks remain. An adopted row leaves its ID and row number;
// seedRound materializes the tuple when the scan is over.
func (r *mdResolver) improveRow(cand *candidate, v colstore.View, row int, box query.Box) {
	id := v.ID(row)
	if r.c.emitted[id] || (r.c.excludeOK && id == r.c.excludeID) {
		return
	}
	z := r.axis.ToAxisViewInto(v, row, r.zbuf)
	if !box.Contains(z) {
		return
	}
	s := r.axis.ScoreAxis(z) // the row's own score to the bit: z holds its values times ±1
	cand.noteDeep(s)
	if !cand.have || s < cand.score || (s == cand.score && id < cand.t.ID) {
		cand.t.ID, cand.row, cand.score, cand.have = id, row, s, true
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
// The frontier is explored best-first in speculative rounds of up to W
// boxes: round composition (pop, tighten, dense fast path), budget charging
// and result processing all happen in deterministic frontier order on the
// resolver's goroutine; only the upstream probes of one round run
// concurrently.
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
		// Compose one speculative round: the W best frontier boxes that
		// survive tightening and the dense-index fast path.
		r.batch = r.batch[:0]
		for len(r.batch) < c.width && r.frontier.Len() > 0 {
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
			// A box inside an already-answered complete page is fully
			// known: improve has seen every tuple in it, so probing it
			// again (typically the confirm probe after a ladder rung
			// collapsed the improvement chain) buys nothing.
			if r.coveredBy(b) {
				continue
			}
			// MD-RERANK fast path: a box already covered by a crawled
			// dense region at the current epoch is answered locally with
			// zero queries. A stale covering region is re-validated first
			// (one confirming probe); if it drifted, it is evicted and the
			// box falls through to ordinary batch probing.
			if c.variant == Rerank && c.denseVol > 0 && b.IsFinite() && r.isDense(b) {
				reg, ok, err := c.s.denseLookupMD(c.denseIdx, c.sorted, r.realBoxInto(b))
				if err != nil {
					return types.Tuple{}, false, err
				}
				if ok {
					r.improve(cand, c.s.e.know.hist.RowTuples(reg.Rows), b)
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
			r.batch = append(r.batch, it)
		}
		if len(r.batch) == 0 {
			continue
		}
		if len(r.batch) < c.width && r.chain > 0 {
			// A detected improvement chain: the previous round was a
			// lone box whose probe improved the threshold, and this
			// round is re-probing it — the regime where the search
			// degenerates to one improvement per round-trip. Fill the
			// free slots with a speculative tightening ladder over the
			// round's best box to collapse the chase. (Gating on a
			// detected chain keeps ordinary one-probe resolutions at
			// one probe.)
			r.padLadder(cand)
		}
		// Charge the per-op budget at issue, in deterministic round order.
		// Boxes the budget cannot cover go back to the frontier un-probed.
		issuable := len(r.batch)
		for i := range r.batch {
			if !c.chargeOp() {
				issuable = i
				break
			}
		}
		if issuable == 0 {
			for i := range r.batch {
				r.pushBox(r.batch[i].box, r.batch[i].root)
			}
			return types.Tuple{}, false, ErrBudget
		}
		for i := issuable; i < len(r.batch); i++ {
			r.pushBox(r.batch[i].box, r.batch[i].root)
		}
		r.batch = r.batch[:issuable]
		// Issue the round concurrently; slots beyond the first are
		// speculative.
		for i := range r.batch {
			r.axis.BoxToQueryInto(c.q, r.batch[i].box, &r.probeQs[i])
		}
		c.s.issueAll(r.probeQs[:len(r.batch)], r.results[:len(r.batch)])
		for i := range r.batch {
			if r.results[i].issued {
				r.charged++
				// Frontier slots beyond the first are speculative probes
				// (unless this whole resolution is a speculative region
				// slot, whose probes are all counted by resolveRound).
				if i > 0 && !r.spec {
					c.s.e.specIssued.Add(1)
				}
			}
		}
		// Process results strictly in round order.
		restarted := false
		nonLadder := 0
		for i := range r.batch {
			if !r.batch[i].ladder {
				nonLadder++
			}
		}
		singleImproved := false
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
				// in it has been seen. Never waste; remember the cover
				// so later frontier boxes inside it are skipped.
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
				// An overflowing ladder rung guessed too loose a
				// threshold: its page still improved the candidate and
				// fed history, but the rung resolves nothing — count it
				// wasted (only if it actually reached the upstream:
				// free cache replays cost nothing to waste) and let the
				// canonical chain (the round's first slot re-pushed
				// tightened) carry the coverage argument.
				if r.results[i].issued {
					c.s.e.specWasted.Add(1)
				}
				continue
			}
			if restarted {
				// A restart discarded the whole partition; the re-pushed
				// root covers this box, so the speculative probe was
				// waste (its page still fed history above).
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
				if nonLadder == 1 {
					singleImproved = true
				}
				if c.variant == Rerank {
					if tb, ok := r.axis.Tighten(it.box, cand.score); ok {
						r.pushBox(tb, it.root)
					}
				} else {
					r.frontier = r.frontier[:0]
					if tb, ok := r.axis.Tighten(box, cand.score); ok {
						r.pushBox(tb, true)
					}
					restarted = true
				}
				continue
			}
			if cand.have && (!it.thrHave || cand.score < it.thrScore) {
				// The threshold improved between issue and processing
				// (an earlier result of this round): sequential
				// execution would have probed this box re-tightened, so
				// the stale overflow is speculative waste (when it
				// reached the upstream — cache replays are free).
				// Re-enqueue the box; its next probe pays only what the
				// tightened form costs, and this probe's page already
				// fed history. Slot 0 can only go stale through
				// compose-time dense-hit improvements — itself a
				// width>1 artifact — so its probe is counted into the
				// speculative ledger here to keep wasted ≤ issued.
				if r.results[i].issued {
					c.s.e.specWasted.Add(1)
					if i == 0 && !r.spec {
						c.s.e.specIssued.Add(1)
					}
				}
				if tb, ok := r.axis.Tighten(it.box, cand.score); ok {
					r.pushBox(tb, it.root)
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
		if singleImproved {
			r.chain++
		} else {
			r.chain = 0
		}
	}
	return cand.t, cand.have, nil
}

// padLadder fills the round's free slots with a speculative tightening
// ladder: copies of the round's best box tightened against geometrically
// more optimistic thresholds between the box's lower bound and the
// threshold it was composed under. The chase a sequential search runs —
// probe, improve, re-tighten, probe again, one upstream round-trip per
// improvement — collapses when a deep rung comes back complete: a complete
// page over Tighten(b, θ_j) reveals the true minimum of everything under
// θ_j at once, a parallel exponential search down the score axis. Rungs are
// processed improve-only (never partitioned — they overlap the canonical
// slot), so they can accelerate the search but never steer it; an
// overflowing rung is counted as speculative waste.
func (r *mdResolver) padLadder(cand *candidate) {
	base := r.batch[0]
	lb := r.axis.LowerBound(base.box)
	up := base.thrScore
	if !base.thrHave {
		up = r.axis.UpperBound(base.box)
	}
	if !(up > lb) || math.IsInf(up, 1) || math.IsInf(lb, -1) {
		return
	}
	theta := up
	for len(r.batch) < r.c.width {
		theta = lb + (theta-lb)/4
		if !(theta > lb) {
			return // hit the numeric floor above the lower bound
		}
		tb, ok := r.axis.Tighten(base.box, theta)
		if !ok {
			return
		}
		if r.dupInBatch(tb) {
			continue // same tightening as an existing slot; descend further
		}
		r.batch = append(r.batch, batchItem{box: tb, thrScore: theta, thrHave: true, ladder: true})
	}
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
	return r.c.s.e.probes.knows(r.probeQs[0])
}

// keepCover makes the complete page of root probe it the region's cover, its
// tuples in emission order. The probe's box was the whole region's tightened
// against it.thrScore, so the page certifies the region down to that contour.
func (r *mdResolver) keepCover(it *batchItem, page []types.Tuple) {
	cv := &mdCover{theta: math.Inf(1)}
	if it.thrHave {
		cv.theta = it.thrScore
	}
	for _, t := range page {
		if s := r.axis.ScoreTuple(t); s <= cv.theta && !r.c.emitted[t.ID] {
			cv.page = append(cv.page, scoredTuple{t, s})
		}
	}
	sort.Slice(cv.page, func(i, j int) bool {
		a, b := cv.page[i], cv.page[j]
		return a.score < b.score || (a.score == b.score && a.t.ID < b.t.ID)
	})
	r.cover = cv
}

// dupInBatch reports whether box equals any box already in the round —
// identical probes inside one round must not happen (whether a duplicate
// coalesces or replays from cache would depend on timing, breaking ledger
// reproducibility).
func (r *mdResolver) dupInBatch(b query.Box) bool {
	for i := range r.batch {
		if boxesEqual(r.batch[i].box, b) {
			return true
		}
	}
	return false
}

func boxesEqual(a, b query.Box) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for j := range a.Dims {
		if a.Dims[j] != b.Dims[j] {
			return false
		}
	}
	return true
}

// partition splits an overflowing box into disjoint children covering every
// potentially-better tuple, excluding all returned tuples so the search
// always progresses.
func (r *mdResolver) partition(b query.Box, returned []types.Tuple, cand *candidate) ([]query.Box, error) {
	var kids []query.Box
	// Pivot on the lowest-score returned tuple by default; switch to the
	// virtual-tuple machinery when the pivot sits so close to the box's
	// best corner that splitting around it prunes almost nothing — the
	// ill-conditioned-system-ranking pathology of §4.3.1.
	pi := 0
	for i := 1; i < len(returned); i++ {
		if r.axis.ScoreTuple(returned[i]) < r.axis.ScoreTuple(returned[pi]) {
			pi = i
		}
	}
	// MD-BINARY applies the virtual-tuple machinery on every stuck
	// overflow (Algorithm 5); MD-RERANK reserves it for boxes where the
	// pivot split would prune almost nothing.
	c := r.c
	useVirtual := c.variant != Baseline && !c.s.e.opts.DisableVirtualTuples && cand.have &&
		(c.variant == Binary || r.prunedFraction(b, r.axis.ToAxis(returned[pi])) < 0.02)
	placed := false
	if useVirtual {
		if vp, ok := r.axis.VirtualTuple(b, cand.score); ok {
			if !c.s.e.opts.DisableDominationProbe {
				// Direct domination detection (§4.3.2): probe
				// the box dominating v' for a better tuple.
				domB := b.Clone()
				for j := range domB.Dims {
					domB.Dims[j] = domB.Dims[j].Intersect(types.ClosedInterval(math.Inf(-1), vp[j]))
				}
				if !domB.Empty() {
					res, err := r.issue(domB)
					if err != nil {
						return nil, err
					}
					r.improve(cand, res.Tuples, b)
				}
			}
			// Virtual-tuple pruning: children exclude the
			// anti-dominance region of v', which is sound because
			// S(v') ≥ threshold.
			kids = r.splitAt(b, vp, true)
			placed = true
		}
	}
	if !placed {
		zp := r.axis.ToAxis(returned[pi])
		kids = r.splitAt(b, zp, r.pruneAntiOK(returned[pi], cand))
		returned = append(returned[:pi:pi], returned[pi+1:]...)
	}
	// Exclude every remaining returned tuple from whichever child
	// contains it (children are disjoint), so no query can return an
	// already-seen page forever.
	for _, t := range returned {
		z := r.axis.ToAxis(t)
		for i := 0; i < len(kids); i++ {
			if kids[i].Contains(z) {
				repl := r.splitAt(kids[i], z, r.pruneAntiOK(t, cand))
				kids = append(append(kids[:i:i], repl...), kids[i+1:]...)
				break
			}
		}
	}
	return kids, nil
}

// prunedFraction estimates how much of box b the anti-dominance region of
// axis point z occupies — the pruning power of a pivot split around z.
// Unbounded dimensions contribute zero (the pivot prunes a negligible
// sliver of an unbounded box).
func (r *mdResolver) prunedFraction(b query.Box, z []float64) float64 {
	frac := 1.0
	for j, iv := range b.Dims {
		lo := math.Max(iv.Lo, r.axis.Lo()[j])
		hi := math.Min(iv.Hi, r.axis.Hi()[j])
		w := hi - lo
		if w <= 0 || math.IsInf(w, 1) {
			return 0
		}
		frac *= math.Max(0, hi-z[j]) / w
	}
	return frac
}

// pruneAntiOK reports whether pruning t's anti-dominance region is sound:
// every tuple there scores at least S(t), so the region can be dropped only
// when S(t) is at least the current threshold.
func (r *mdResolver) pruneAntiOK(t types.Tuple, cand *candidate) bool {
	return cand.have && r.axis.ScoreTuple(t) >= cand.score
}

// splitAt partitions box b minus the point z into disjoint children:
// child j  = b ∧ {dim j < z_j} ∧ {dim l ≥ z_l for l < j}      (j = 0..m-1)
// covering b minus the anti-dominance region of z. When pruneAnti is false
// the anti-dominance region minus the point itself is also covered, with
// degenerate-slice children:
// anti  j  = b ∧ {dim i = z_i for i < j} ∧ {dim j > z_j} ∧ {dim l ≥ z_l for l > j}.
func (r *mdResolver) splitAt(b query.Box, z []float64, pruneAnti bool) []query.Box {
	m := len(z)
	var out []query.Box
	for j := 0; j < m; j++ {
		kid := b.Clone()
		kid.Dims[j] = kid.Dims[j].Intersect(types.Interval{Lo: math.Inf(-1), Hi: z[j], HiOpen: true})
		for l := 0; l < j; l++ {
			kid.Dims[l] = kid.Dims[l].Intersect(types.Interval{Lo: z[l], Hi: math.Inf(1), HiOpen: true})
		}
		if !kid.Empty() {
			out = append(out, kid)
		}
	}
	if !pruneAnti {
		for j := 0; j < m; j++ {
			kid := b.Clone()
			for i := 0; i < j; i++ {
				kid.Dims[i] = kid.Dims[i].Intersect(types.ClosedInterval(z[i], z[i]))
			}
			kid.Dims[j] = kid.Dims[j].Intersect(types.Interval{Lo: z[j], LoOpen: true, Hi: math.Inf(1), HiOpen: true})
			for l := j + 1; l < m; l++ {
				kid.Dims[l] = kid.Dims[l].Intersect(types.Interval{Lo: z[l], Hi: math.Inf(1), HiOpen: true})
			}
			if !kid.Empty() {
				out = append(out, kid)
			}
		}
	}
	return out
}

// isDense reports whether the box qualifies for dense-region handling:
// every side below its per-dimension threshold (hence volume below the
// paper's |V|·(s/n)/c bound).
func (r *mdResolver) isDense(b query.Box) bool {
	for j, iv := range b.Dims {
		if iv.Width() >= r.c.denseDim[j] {
			return false
		}
	}
	return true
}

// denseAnswer resolves a sub-threshold box through the MD dense index,
// crawling it generically (without Sel(q)) on a miss so the region serves
// every future user query (Algorithm 6).
func (r *mdResolver) denseAnswer(b query.Box, cand *candidate) error {
	realBox := r.realBoxOf(b)
	idx := r.c.denseIdx
	// Epoch-aware lookup: a stale covering region is re-validated with one
	// confirming probe before it may answer locally.
	reg, ok, err := r.c.s.denseLookupMD(idx, r.c.sorted, realBox)
	if err != nil {
		return err
	}
	if !ok {
		// Crawl-and-index, deduplicated: concurrent sessions hitting the
		// same dense box crawl it once; followers read it from the index.
		if err := r.c.s.crawlDenseMD(r.c.sorted, realBox); err != nil {
			return err
		}
		reg, ok, err = r.c.s.denseLookupMD(idx, r.c.sorted, realBox)
		if err != nil {
			return err
		}
		if !ok {
			// Coverage is monotone within an epoch: a freshly crawled box
			// stays covered, so this indicates index corruption, never a
			// benign miss.
			return fmt.Errorf("core: dense region %v missing after crawl", realBox)
		}
	}
	r.improve(cand, r.c.s.e.know.hist.RowTuples(reg.Rows), b)
	return nil
}

// realBoxOf converts an axis box to real-value space with dimensions in
// canonical (sorted attribute) order so that rankers sharing an attribute
// subset share index regions. The result is freshly allocated (the crawl
// path stores it in the shared index).
func (r *mdResolver) realBoxOf(b query.Box) query.Box {
	rb := query.Box{Dims: make([]types.Interval, len(r.c.sorted))}
	r.fillRealBox(b, rb)
	return rb
}

// realBoxInto is realBoxOf into the resolver's scratch box — for index
// lookups, which do not retain their argument.
func (r *mdResolver) realBoxInto(b query.Box) query.Box {
	r.fillRealBox(b, r.rlkBuf)
	return r.rlkBuf
}

func (r *mdResolver) fillRealBox(b query.Box, dst query.Box) {
	for i := range r.c.sorted {
		j := r.c.axisPos[i]
		dst.Dims[i] = r.axis.RealInterval(j, b.Dims[j])
	}
}
