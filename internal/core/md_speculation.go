// MD speculation: history seeding and concurrent region rounds, and the
// tightening ladder.

package core

import (
	"container/heap"
	"math"
	"sync"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

// seedRound seeds one candidate per region from the shared history, on the
// cursor goroutine, before any of the round's probes can grow the history —
// the ordering that keeps each resolution's probe stream deterministic.
// Region i uses resolver i.
func (c *MDCursor) seedRound(regs []*mdRegion) []candidate {
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
	c.s.e.hist.ScanMatching(c.q, func(v colstore.View, row int) bool {
		view = v
		for i, reg := range regs {
			c.resolvers[i].improveRow(&cands[i], v, row, reg.box)
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
		cand, r := &cands[i], c.resolvers[i]
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
// i) and applies the results in slot order. Slots beyond the heap minimum
// are speculative: the minimum's result alone might have unblocked the emit,
// so the extra resolutions are work done early, counted into the engine's
// speculation ledger.
func (c *MDCursor) runRound(regs []*mdRegion, cands []candidate) error {
	type outcome struct {
		best types.Tuple
		have bool
		err  error
	}
	outs := make([]outcome, len(regs))
	if len(regs) == 1 {
		outs[0].best, outs[0].have, outs[0].err = c.resolvers[0].top1(regs[0].box, &cands[0])
	} else {
		var wg sync.WaitGroup
		for i := range regs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := c.resolvers[i]
				outs[i].best, outs[i].have, outs[i].err = r.top1(regs[i].box, &cands[i])
				if i > 0 {
					c.s.e.specIssued.Add(r.charged)
				}
			}(i)
		}
		wg.Wait()
	}
	// Apply results in slot order; on error, surface the first and re-push
	// the regions so the cursor stays consistent for a retry.
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
			reg.key = c.resolvers[i].axis.ScoreTuple(outs[i].best)
			reg.cover = c.resolvers[i].cover
			heap.Push(&c.regions, reg)
		}
	}
	return firstErr
}

// padLadder fills slots 1…W−1 of the round with a speculative tightening
// ladder: copies of the round's frontier box (slot 0) tightened against
// geometrically more optimistic thresholds between the box's lower bound and
// the threshold it was composed under. The chase a sequential search runs —
// probe, improve, re-tighten, probe again, one upstream round-trip per
// improvement — collapses when a deep rung comes back complete: a complete
// page over Tighten(b, θ_j) reveals the true minimum of everything under
// θ_j at once, a parallel exponential search down the score axis. Rungs are
// processed improve-only (never partitioned — they overlap the canonical
// slot), so they can accelerate the search but never steer it; an
// overflowing rung is the only speculative waste.
func (r *mdResolver) padLadder(cand *candidate) {
	base := r.batch[0]
	lb := r.axis.LowerBound(base.box)
	up := base.thrScore
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
