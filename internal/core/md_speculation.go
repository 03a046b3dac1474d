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

// seedList is a cursor's copy of the history it seeds from: the arena rows
// matching its query, in row order, each with its score, and the watermark
// below which the arena has been matched. The arena only grows and its rows
// never change, so the list extended to a view holds exactly the rows a full
// scan of that view matches, in the order the scan visits them. It costs 12 B
// per matching row and goes with the cursor.
type seedList struct {
	rows  []uint32
	score []float64
	mark  int // arena rows below mark are matched
}

// seedRound seeds one candidate per region from the shared history, on the
// cursor goroutine, before any of the round's probes can grow the history —
// the ordering that keeps each resolution's probe stream deterministic.
// Region i uses resolver i. Only the rows past the seed list's watermark are
// matched and scored; every region then seeds from the list.
func (c *MDCursor) seedRound(regs []*mdRegion) []candidate {
	cands := c.cands[:len(regs)]
	for i := range cands {
		cands[i] = candidate{}
	}
	if c.s.e.opts.DisableHistory {
		return cands
	}
	if c.depth > 1 {
		deep := c.deep[:c.depth*len(regs)]
		for i := range deep {
			deep[i] = math.Inf(1)
		}
		for i := range cands {
			cands[i].deep = deep[i*c.depth : (i+1)*c.depth]
		}
	}
	r0 := c.resolvers[0] // its scratch is the cursor's between rounds
	c.s.e.publish.RLock()
	v := c.s.e.hist.View()
	c.s.e.publish.RUnlock()
	c.s.e.hist.ScanMatching(c.q, v, c.seeds.mark, func(row int) {
		c.seeds.rows = append(c.seeds.rows, uint32(row))
		// The row's own score to the bit: the axis point holds its values
		// times ±1.
		c.seeds.score = append(c.seeds.score, r0.axis.ScoreAxis(r0.axis.ToAxisViewInto(v, row, r0.zbuf)))
	})
	c.seeds.mark = v.Len()
	for i, reg := range regs {
		if c.seedFrom(&cands[i], v, reg.box) {
			cands[i].t = v.Tuple(cands[i].row)
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

// seedFrom walks the seed list for the region over box: cand becomes the best
// entry inside box that is neither emitted nor skipped, under the (score, ID)
// rule (the first in row order among equals), and cand.deep collects the
// scores of the best len(cand.deep) such entries. It reports whether cand was
// found; cand.t then holds only its ID, and cand.row the row to materialize.
//
// The tests run cheapest first — score, box, then emitted and skip — because
// an entry that fails any one of them changes nothing: an entry that could
// neither enter deep nor beat the candidate is turned away on its score
// alone, before its axis point is read or its ID looked up.
func (c *MDCursor) seedFrom(cand *candidate, v colstore.View, box query.Box) bool {
	r0 := c.resolvers[0]
	rows := c.seeds.rows
	for k, s := range c.seeds.score {
		deeper := len(cand.deep) > 0 && s < cand.deep[len(cand.deep)-1]
		if !deeper && cand.have && (s > cand.score || s == cand.score && v.ID(int(rows[k])) >= cand.t.ID) {
			continue
		}
		row := int(rows[k])
		if !box.Contains(r0.axis.ToAxisViewInto(v, row, r0.zbuf)) {
			continue
		}
		id := v.ID(row)
		if c.emitted[id] || (len(c.skip) > 0 && c.skippedRow(v, row, id)) {
			continue
		}
		if deeper {
			cand.fileDeep(s)
		}
		if !cand.have || s < cand.score || (s == cand.score && id < cand.t.ID) {
			cand.t.ID, cand.row, cand.score, cand.have = id, row, s, true
		}
	}
	return cand.have
}

// roundOutcome is one region slot's result in a region round.
type roundOutcome struct {
	best types.Tuple
	have bool
	err  error
}

// runRound resolves the round's regions concurrently (region i on resolver
// i) and applies the results in slot order. Slots beyond the heap minimum
// are speculative: the minimum's result alone might have unblocked the emit,
// so the extra resolutions are work done early, counted into the engine's
// speculation ledger.
func (c *MDCursor) runRound(regs []*mdRegion, cands []candidate) error {
	outs := c.outs[:len(regs)]
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
