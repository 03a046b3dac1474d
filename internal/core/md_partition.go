// MD partition geometry: splitting an overflowing box around a pivot or a
// virtual tuple, and the dense-region boxes Algorithm 6 crawls.

package core

import (
	"math"

	"repro/internal/query"
	"repro/internal/types"
)

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

// denseAnswer resolves a sub-threshold box through the crawled regions,
// crawling it generically (without Sel(q)) on a miss so the region serves
// every future user query (Algorithm 6).
func (r *mdResolver) denseAnswer(b query.Box, cand *candidate) error {
	f, err := r.c.s.crawledFact(r.realRanges(b))
	if err != nil {
		return err
	}
	r.improve(cand, r.c.s.e.hist.RowTuples(f.rows), b)
	return nil
}

// realRanges converts an axis box to a query of real-value ranges, which
// holds them in ascending attribute order, so that rankers sharing an
// attribute subset share crawled regions. It fills the resolver's scratch:
// the crawled set copies what it keeps.
func (r *mdResolver) realRanges(b query.Box) query.Query {
	r.rlk.CopyFrom(query.New())
	for i, a := range r.c.sorted {
		j := r.c.axisPos[i]
		r.rlk.AddRange(a, r.axis.RealInterval(j, b.Dims[j]))
	}
	return r.rlk
}
