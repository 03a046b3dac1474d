// Axis-space view of a ranking function.
//
// Every reranking algorithm in internal/core works in "axis coordinates":
// z_j = dir_j · v_j where v_j is the real value of the j-th ranked attribute
// and dir_j ∈ {+1, -1} is the ranker's preference direction. In axis space,
// smaller coordinates are always better and the score function is monotone
// nondecreasing coordinatewise, so the subspace dominating a point is the
// lower-left orthant — the geometry Figures 1–5 of the paper draw.

package ranking

import (
	"math"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

// Axis wraps a Ranker together with the schema it ranks over and provides
// real↔axis coordinate transforms, domain bounds in axis space, and score
// evaluation on axis points.
//
// An Axis carries small scratch buffers reused by the geometric primitives
// (corner evaluation, tightening), so it is NOT safe for concurrent use.
// Every cursor builds its own Axis and drives it from one goroutine, which
// is the established cursor contract.
type Axis struct {
	R      Ranker
	Schema *types.Schema

	attrs []int     // schema indexes, copy of R.Attrs()
	dirs  []float64 // +1 asc, -1 desc, per position in attrs
	lo    []float64 // axis-space domain minima (best possible per attribute)
	hi    []float64 // axis-space domain maxima (worst possible per attribute)

	cornerBuf []float64 // scratch for bestCorner (contour.go)
	scoreBuf  []float64 // scratch for ScoreAxis value conversion
}

// NewAxis builds the axis view of r over schema s.
func NewAxis(r Ranker, s *types.Schema) *Axis {
	attrs := r.Attrs()
	a := &Axis{
		R:      r,
		Schema: s,
		attrs:  append([]int(nil), attrs...),
		dirs:   make([]float64, len(attrs)),
		lo:     make([]float64, len(attrs)),
		hi:     make([]float64, len(attrs)),
	}
	for j, attr := range a.attrs {
		a.dirs[j] = float64(r.Dir(j))
		d := s.Domain(attr)
		z1 := a.dirs[j] * d.Min
		z2 := a.dirs[j] * d.Max
		a.lo[j] = math.Min(z1, z2)
		a.hi[j] = math.Max(z1, z2)
	}
	return a
}

// M returns the number of ranked attributes (the dimensionality of axis
// space).
func (a *Axis) M() int { return len(a.attrs) }

// Attrs returns the schema indexes of the ranked attributes.
func (a *Axis) Attrs() []int { return a.attrs }

// Lo returns the axis-space domain minima (the best corner). Do not modify.
func (a *Axis) Lo() []float64 { return a.lo }

// Hi returns the axis-space domain maxima (the worst corner). Do not modify.
func (a *Axis) Hi() []float64 { return a.hi }

// ToAxis converts tuple t's ranked attributes to an axis point.
func (a *Axis) ToAxis(t types.Tuple) []float64 {
	return a.ToAxisInto(t, make([]float64, len(a.attrs)))
}

// ToAxisInto converts t's ranked attributes into dst (which must have length
// M) and returns it — the allocation-free ToAxis for per-tuple hot loops.
func (a *Axis) ToAxisInto(t types.Tuple, dst []float64) []float64 {
	for j, attr := range a.attrs {
		dst[j] = a.dirs[j] * t.Ord[attr]
	}
	return dst
}

// ScoreAxis evaluates the ranking score at an axis point.
func (a *Axis) ScoreAxis(z []float64) float64 {
	if a.scoreBuf == nil {
		a.scoreBuf = make([]float64, len(a.attrs))
	}
	for j := range z {
		a.scoreBuf[j] = a.dirs[j] * z[j]
	}
	return a.R.Score(a.scoreBuf)
}

// LowerBound returns the smallest score any tuple inside box b could have:
// the score of b's best corner clamped to the attribute domains. It is the
// admissible bound that orders the best-first frontier and the lazy region
// heap in internal/core.
func (a *Axis) LowerBound(b query.Box) float64 {
	return a.ScoreAxis(a.bestCorner(b))
}

// ScoreTuple evaluates the ranking score of a tuple, reusing the axis's
// scratch buffer (unlike the package-level ScoreTuple, which allocates the
// projection per call).
func (a *Axis) ScoreTuple(t types.Tuple) float64 {
	if a.scoreBuf == nil {
		a.scoreBuf = make([]float64, len(a.attrs))
	}
	for j, attr := range a.attrs {
		a.scoreBuf[j] = t.Ord[attr]
	}
	return a.R.Score(a.scoreBuf)
}

// ToAxisViewInto is ToAxisInto reading the ranked attributes straight from a
// columnar view row, skipping tuple materialization entirely.
func (a *Axis) ToAxisViewInto(v colstore.View, row int, dst []float64) []float64 {
	for j, attr := range a.attrs {
		dst[j] = a.dirs[j] * v.Ord(row, attr)
	}
	return dst
}

// DomainBox returns the closed axis-space box spanning the attribute domains.
func (a *Axis) DomainBox() query.Box {
	b := query.Box{Dims: make([]types.Interval, len(a.attrs))}
	for j := range a.attrs {
		b.Dims[j] = types.ClosedInterval(a.lo[j], a.hi[j])
	}
	return b
}

// AxisInterval converts a real-value interval on the j-th ranked attribute to
// axis space (flipping and swapping bounds for Desc attributes).
func (a *Axis) AxisInterval(j int, iv types.Interval) types.Interval {
	if a.dirs[j] > 0 {
		return iv
	}
	return types.Interval{
		Lo: -iv.Hi, Hi: -iv.Lo,
		LoOpen: iv.HiOpen, HiOpen: iv.LoOpen,
	}
}

// RealInterval converts an axis-space interval on the j-th ranked attribute
// back to a real-value interval.
func (a *Axis) RealInterval(j int, iv types.Interval) types.Interval {
	return a.AxisInterval(j, iv) // the transform is an involution
}

// BoxToQuery translates an axis-space box into range predicates on the real
// attributes, intersected onto base. Dimensions spanning the full domain are
// still emitted: real search interfaces require explicit ranges and the
// hidden-DB simulator treats them equivalently.
func (a *Axis) BoxToQuery(base query.Query, b query.Box) query.Query {
	var q query.Query
	a.BoxToQueryInto(base, b, &q)
	return q
}

// BoxToQueryInto is BoxToQuery writing into a caller-owned scratch query,
// reusing its storage. The per-probe fast path: the old clone-per-dimension
// construction allocated m+1 query copies per probe.
func (a *Axis) BoxToQueryInto(base query.Query, b query.Box, dst *query.Query) {
	dst.CopyFrom(base)
	for j, attr := range a.attrs {
		dst.AddRange(attr, a.RealInterval(j, b.Dims[j]))
	}
}

// QueryToBox extracts the constraints base places on the ranked attributes as
// an axis-space box (unconstrained dimensions become the full domain), so
// that search can start from the user query's own region.
func (a *Axis) QueryToBox(base query.Query) query.Box {
	b := a.DomainBox()
	for j, attr := range a.attrs {
		if iv, ok := base.Range(attr); ok {
			b.Dims[j] = b.Dims[j].Intersect(a.AxisInterval(j, iv))
		}
	}
	return b
}
