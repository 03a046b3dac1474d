// Package ranking defines user-specified and system ranking functions.
//
// Per §2.2 of the paper, a user-specified ranking function S(q, t) maps a
// tuple's ordinal attributes to a score; smaller scores rank higher. The only
// requirement is monotonicity: there is a per-attribute value order ≺ such
// that a tuple cannot outrank another that is at least as good on every
// attribute. We encode ≺ as a per-attribute Direction and expose an "axis
// view" in which smaller coordinates are always preferable and S is monotone
// nondecreasing coordinatewise — the geometry every reranking algorithm in
// internal/core relies on.
package ranking

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// Direction states which way an attribute's values are preferred by a
// monotone ranking function.
type Direction int

const (
	// Asc means smaller attribute values are preferred (e.g. price).
	Asc Direction = 1
	// Desc means larger attribute values are preferred (e.g. carat).
	Desc Direction = -1
)

// String returns "asc" or "desc".
func (d Direction) String() string {
	if d == Desc {
		return "desc"
	}
	return "asc"
}

// Ranker is a monotone user-specified ranking function over a subset of the
// schema's ordinal attributes. Implementations must be monotone: Score must
// be nondecreasing in each attribute along its declared Direction's
// "worse" way (i.e. nondecreasing in axis coordinates).
type Ranker interface {
	// Attrs returns the schema indexes of the ordinal attributes the
	// function depends on, in a fixed order. The returned slice must not
	// be modified.
	Attrs() []int
	// Dir returns the preference direction of the j-th attribute of
	// Attrs().
	Dir(j int) Direction
	// Score returns the ranking score given the values of Attrs() in
	// order (real attribute values, not axis coordinates). Smaller is
	// better.
	Score(vals []float64) float64
	// Name returns a short description for logs and experiment output.
	Name() string
}

// ScoreTuple evaluates r on a full tuple by projecting the attributes the
// ranker uses.
func ScoreTuple(r Ranker, t types.Tuple) float64 {
	attrs := r.Attrs()
	vals := make([]float64, len(attrs))
	for j, a := range attrs {
		vals[j] = t.Ord[a]
	}
	return r.Score(vals)
}

// Linear is a weighted linear combination Σ w_j · A_{attrs[j]}. Weights may
// be negative; a negative weight simply means larger values are preferred on
// that attribute (Direction Desc).
type Linear struct {
	attrs   []int
	weights []float64
	name    string
}

// NewLinear builds a linear ranker. attrs and weights must have equal,
// non-zero length and weights must be non-zero (a zero weight would make the
// attribute irrelevant; drop it instead).
func NewLinear(name string, attrs []int, weights []float64) (*Linear, error) {
	if len(attrs) == 0 || len(attrs) != len(weights) {
		return nil, fmt.Errorf("linear ranker needs matching non-empty attrs/weights, got %d/%d", len(attrs), len(weights))
	}
	seen := map[int]bool{}
	for j, a := range attrs {
		if seen[a] {
			return nil, fmt.Errorf("attribute %d repeated", a)
		}
		seen[a] = true
		if weights[j] == 0 || math.IsNaN(weights[j]) || math.IsInf(weights[j], 0) {
			return nil, fmt.Errorf("weight %d must be finite and non-zero, got %g", j, weights[j])
		}
	}
	return &Linear{
		attrs:   append([]int(nil), attrs...),
		weights: append([]float64(nil), weights...),
		name:    name,
	}, nil
}

// MustLinear is NewLinear that panics on error.
func MustLinear(name string, attrs []int, weights []float64) *Linear {
	l, err := NewLinear(name, attrs, weights)
	if err != nil {
		panic(err)
	}
	return l
}

// Attrs implements Ranker.
func (l *Linear) Attrs() []int { return l.attrs }

// Dir implements Ranker: positive weight prefers small values.
func (l *Linear) Dir(j int) Direction {
	if l.weights[j] < 0 {
		return Desc
	}
	return Asc
}

// Weights returns the weight vector (not a copy; do not modify).
func (l *Linear) Weights() []float64 { return l.weights }

// Score implements Ranker.
func (l *Linear) Score(vals []float64) float64 {
	s := 0.0
	for j, v := range vals {
		s += l.weights[j] * v
	}
	return s
}

// Name implements Ranker.
func (l *Linear) Name() string { return l.name }

// Single ranks by one attribute only: ORDER BY A_attr ASC|DESC. It is the
// function class served by the paper's 1D algorithms.
type Single struct {
	attr int
	dir  Direction
	name string
}

// NewSingle builds a single-attribute ranker.
func NewSingle(name string, attr int, dir Direction) *Single {
	return &Single{attr: attr, dir: dir, name: name}
}

// Attrs implements Ranker.
func (s *Single) Attrs() []int { return []int{s.attr} }

// Dir implements Ranker.
func (s *Single) Dir(int) Direction { return s.dir }

// Score implements Ranker.
func (s *Single) Score(vals []float64) float64 { return float64(s.dir) * vals[0] }

// Name implements Ranker.
func (s *Single) Name() string { return s.name }

// Attr returns the single ranked attribute's schema index.
func (s *Single) Attr() int { return s.attr }

// Ratio ranks by Num/Den (e.g. price-per-carat, mileage-per-year). It is
// monotone on domains where the denominator is strictly positive: the score
// increases with Num and decreases with Den, so Dir(Num)=Asc, Dir(Den)=Desc.
// Callers must ensure den's domain is positive.
type Ratio struct {
	num, den int
	name     string
}

// NewRatio builds a ratio ranker over schema attribute indexes num and den.
func NewRatio(name string, num, den int) *Ratio {
	return &Ratio{num: num, den: den, name: name}
}

// Attrs implements Ranker.
func (r *Ratio) Attrs() []int { return []int{r.num, r.den} }

// Dir implements Ranker.
func (r *Ratio) Dir(j int) Direction {
	if j == 0 {
		return Asc
	}
	return Desc
}

// Score implements Ranker.
func (r *Ratio) Score(vals []float64) float64 {
	den := vals[1]
	if den == 0 {
		// Domains are required to exclude zero; defend anyway.
		den = math.SmallestNonzeroFloat64
	}
	return vals[0] / den
}

// Name implements Ranker.
func (r *Ratio) Name() string { return r.name }
