// Package query models the "simplistic" conjunctive search queries that a
// client-server database accepts (§2.1 of the paper): range predicates on a
// subset of ordinal attributes plus equality predicates on categorical
// attributes. It also provides Box, the axis-aligned hyper-rectangle geometry
// used by the multi-dimensional reranking algorithms.
package query

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/types"
)

// Query is a conjunctive selection over a schema: at most one interval per
// ordinal attribute (missing means unconstrained) and equality predicates on
// categorical attributes. It holds its ranges sorted by attribute and its
// categorical predicates sorted by name, so the order they were added in
// never shows: String, Matches and every reader walk them in one canonical
// order. The zero Query is the empty (match-all) query.
//
// WithRange and WithCat return a new query and leave q as it was. AddRange
// and CopyFrom change q in place and are for its owner only: a copy made by
// assignment shares q's storage.
type Query struct {
	ranges []Range // ascending Attr, one per attribute
	cats   []Cat   // ascending Name, one per name
}

// Range is one range predicate: ordinal attribute Attr (a schema index)
// lies in Iv.
type Range struct {
	Attr int
	Iv   types.Interval
}

// Cat is one categorical equality predicate: attribute Name equals Value.
type Cat struct{ Name, Value string }

// New returns an empty (match-all) query.
func New() Query { return Query{} }

// Clone returns a deep copy of q.
func (q Query) Clone() Query {
	return Query{ranges: slices.Clone(q.ranges), cats: slices.Clone(q.cats)}
}

// rangeAt returns the index of attr's range in q.ranges, or where it would
// be inserted, and whether q constrains attr.
func (q Query) rangeAt(attr int) (int, bool) {
	i := 0
	for i < len(q.ranges) && q.ranges[i].Attr < attr {
		i++
	}
	return i, i < len(q.ranges) && q.ranges[i].Attr == attr
}

// catAt is rangeAt for the categorical predicate on name.
func (q Query) catAt(name string) (int, bool) {
	i := 0
	for i < len(q.cats) && q.cats[i].Name < name {
		i++
	}
	return i, i < len(q.cats) && q.cats[i].Name == name
}

// Range returns q's interval on ordinal attribute attr, and whether q
// constrains attr.
func (q Query) Range(attr int) (types.Interval, bool) {
	if i, ok := q.rangeAt(attr); ok {
		return q.ranges[i].Iv, true
	}
	return types.Interval{}, false
}

// Cat returns the value q requires of categorical attribute name, and
// whether q requires one.
func (q Query) Cat(name string) (string, bool) {
	if i, ok := q.catAt(name); ok {
		return q.cats[i].Value, true
	}
	return "", false
}

// Ranges returns q's range predicates in ascending attribute order. The
// slice is q's own: read it, never write it.
func (q Query) Ranges() []Range { return q.ranges[:len(q.ranges):len(q.ranges)] }

// Cats returns q's categorical predicates in ascending name order. The
// slice is q's own: read it, never write it.
func (q Query) Cats() []Cat { return q.cats[:len(q.cats):len(q.cats)] }

// WithRange returns a copy of q whose constraint on ordinal attribute attr is
// intersected with iv.
func (q Query) WithRange(attr int, iv types.Interval) Query {
	c := Query{cats: slices.Clone(q.cats)}
	i, ok := q.rangeAt(attr)
	if ok {
		c.ranges = slices.Clone(q.ranges)
		c.ranges[i].Iv = c.ranges[i].Iv.Intersect(iv)
	} else {
		c.ranges = slices.Concat(q.ranges[:i], []Range{{attr, iv}}, q.ranges[i:])
	}
	return c
}

// AddRange intersects iv onto q's constraint on attr in place — the
// allocation-free counterpart of WithRange for callers that own q (e.g. a
// probe scratch buffer being rebuilt for every box).
func (q *Query) AddRange(attr int, iv types.Interval) {
	i, ok := q.rangeAt(attr)
	if ok {
		q.ranges[i].Iv = q.ranges[i].Iv.Intersect(iv)
		return
	}
	q.ranges = slices.Insert(q.ranges, i, Range{attr, iv})
}

// CopyFrom resets q to a copy of src, reusing q's storage so a long-lived
// scratch query allocates nothing after warm-up.
func (q *Query) CopyFrom(src Query) {
	q.ranges = append(q.ranges[:0], src.ranges...)
	q.cats = append(q.cats[:0], src.cats...)
}

// WithCat returns a copy of q whose categorical predicate on name requires
// value, in place of any it had.
func (q Query) WithCat(name, value string) Query {
	c := Query{ranges: slices.Clone(q.ranges)}
	i, ok := q.catAt(name)
	if ok {
		c.cats = slices.Clone(q.cats)
		c.cats[i].Value = value
	} else {
		c.cats = slices.Concat(q.cats[:i], []Cat{{name, value}}, q.cats[i:])
	}
	return c
}

// Matches reports whether tuple t satisfies every predicate of q.
func (q Query) Matches(t types.Tuple) bool {
	for _, r := range q.ranges {
		if !r.Iv.Contains(t.Ord[r.Attr]) {
			return false
		}
	}
	for _, c := range q.cats {
		if t.Cat[c.Name] != c.Value {
			return false
		}
	}
	return true
}

// Empty reports whether the query is trivially unsatisfiable (some range is
// empty). A false return does not guarantee matching tuples exist.
func (q Query) Empty() bool {
	for _, r := range q.ranges {
		if r.Iv.Empty() {
			return true
		}
	}
	return false
}

// NumPredicates returns the total number of predicates.
func (q Query) NumPredicates() int { return len(q.ranges) + len(q.cats) }

// String renders the query as a WHERE-clause-like description. It is also
// the canonical probe-fact and singleflight key, built on every upstream
// probe — so it is assembled with strconv into one pooled buffer (no fmt, no
// intermediate part strings) and its byte-level format must never change.
func (q Query) String() string {
	buf := keyBufs.Get().(*[]byte)
	*buf = q.AppendString((*buf)[:0])
	out := string(*buf)
	keyBufs.Put(buf)
	return out
}

// AppendString appends the canonical form String returns to dst — for
// callers that only look the key up and can do so from bytes they own,
// without allocating the string.
func (q Query) AppendString(b []byte) []byte {
	if len(q.ranges) == 0 && len(q.cats) == 0 {
		return append(b, "TRUE"...)
	}
	for i, r := range q.ranges {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, 'A')
		b = strconv.AppendInt(b, int64(r.Attr), 10)
		b = append(b, " ∈ "...)
		if r.Iv.LoOpen {
			b = append(b, '(')
		} else {
			b = append(b, '[')
		}
		b = strconv.AppendFloat(b, r.Iv.Lo, 'g', -1, 64)
		b = append(b, ", "...)
		b = strconv.AppendFloat(b, r.Iv.Hi, 'g', -1, 64)
		if r.Iv.HiOpen {
			b = append(b, ')')
		} else {
			b = append(b, ']')
		}
	}
	for i, c := range q.cats {
		if i > 0 || len(q.ranges) > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, c.Name...)
		b = append(b, " = "...)
		b = strconv.AppendQuote(b, c.Value)
	}
	return b
}

// keyBufs pools the buffer String renders into, so building a probe key
// allocates only the key itself once the pool is warm.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Box is an axis-aligned hyper-rectangle over a fixed list of ordinal
// attributes, expressed in *axis coordinates* (see package ranking: axis
// coordinates are oriented so that smaller is always better). Dims[i]
// constrains the i-th attribute of the owning searcher's attribute list.
type Box struct {
	Dims []types.Interval
}

// Clone returns a deep copy of b.
func (b Box) Clone() Box {
	return Box{Dims: append([]types.Interval(nil), b.Dims...)}
}

// Empty reports whether any dimension is empty.
func (b Box) Empty() bool {
	for _, iv := range b.Dims {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Contains reports whether axis point z lies inside the box.
func (b Box) Contains(z []float64) bool {
	for i, iv := range b.Dims {
		if !iv.Contains(z[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the dimension-wise intersection of two boxes.
func (b Box) Intersect(o Box) Box {
	r := b.Clone()
	for i := range r.Dims {
		r.Dims[i] = r.Dims[i].Intersect(o.Dims[i])
	}
	return r
}

// ContainsBox reports whether o is entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	for i, iv := range b.Dims {
		if !iv.Covers(o.Dims[i]) {
			return false
		}
	}
	return true
}

// String renders the box as a product of intervals.
func (b Box) String() string {
	parts := make([]string, len(b.Dims))
	for i, iv := range b.Dims {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " × ")
}

// IsFinite reports whether all dimensions are bounded.
func (b Box) IsFinite() bool {
	for _, iv := range b.Dims {
		if math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) {
			return false
		}
	}
	return true
}
