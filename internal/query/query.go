// Package query models the "simplistic" conjunctive search queries that a
// client-server database accepts (§2.1 of the paper): range predicates on a
// subset of ordinal attributes plus equality predicates on categorical
// attributes. It also provides Box, the axis-aligned hyper-rectangle geometry
// used by the multi-dimensional reranking algorithms.
package query

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/types"
)

// Query is a conjunctive selection over a schema: at most one interval per
// ordinal attribute (missing means unconstrained) and equality predicates on
// categorical attributes.
type Query struct {
	// Ranges maps ordinal-attribute schema index -> interval constraint.
	Ranges map[int]types.Interval
	// Cats maps categorical attribute name -> required value.
	Cats map[string]string
}

// New returns an empty (match-all) query.
func New() Query {
	return Query{Ranges: map[int]types.Interval{}, Cats: map[string]string{}}
}

// Clone returns a deep copy of q.
func (q Query) Clone() Query {
	c := Query{
		Ranges: make(map[int]types.Interval, len(q.Ranges)),
		Cats:   make(map[string]string, len(q.Cats)),
	}
	for k, v := range q.Ranges {
		c.Ranges[k] = v
	}
	for k, v := range q.Cats {
		c.Cats[k] = v
	}
	return c
}

// WithRange returns a copy of q whose constraint on ordinal attribute attr is
// intersected with iv.
func (q Query) WithRange(attr int, iv types.Interval) Query {
	c := q.Clone()
	c.AddRange(attr, iv)
	return c
}

// AddRange intersects iv onto q's constraint on attr in place — the
// allocation-free counterpart of WithRange for callers that own q (e.g. a
// probe scratch buffer being rebuilt for every box).
func (q *Query) AddRange(attr int, iv types.Interval) {
	if old, ok := q.Ranges[attr]; ok {
		iv = old.Intersect(iv)
	}
	q.Ranges[attr] = iv
}

// CopyFrom resets q to a deep copy of src, reusing q's existing maps so a
// long-lived scratch query allocates nothing after warm-up.
func (q *Query) CopyFrom(src Query) {
	if q.Ranges == nil {
		q.Ranges = make(map[int]types.Interval, len(src.Ranges))
	} else {
		clear(q.Ranges)
	}
	if q.Cats == nil {
		q.Cats = make(map[string]string, len(src.Cats))
	} else {
		clear(q.Cats)
	}
	for k, v := range src.Ranges {
		q.Ranges[k] = v
	}
	for k, v := range src.Cats {
		q.Cats[k] = v
	}
}

// WithCat returns a copy of q with an added categorical equality predicate.
func (q Query) WithCat(name, value string) Query {
	c := q.Clone()
	c.Cats[name] = value
	return c
}

// Matches reports whether tuple t satisfies every predicate of q.
func (q Query) Matches(t types.Tuple) bool {
	for attr, iv := range q.Ranges {
		if !iv.Contains(t.Ord[attr]) {
			return false
		}
	}
	for name, want := range q.Cats {
		if t.Cat[name] != want {
			return false
		}
	}
	return true
}

// Compiled is a query's predicates held in two slices, ranges by ascending
// attribute and categorical predicates by name, for a caller that tests
// many tuples against one query: Matches walks the slices instead of
// ranging over the query's two maps for every tuple.
type Compiled struct {
	ranges []compiledRange
	cats   []compiledCat
}

type compiledRange struct {
	attr int
	iv   types.Interval
}

type compiledCat struct{ name, want string }

// Compile builds q's compiled form. It reads q once; later changes to q's
// maps do not reach it.
func (q Query) Compile() Compiled {
	c := Compiled{
		ranges: make([]compiledRange, 0, len(q.Ranges)),
		cats:   make([]compiledCat, 0, len(q.Cats)),
	}
	for attr, iv := range q.Ranges {
		c.ranges = append(c.ranges, compiledRange{attr, iv})
	}
	for name, want := range q.Cats {
		c.cats = append(c.cats, compiledCat{name, want})
	}
	sort.Slice(c.ranges, func(i, j int) bool { return c.ranges[i].attr < c.ranges[j].attr })
	sort.Slice(c.cats, func(i, j int) bool { return c.cats[i].name < c.cats[j].name })
	return c
}

// Matches reports what Query.Matches reports for the compiled query: a
// conjunction, so the order its terms are tested in changes nothing.
func (c Compiled) Matches(t types.Tuple) bool {
	for _, r := range c.ranges {
		if !r.iv.Contains(t.Ord[r.attr]) {
			return false
		}
	}
	for _, p := range c.cats {
		if t.Cat[p.name] != p.want {
			return false
		}
	}
	return true
}

// Empty reports whether the query is trivially unsatisfiable (some range is
// empty). A false return does not guarantee matching tuples exist.
func (q Query) Empty() bool {
	for _, iv := range q.Ranges {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// NumPredicates returns the total number of predicates.
func (q Query) NumPredicates() int { return len(q.Ranges) + len(q.Cats) }

// String renders the query as a WHERE-clause-like description. It is also
// the canonical probe-fact and singleflight key, built on every upstream
// probe — so it is assembled with strconv into one buffer (no fmt, no
// intermediate part strings) and its byte-level format must never change.
func (q Query) String() string {
	sc := keyScratch.Get().(*queryScratch)
	sc.buf = q.appendString(sc.buf[:0], sc)
	out := string(sc.buf)
	keyScratch.Put(sc)
	return out
}

// AppendString appends the canonical form String returns to dst — for
// callers that only look the key up and can do so from bytes they own,
// without allocating the string.
func (q Query) AppendString(dst []byte) []byte {
	sc := keyScratch.Get().(*queryScratch)
	dst = q.appendString(dst, sc)
	keyScratch.Put(sc)
	return dst
}

func (q Query) appendString(b []byte, sc *queryScratch) []byte {
	if len(q.Ranges) == 0 && len(q.Cats) == 0 {
		return append(b, "TRUE"...)
	}
	attrs := sc.attrs[:0]
	for a := range q.Ranges {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, 'A')
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, " ∈ "...)
		iv := q.Ranges[a]
		if iv.LoOpen {
			b = append(b, '(')
		} else {
			b = append(b, '[')
		}
		b = strconv.AppendFloat(b, iv.Lo, 'g', -1, 64)
		b = append(b, ", "...)
		b = strconv.AppendFloat(b, iv.Hi, 'g', -1, 64)
		if iv.HiOpen {
			b = append(b, ')')
		} else {
			b = append(b, ']')
		}
	}
	names := sc.names[:0]
	for n := range q.Cats {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 || len(attrs) > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, n...)
		b = append(b, " = "...)
		b = strconv.AppendQuote(b, q.Cats[n])
	}
	clear(names) // drop borrowed name strings before pooling
	sc.attrs, sc.names = attrs[:0], names[:0]
	return b
}

// queryScratch pools the buffers String needs, so building a probe key
// allocates only the key itself once the pool is warm.
type queryScratch struct {
	buf   []byte
	attrs []int
	names []string
}

var keyScratch = sync.Pool{New: func() any { return new(queryScratch) }}

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
