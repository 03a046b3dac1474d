// Package types defines the fundamental data model shared by every other
// package in the repository: attributes, value domains, schemas, and tuples.
//
// The model follows §2.1 of "Query Reranking As A Service" (Asudeh, Zhang,
// Das; VLDB 2016): a client-server database D holds n tuples over m ordinal
// (numeric, rankable) attributes A1..Am plus any number of categorical
// attributes B1..Bm' that can appear in selection conditions but never in a
// ranking function.
package types

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Kind distinguishes ordinal (numeric, rankable) attributes from categorical
// (filter-only) attributes.
type Kind int

const (
	// Ordinal attributes carry numeric values, support range predicates,
	// and may participate in ranking functions.
	Ordinal Kind = iota
	// Categorical attributes carry small discrete values addressed by
	// equality (point) predicates only.
	Categorical
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Ordinal:
		return "ordinal"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Domain describes the value domain V(Ai) of an ordinal attribute.
// For discrete domains, values are Min, Min+Step, ..., Max.
type Domain struct {
	Min      float64
	Max      float64
	Discrete bool    // true if the domain is a finite grid
	Step     float64 // grid step when Discrete (0 means continuous)
}

// Width returns |V(Ai)| = Max - Min, the extent of the domain.
func (d Domain) Width() float64 { return d.Max - d.Min }

// Contains reports whether v lies within the closed domain bounds.
func (d Domain) Contains(v float64) bool { return v >= d.Min && v <= d.Max }

// Clamp returns v restricted to the closed domain bounds.
func (d Domain) Clamp(v float64) float64 {
	if v < d.Min {
		return d.Min
	}
	if v > d.Max {
		return d.Max
	}
	return v
}

// Validate reports an error when the domain is malformed.
func (d Domain) Validate() error {
	if math.IsNaN(d.Min) || math.IsNaN(d.Max) {
		return fmt.Errorf("domain bounds must not be NaN")
	}
	if d.Min > d.Max {
		return fmt.Errorf("domain min %g exceeds max %g", d.Min, d.Max)
	}
	if d.Discrete && d.Step <= 0 {
		return fmt.Errorf("discrete domain requires positive step, got %g", d.Step)
	}
	return nil
}

// Attribute describes one column of a schema.
type Attribute struct {
	Name   string
	Kind   Kind
	Domain Domain   // meaningful for Ordinal attributes
	Values []string // enumeration for Categorical attributes
}

// Schema describes the attributes of a database. Ordinal attribute order is
// significant: algorithms address ordinal attributes by index.
type Schema struct {
	attrs   []Attribute
	byName  map[string]int
	ordinal []int // indexes of ordinal attributes, in declaration order
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs []Attribute) (*Schema, error) {
	s := &Schema{
		attrs:  append([]Attribute(nil), attrs...),
		byName: make(map[string]int, len(attrs)),
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("duplicate attribute name %q", a.Name)
		}
		s.byName[a.Name] = i
		if a.Kind == Ordinal {
			if err := a.Domain.Validate(); err != nil {
				return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
			}
			s.ordinal = append(s.ordinal, i)
		}
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// statically-known schemas.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the total number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// NumOrdinal returns the number of ordinal attributes.
func (s *Schema) NumOrdinal() int { return len(s.ordinal) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// OrdinalIndexes returns the positions of the ordinal attributes in
// declaration order. The returned slice must not be modified.
func (s *Schema) OrdinalIndexes() []int { return s.ordinal }

// Index returns the position of the named attribute, or -1 when absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Domain returns the domain of the ordinal attribute at position i.
func (s *Schema) Domain(i int) Domain { return s.attrs[i].Domain }

// Names returns the attribute names in declaration order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Tuple is one database row. Ordinal values are indexed by attribute
// position; categorical values by attribute position as small strings.
// ID is a stable identifier unique within a database; algorithms use it for
// deduplication, never for ranking.
type Tuple struct {
	ID  int
	Ord []float64         // ordinal values, indexed by schema position of ordinal attrs
	Cat map[string]string // categorical values keyed by attribute name
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := Tuple{ID: t.ID, Ord: append([]float64(nil), t.Ord...)}
	if t.Cat != nil {
		c.Cat = make(map[string]string, len(t.Cat))
		for k, v := range t.Cat {
			c.Cat[k] = v
		}
	}
	return c
}

// Equal reports whether two tuples carry the same ID and the same attribute
// values (slice and map identity do not matter). Two NaN values count as
// equal, so a tuple always equals its own copy.
func (t Tuple) Equal(o Tuple) bool {
	if t.ID != o.ID || len(t.Ord) != len(o.Ord) || len(t.Cat) != len(o.Cat) {
		return false
	}
	for i, x := range t.Ord {
		if y := o.Ord[i]; x != y && (x == x || y == y) {
			return false
		}
	}
	for k, v := range t.Cat {
		if ov, ok := o.Cat[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// stringScratch pools the builder and categorical-key slice used by
// Tuple.String, which shows up in stream-encode profiles: rendering a tuple
// allocates only the returned string once the pool is warm.
var stringScratch = sync.Pool{New: func() any { return new(tupleScratch) }}

type tupleScratch struct {
	buf  []byte
	keys []string
}

// String renders the tuple compactly for logs and error messages.
func (t Tuple) String() string {
	sc := stringScratch.Get().(*tupleScratch)
	b := sc.buf[:0]
	b = append(b, "t#"...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, '[')
	for i, v := range t.Ord {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, v, 'g', 4, 64)
	}
	if len(t.Cat) > 0 {
		keys := sc.keys[:0]
		for k := range t.Cat {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, ' ')
			b = append(b, k...)
			b = append(b, '=')
			b = append(b, t.Cat[k]...)
		}
		// Drop the borrowed key strings before pooling: a retained map key
		// would keep its tuple's categorical strings alive arbitrarily long.
		clear(keys)
		sc.keys = keys[:0]
	}
	b = append(b, ']')
	out := string(b)
	sc.buf = b[:0]
	stringScratch.Put(sc)
	return out
}

// Interval is a one-dimensional range with independently open or closed
// endpoints. Lo may be -Inf and Hi may be +Inf to express unbounded sides.
// The zero value is the empty open interval (0,0).
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// FullInterval returns the unbounded interval (-Inf, +Inf).
func FullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true}
}

// OpenInterval returns the open interval (lo, hi).
func OpenInterval(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true}
}

// ClosedInterval returns the closed interval [lo, hi].
func ClosedInterval(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi}
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (v == iv.Lo && iv.LoOpen) {
		return false
	}
	if v > iv.Hi || (v == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// Empty reports whether no real value can satisfy the interval.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen) {
		return true
	}
	return false
}

// Width returns Hi - Lo (which may be +Inf).
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	r := iv
	if o.Lo > r.Lo || (o.Lo == r.Lo && o.LoOpen) {
		r.Lo, r.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi < r.Hi || (o.Hi == r.Hi && o.HiOpen) {
		r.Hi, r.HiOpen = o.Hi, o.HiOpen
	}
	return r
}

// Covers reports whether o lies entirely inside iv, comparing bounds only:
// an empty o whose bounds stick out is reported as not covered.
func (iv Interval) Covers(o Interval) bool {
	if o.Lo < iv.Lo || (o.Lo == iv.Lo && iv.LoOpen && !o.LoOpen) {
		return false
	}
	if o.Hi > iv.Hi || (o.Hi == iv.Hi && iv.HiOpen && !o.HiOpen) {
		return false
	}
	return true
}

// Unbounded reports whether either side is infinite.
func (iv Interval) Unbounded() bool {
	return math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1)
}

// String renders the interval using standard open/closed bracket notation.
// The rendering is byte-identical to the previous fmt-based version
// (strconv's 'g' formatting matches %g exactly, including ±Inf and NaN):
// interval strings feed the canonical query keys that checkpoints persist, so
// the format is load-bearing, not cosmetic.
func (iv Interval) String() string {
	b := make([]byte, 0, 24)
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
	return string(b)
}
