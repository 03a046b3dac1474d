package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func tuple(vals ...float64) types.Tuple {
	return types.Tuple{ID: 0, Ord: vals, Cat: map[string]string{"c": "x"}}
}

func TestQueryMatches(t *testing.T) {
	q := New().
		WithRange(0, types.ClosedInterval(1, 3)).
		WithRange(1, types.OpenInterval(0, 10)).
		WithCat("c", "x")
	cases := []struct {
		tp   types.Tuple
		want bool
	}{
		{tuple(2, 5), true},
		{tuple(0.5, 5), false},
		{tuple(2, 0), false},
		{tuple(3, 9.999), true},
	}
	for i, c := range cases {
		if q.Matches(c.tp) != c.want {
			t.Errorf("case %d: Matches = %v", i, !c.want)
		}
	}
	bad := tuple(2, 5)
	bad.Cat["c"] = "y"
	if q.Matches(bad) {
		t.Error("categorical mismatch accepted")
	}
	if q.NumPredicates() != 3 {
		t.Errorf("NumPredicates = %d", q.NumPredicates())
	}
}

// ref is a query held the way this package once held it, in two maps: the
// reference the sorted form is checked against.
type ref struct {
	ranges map[int]types.Interval
	cats   map[string]string
}

func newRef() ref { return ref{map[int]types.Interval{}, map[string]string{}} }

// query builds the Query holding r's predicates, adding them in map order.
func (r ref) query() Query {
	q := New()
	for a, iv := range r.ranges {
		q = q.WithRange(a, iv)
	}
	for n, v := range r.cats {
		q = q.WithCat(n, v)
	}
	return q
}

// matches is the map-based matcher Query.Matches must agree with.
func (r ref) matches(t types.Tuple) bool {
	for attr, iv := range r.ranges {
		if !iv.Contains(t.Ord[attr]) {
			return false
		}
	}
	for name, want := range r.cats {
		if t.Cat[name] != want {
			return false
		}
	}
	return true
}

// render is the original fmt-based rendering, which String must equal byte
// for byte: query strings are the probe-cache keys persisted inside
// checkpoints, so any format drift would silently invalidate warm-restart
// probe replay.
func (r ref) render() string {
	if len(r.ranges) == 0 && len(r.cats) == 0 {
		return "TRUE"
	}
	parts := make([]string, 0, len(r.ranges)+len(r.cats))
	attrs := make([]int, 0, len(r.ranges))
	for a := range r.ranges {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	for _, a := range attrs {
		parts = append(parts, fmt.Sprintf("A%d ∈ %s", a, r.ranges[a]))
	}
	names := make([]string, 0, len(r.cats))
	for n := range r.cats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s = %q", n, r.cats[n]))
	}
	return strings.Join(parts, " AND ")
}

// TestQueryMatchesReference: Query.Matches accepts exactly the tuples the
// map-based reference matcher accepts, over random queries with open and
// closed bounds, infinite bounds, bounds on a tuple's own values, and
// categorical predicates a tuple lacks the attribute for.
func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	vals := []float64{math.Inf(-1), -2, 0, 1, 1.5, 3, math.Inf(1)}
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	cats := []string{"", "x", "y"}
	seen := map[[2]bool]int{} // (matched, query had a categorical predicate)
	for i := 0; i < 4000; i++ {
		r := newRef()
		for attr := 0; attr < 3; attr++ {
			if rng.Intn(2) == 0 {
				lo, hi := pick(), pick()
				if lo > hi {
					lo, hi = hi, lo
				}
				r.ranges[attr] = types.Interval{Lo: lo, Hi: hi, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
			}
		}
		for _, name := range []string{"c", "d"} {
			if rng.Intn(3) == 0 {
				r.cats[name] = cats[rng.Intn(len(cats))]
			}
		}
		tp := types.Tuple{Ord: []float64{pick(), pick(), pick()}}
		if rng.Intn(4) > 0 {
			tp.Cat = map[string]string{}
			for _, name := range []string{"c", "d"} {
				if rng.Intn(3) > 0 { // else the tuple has no value for name
					tp.Cat[name] = cats[1+rng.Intn(2)]
				}
			}
		}
		q := r.query()
		want := r.matches(tp)
		if got := q.Matches(tp); got != want {
			t.Fatalf("query %s, tuple %v %v: Query.Matches %v, reference %v", q, tp.Ord, tp.Cat, got, want)
		}
		seen[[2]bool{want, len(r.cats) > 0}]++
	}
	for _, k := range [][2]bool{{true, false}, {true, true}, {false, false}, {false, true}} {
		if seen[k] == 0 {
			t.Fatalf("no case with matched=%v, categorical=%v: %v", k[0], k[1], seen)
		}
	}
}

// FuzzQueryCanonical: a query is a conjunction, so the order its predicates
// are added in never shows. The input decodes into WithRange and WithCat
// operations on distinct keys, applied forward and backward (and forward
// through AddRange): every build renders the reference string and matches
// the same tuples as the reference.
func FuzzQueryCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1})
	f.Add([]byte{10, 0x83, 5, 5, 2, 3, 7, 1, 1, 4, 0x86, 0x80, 9, 1, 2})
	vals := []float64{math.Inf(-1), -2, math.Copysign(0, -1), 0, 1, 1.5, 3, 1e17, math.NaN(), math.Inf(1)}
	names := []string{"c", "d", "make", "x y", `q"uote`, "uniçode"}
	values := []string{"", "x", "y", `he said "hi"`}
	tuples := []types.Tuple{
		{Ord: []float64{0, 1, 1.5, -2, 3, 0}, Cat: map[string]string{"c": "x", "d": "y", "make": ""}},
		{Ord: []float64{1, 1, 1, 1, 1, 1}, Cat: map[string]string{"c": "x", "x y": "x", `q"uote`: `he said "hi"`}},
		{Ord: []float64{-2, 3, 1e17, 0, -1, 1.5}},
		{Ord: []float64{math.Inf(1), math.Inf(-1), 0, 3, 1.5, -2}, Cat: map[string]string{"uniçode": "y", "c": ""}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			cat   bool
			attr  int
			iv    types.Interval
			name  string
			value string
		}
		var ops []op
		r := newRef()
		for ; len(data) >= 3; data = data[3:] {
			b, x, y := data[0], data[1], data[2]
			if b&1 == 0 {
				o := op{attr: int(b>>1) % 6, iv: types.Interval{
					Lo: vals[int(x&0x7f)%len(vals)], Hi: vals[int(y&0x7f)%len(vals)],
					LoOpen: x&0x80 != 0, HiOpen: y&0x80 != 0,
				}}
				if _, dup := r.ranges[o.attr]; dup {
					continue
				}
				r.ranges[o.attr] = o.iv
				ops = append(ops, o)
				continue
			}
			o := op{cat: true, name: names[int(b>>1)%len(names)], value: values[int(x)%len(values)]}
			if _, dup := r.cats[o.name]; dup {
				continue
			}
			r.cats[o.name] = o.value
			ops = append(ops, o)
		}
		build := func(order []op) Query {
			q := New()
			for _, o := range order {
				if o.cat {
					q = q.WithCat(o.name, o.value)
				} else {
					q = q.WithRange(o.attr, o.iv)
				}
			}
			return q
		}
		backward := slices.Clone(ops)
		slices.Reverse(backward)
		inPlace := New()
		for _, o := range ops {
			if o.cat {
				inPlace = inPlace.WithCat(o.name, o.value)
			} else {
				inPlace.AddRange(o.attr, o.iv)
			}
		}
		want := r.render()
		for _, q := range []Query{build(ops), build(backward), inPlace} {
			if got := q.String(); got != want {
				t.Fatalf("String %q, reference %q", got, want)
			}
			if q.NumPredicates() != len(ops) {
				t.Fatalf("%s: %d predicates, want %d", q, q.NumPredicates(), len(ops))
			}
			for _, tp := range tuples {
				if got, want := q.Matches(tp), r.matches(tp); got != want {
					t.Fatalf("%s on %v %v: Matches %v, reference %v", q, tp.Ord, tp.Cat, got, want)
				}
			}
		}
	})
}

func TestQueryCloneIsolation(t *testing.T) {
	q := New().WithRange(0, types.ClosedInterval(0, 1)).WithCat("c", "x")
	c := q.Clone()
	// [0,1] ∩ [-1,0.5] = [0,0.5]: a shared range would lose its Hi.
	c.AddRange(0, types.ClosedInterval(-1, 0.5))
	if iv, _ := q.Range(0); iv != types.ClosedInterval(0, 1) {
		t.Errorf("Clone shares ranges: q's range is %v", iv)
	}
	c.CopyFrom(New().WithCat("c", "y"))
	if v, _ := q.Cat("c"); v != "x" {
		t.Error("Clone shares categorical predicates")
	}

	// A base whose slices have spare capacity: queries derived from it must
	// not append into its backing arrays, where each would overwrite the
	// other's new predicate.
	var base Query
	base.CopyFrom(New().WithRange(1, types.ClosedInterval(0, 1)).WithRange(2, types.ClosedInterval(0, 1)).
		WithRange(3, types.ClosedInterval(0, 1)).WithCat("a", "1").WithCat("b", "2").WithCat("c", "3"))
	base.CopyFrom(New().WithRange(1, types.ClosedInterval(0, 1)).WithCat("a", "1"))
	if cap(base.ranges) == len(base.ranges) || cap(base.cats) == len(base.cats) {
		t.Fatalf("base has no spare capacity: ranges %d/%d, cats %d/%d",
			len(base.ranges), cap(base.ranges), len(base.cats), cap(base.cats))
	}
	r1 := base.WithRange(5, types.ClosedInterval(2, 3))
	r2 := base.WithRange(6, types.ClosedInterval(4, 5))
	c1 := base.WithCat("m", "p")
	c2 := base.WithCat("n", "q")
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{base, `A1 ∈ [0, 1] AND a = "1"`},
		{r1, `A1 ∈ [0, 1] AND A5 ∈ [2, 3] AND a = "1"`},
		{r2, `A1 ∈ [0, 1] AND A6 ∈ [4, 5] AND a = "1"`},
		{c1, `A1 ∈ [0, 1] AND a = "1" AND m = "p"`},
		{c2, `A1 ∈ [0, 1] AND a = "1" AND n = "q"`},
	} {
		if got := tc.q.String(); got != tc.want {
			t.Errorf("got %s, want %s", got, tc.want)
		}
	}
}

func TestWithRangeIntersects(t *testing.T) {
	q := New().WithRange(0, types.ClosedInterval(0, 10)).WithRange(0, types.ClosedInterval(5, 20))
	iv, _ := q.Range(0)
	if iv.Lo != 5 || iv.Hi != 10 {
		t.Errorf("stacked ranges = %v, want [5,10]", iv)
	}
	q2 := q.WithRange(0, types.ClosedInterval(11, 12))
	if !q2.Empty() {
		t.Error("contradictory ranges should yield Empty query")
	}
}

func TestQueryString(t *testing.T) {
	q := New().WithRange(1, types.OpenInterval(0, 1)).WithCat("b", "v").WithCat("a", "u")
	s := q.String()
	if !strings.Contains(s, "A1") || !strings.Contains(s, `"u"`) {
		t.Errorf("String = %q", s)
	}
	if New().String() != "TRUE" {
		t.Error("empty query should print TRUE")
	}
	// Deterministic ordering: categorical names sorted.
	if strings.Index(s, `"u"`) > strings.Index(s, `"v"`) {
		t.Errorf("cats not sorted: %q", s)
	}
}

func TestBoxBasics(t *testing.T) {
	b := Box{Dims: []types.Interval{types.FullInterval(), types.FullInterval()}}
	if b.Empty() || !b.Contains([]float64{1e12, -1e12}) || b.IsFinite() {
		t.Error("full box broken")
	}
	b.Dims[0] = types.ClosedInterval(0, 2)
	b.Dims[1] = types.ClosedInterval(1, 3)
	if !b.IsFinite() {
		t.Error("finite box reported infinite")
	}
	if got := b.String(); got != "[0, 2] × [1, 3]" {
		t.Errorf("String = %q", got)
	}
	inner := Box{Dims: []types.Interval{types.ClosedInterval(0.5, 1), types.ClosedInterval(2, 3)}}
	if !b.ContainsBox(inner) {
		t.Error("ContainsBox(inner) = false")
	}
	if inner.ContainsBox(b) {
		t.Error("inner contains outer?")
	}
	// Open-endpoint subtlety: [0,2] does not contain (…,2]'s closed end
	// reversed — an outer open end cannot cover an inner closed end.
	outer := Box{Dims: []types.Interval{{Lo: 0, Hi: 2, HiOpen: true}, types.ClosedInterval(1, 3)}}
	innerClosed := Box{Dims: []types.Interval{types.ClosedInterval(0, 2), types.ClosedInterval(1, 3)}}
	if outer.ContainsBox(innerClosed) {
		t.Error("open outer end must not cover closed inner end")
	}
}

// TestBoxIntersectProperty: box intersection is pointwise conjunction.
func TestBoxIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genBox := func(m int) Box {
		b := Box{Dims: make([]types.Interval, m)}
		for i := range b.Dims {
			lo := rng.Float64()*10 - 5
			b.Dims[i] = types.Interval{
				Lo: lo, Hi: lo + rng.Float64()*6 - 1,
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			}
		}
		return b
	}
	f := func(seed int64) bool {
		rng.Seed(seed)
		m := 1 + rng.Intn(3)
		a, b := genBox(m), genBox(m)
		x := a.Intersect(b)
		for trial := 0; trial < 40; trial++ {
			p := make([]float64, m)
			for i := range p {
				p[i] = rng.Float64()*12 - 6
			}
			if x.Contains(p) != (a.Contains(p) && b.Contains(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryStringFormatStable pins the strconv-based String against the
// original fmt-based rendering byte for byte across randomized queries.
func TestQueryStringFormatStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := []float64{0, 1, -1, 0.5, 1e-9, 1e17, 123456.789, math.Inf(-1), math.Inf(1), math.Pi}
	for trial := 0; trial < 500; trial++ {
		r := newRef()
		for a := 0; a < rng.Intn(4); a++ {
			r.ranges[rng.Intn(6)] = types.Interval{
				Lo: vals[rng.Intn(len(vals))], Hi: vals[rng.Intn(len(vals))],
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			}
		}
		for c := 0; c < rng.Intn(3); c++ {
			r.cats[[]string{"make", "color", "x y", `q"uote`}[rng.Intn(4)]] =
				[]string{"", "UA", `he said "hi"`, "uniçode"}[rng.Intn(4)]
		}
		if got, want := r.query().String(), r.render(); got != want {
			t.Fatalf("String drifted:\n got %q\nwant %q", got, want)
		}
	}
}
