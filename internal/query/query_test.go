package query

import (
	"fmt"
	"math"
	"math/rand"
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

// TestCompiledMatchesQuery: the compiled form accepts exactly the tuples
// Query.Matches accepts, over random queries with open and closed bounds,
// infinite bounds, bounds on a tuple's own values, and categorical
// predicates a tuple lacks the attribute for.
func TestCompiledMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	vals := []float64{math.Inf(-1), -2, 0, 1, 1.5, 3, math.Inf(1)}
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	cats := []string{"", "x", "y"}
	seen := map[[2]bool]int{} // (matched, query had a categorical predicate)
	for i := 0; i < 4000; i++ {
		q := New()
		for attr := 0; attr < 3; attr++ {
			if rng.Intn(2) == 0 {
				lo, hi := pick(), pick()
				if lo > hi {
					lo, hi = hi, lo
				}
				q.Ranges[attr] = types.Interval{Lo: lo, Hi: hi, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
			}
		}
		for _, name := range []string{"c", "d"} {
			if rng.Intn(3) == 0 {
				q.Cats[name] = cats[rng.Intn(len(cats))]
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
		want := q.Matches(tp)
		if got := q.Compile().Matches(tp); got != want {
			t.Fatalf("query %s, tuple %v %v: compiled match %v, Query.Matches %v", q, tp.Ord, tp.Cat, got, want)
		}
		seen[[2]bool{want, len(q.Cats) > 0}]++
	}
	for _, k := range [][2]bool{{true, false}, {true, true}, {false, false}, {false, true}} {
		if seen[k] == 0 {
			t.Fatalf("no case with matched=%v, categorical=%v: %v", k[0], k[1], seen)
		}
	}
	// The compiled form is a copy: changing the query afterwards does not
	// reach it.
	q := New().WithRange(0, types.ClosedInterval(0, 1))
	c := q.Compile()
	q.Ranges[0] = types.ClosedInterval(5, 6)
	if !c.Matches(types.Tuple{Ord: []float64{0.5}}) {
		t.Fatal("compiled query changed with its source")
	}
}

func TestQueryCloneIsolation(t *testing.T) {
	q := New().WithRange(0, types.ClosedInterval(0, 1)).WithCat("c", "x")
	c := q.Clone()
	c.Ranges[0] = types.ClosedInterval(5, 6)
	c.Cats["c"] = "y"
	if q.Ranges[0].Hi != 1 || q.Cats["c"] != "x" {
		t.Error("Clone shares maps")
	}
}

func TestWithRangeIntersects(t *testing.T) {
	q := New().WithRange(0, types.ClosedInterval(0, 10)).WithRange(0, types.ClosedInterval(5, 20))
	iv := q.Ranges[0]
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
// Query strings are the probe-cache keys persisted inside checkpoints, so any
// format drift would silently invalidate warm-restart probe replay.
func TestQueryStringFormatStable(t *testing.T) {
	reference := func(q Query) string {
		if len(q.Ranges) == 0 && len(q.Cats) == 0 {
			return "TRUE"
		}
		parts := make([]string, 0, len(q.Ranges)+len(q.Cats))
		attrs := make([]int, 0, len(q.Ranges))
		for a := range q.Ranges {
			attrs = append(attrs, a)
		}
		sort.Ints(attrs)
		for _, a := range attrs {
			parts = append(parts, fmt.Sprintf("A%d ∈ %s", a, q.Ranges[a]))
		}
		names := make([]string, 0, len(q.Cats))
		for n := range q.Cats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s = %q", n, q.Cats[n]))
		}
		return strings.Join(parts, " AND ")
	}

	rng := rand.New(rand.NewSource(42))
	vals := []float64{0, 1, -1, 0.5, 1e-9, 1e17, 123456.789, math.Inf(-1), math.Inf(1), math.Pi}
	for trial := 0; trial < 500; trial++ {
		q := New()
		for a := 0; a < rng.Intn(4); a++ {
			q.Ranges[rng.Intn(6)] = types.Interval{
				Lo: vals[rng.Intn(len(vals))], Hi: vals[rng.Intn(len(vals))],
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			}
		}
		for c := 0; c < rng.Intn(3); c++ {
			q.Cats[[]string{"make", "color", "x y", `q"uote`}[rng.Intn(4)]] =
				[]string{"", "UA", `he said "hi"`, "uniçode"}[rng.Intn(4)]
		}
		if got, want := q.String(), reference(q); got != want {
			t.Fatalf("String drifted:\n got %q\nwant %q", got, want)
		}
	}
}
