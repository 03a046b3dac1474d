package types

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDomain(t *testing.T) {
	d := Domain{Min: -5, Max: 10}
	if got := d.Width(); got != 15 {
		t.Errorf("Width = %g, want 15", got)
	}
	for _, tc := range []struct {
		v    float64
		in   bool
		want float64
	}{
		{-6, false, -5}, {-5, true, -5}, {0, true, 0}, {10, true, 10}, {11, false, 10},
	} {
		if d.Contains(tc.v) != tc.in {
			t.Errorf("Contains(%g) = %v", tc.v, !tc.in)
		}
		if got := d.Clamp(tc.v); got != tc.want {
			t.Errorf("Clamp(%g) = %g, want %g", tc.v, got, tc.want)
		}
	}
}

func TestDomainValidate(t *testing.T) {
	cases := []struct {
		d  Domain
		ok bool
	}{
		{Domain{Min: 0, Max: 1}, true},
		{Domain{Min: 1, Max: 0}, false},
		{Domain{Min: math.NaN(), Max: 1}, false},
		{Domain{Min: 0, Max: 1, Discrete: true}, false},
		{Domain{Min: 0, Max: 1, Discrete: true, Step: 0.1}, true},
	}
	for i, c := range cases {
		if err := c.d.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSchemaConstruction(t *testing.T) {
	if _, err := NewSchema([]Attribute{{Name: "", Kind: Ordinal}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema([]Attribute{
		{Name: "a", Kind: Ordinal, Domain: Domain{Max: 1}},
		{Name: "a", Kind: Categorical},
	}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewSchema([]Attribute{{Name: "a", Kind: Ordinal, Domain: Domain{Min: 2, Max: 1}}}); err == nil {
		t.Error("invalid domain accepted")
	}
	s := MustSchema([]Attribute{
		{Name: "x", Kind: Ordinal, Domain: Domain{Max: 1}},
		{Name: "c", Kind: Categorical, Values: []string{"a"}},
		{Name: "y", Kind: Ordinal, Domain: Domain{Max: 2}},
	})
	if s.Len() != 3 || s.NumOrdinal() != 2 {
		t.Fatalf("Len=%d NumOrdinal=%d", s.Len(), s.NumOrdinal())
	}
	if got := s.OrdinalIndexes(); got[0] != 0 || got[1] != 2 {
		t.Errorf("OrdinalIndexes = %v", got)
	}
	if s.Index("y") != 2 || s.Index("nope") != -1 {
		t.Errorf("Index lookup broken")
	}
	if names := s.Names(); names[1] != "c" {
		t.Errorf("Names = %v", names)
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{ID: 1, Ord: []float64{1, 2}, Cat: map[string]string{"k": "v"}}
	b := a.Clone()
	b.Ord[0] = 99
	b.Cat["k"] = "w"
	if a.Ord[0] != 1 || a.Cat["k"] != "v" {
		t.Error("Clone shares storage with original")
	}
	if a.String() == "" {
		t.Error("String is empty")
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := OpenInterval(1, 3)
	for _, tc := range []struct {
		v  float64
		in bool
	}{{0.9, false}, {1, false}, {2, true}, {3, false}, {3.1, false}} {
		if iv.Contains(tc.v) != tc.in {
			t.Errorf("(1,3).Contains(%g) = %v", tc.v, !tc.in)
		}
	}
	cv := ClosedInterval(1, 3)
	if !cv.Contains(1) || !cv.Contains(3) {
		t.Error("[1,3] must contain endpoints")
	}
	if !OpenInterval(2, 2).Empty() || ClosedInterval(2, 2).Empty() {
		t.Error("degenerate emptiness wrong")
	}
	if ClosedInterval(3, 2).Empty() != true {
		t.Error("inverted interval not empty")
	}
	full := FullInterval()
	if !full.Unbounded() || !full.Contains(1e300) {
		t.Error("FullInterval broken")
	}
	if s := (Interval{Lo: 1, Hi: 2, LoOpen: true}).String(); s != "(1, 2]" {
		t.Errorf("String = %q", s)
	}
}

// TestIntervalIntersectProperty: membership in the intersection equals
// conjunction of memberships (property-based, testing/quick).
func TestIntervalIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Interval {
		lo := rng.Float64()*20 - 10
		return Interval{
			Lo: lo, Hi: lo + rng.Float64()*10 - 2,
			LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
		}
	}
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := gen(), gen()
		x := a.Intersect(b)
		for i := 0; i < 50; i++ {
			v := rng.Float64()*24 - 12
			if x.Contains(v) != (a.Contains(v) && b.Contains(v)) {
				t.Logf("a=%v b=%v x=%v v=%g", a, b, x, v)
				return false
			}
		}
		// Emptiness must agree with containment over a dense probe.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalIntersectEndpoints pins down open/closed endpoint merging.
func TestIntervalIntersectEndpoints(t *testing.T) {
	a := Interval{Lo: 0, Hi: 5}                             // [0,5]
	b := Interval{Lo: 0, Hi: 5, LoOpen: true, HiOpen: true} // (0,5)
	x := a.Intersect(b)
	if !x.LoOpen || !x.HiOpen {
		t.Errorf("intersection should keep the stricter (open) endpoints: %v", x)
	}
	y := a.Intersect(ClosedInterval(2, 7))
	if y.Lo != 2 || y.Hi != 5 || y.LoOpen || y.HiOpen {
		t.Errorf("[0,5] ∩ [2,7] = %v, want [2,5]", y)
	}
}

// TestStringFormatStable pins the strconv-based Tuple.String and
// Interval.String against the original fmt-based renderings byte for byte
// (interval strings feed the canonical query keys checkpoints persist).
func TestStringFormatStable(t *testing.T) {
	ivs := []Interval{
		{Lo: 0, Hi: 1},
		{Lo: -1.5, Hi: 2.25, LoOpen: true},
		{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true},
		{Lo: 1e-9, Hi: 1e17, HiOpen: true},
		{Lo: math.Pi, Hi: 123456.789},
	}
	for _, iv := range ivs {
		lb, rb := "[", "]"
		if iv.LoOpen {
			lb = "("
		}
		if iv.HiOpen {
			rb = ")"
		}
		want := fmt.Sprintf("%s%g, %g%s", lb, iv.Lo, iv.Hi, rb)
		if got := iv.String(); got != want {
			t.Fatalf("Interval.String drifted: got %q want %q", got, want)
		}
	}

	tuples := []Tuple{
		{ID: 7, Ord: []float64{1, 2.5, 123456.789}},
		{ID: -3, Ord: []float64{math.Pi}, Cat: map[string]string{"b": "two", "a": "one"}},
		{ID: 0},
	}
	for _, tp := range tuples {
		var b strings.Builder
		fmt.Fprintf(&b, "t#%d[", tp.ID)
		for i, v := range tp.Ord {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", v)
		}
		if len(tp.Cat) > 0 {
			keys := make([]string, 0, len(tp.Cat))
			for k := range tp.Cat {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, tp.Cat[k])
			}
		}
		b.WriteByte(']')
		if got, want := tp.String(), b.String(); got != want {
			t.Fatalf("Tuple.String drifted: got %q want %q", got, want)
		}
	}
}
