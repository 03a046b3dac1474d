package ranking

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/types"
)

func schema2() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 50}},
		{Name: "c", Kind: types.Ordinal, Domain: types.Domain{Min: 1, Max: 10}},
	})
}

func TestLinearValidation(t *testing.T) {
	if _, err := NewLinear("x", []int{0}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewLinear("x", []int{0, 0}, []float64{1, 2}); err == nil {
		t.Error("duplicate attr accepted")
	}
	if _, err := NewLinear("x", []int{0}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewLinear("x", nil, nil); err == nil {
		t.Error("empty ranker accepted")
	}
	l := MustLinear("s", []int{0, 1}, []float64{2, -3})
	if l.Dir(0) != Asc || l.Dir(1) != Desc {
		t.Error("directions wrong")
	}
	if got := l.Score([]float64{1, 1}); got != -1 {
		t.Errorf("Score = %g", got)
	}
	if l.Name() != "s" {
		t.Error("Name wrong")
	}
}

func TestSingleAndRatio(t *testing.T) {
	s := NewSingle("s", 1, Desc)
	if s.Score([]float64{7}) != -7 || s.Attrs()[0] != 1 || s.Attr() != 1 {
		t.Error("Single broken")
	}
	r := NewRatio("r", 0, 2)
	if got := r.Score([]float64{10, 2}); got != 5 {
		t.Errorf("Ratio = %g", got)
	}
	if r.Dir(0) != Asc || r.Dir(1) != Desc {
		t.Error("Ratio directions wrong")
	}
	if r.Name() != "r" || Asc.String() != "asc" || Desc.String() != "desc" {
		t.Errorf("names: ratio %q, directions %q/%q", r.Name(), Asc, Desc)
	}
}

// TestMonotonicityProperty: every shipped ranker must satisfy the §2.2
// monotonicity requirement — improving any coordinate along its declared
// direction never worsens the score.
func TestMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rankers := []Ranker{
		MustLinear("l", []int{0, 1, 2}, []float64{1, -2, 0.5}),
		NewSingle("s", 1, Desc),
		NewRatio("r", 0, 2),
	}
	f := func(seed int64) bool {
		rng.Seed(seed)
		for _, r := range rankers {
			m := len(r.Attrs())
			v := make([]float64, m)
			for j := range v {
				v[j] = 1 + rng.Float64()*9 // keep ratio denominators positive
			}
			s0 := r.Score(v)
			j := rng.Intn(m)
			w := append([]float64(nil), v...)
			delta := rng.Float64() * 3
			// Move coordinate j toward "better" per its direction.
			w[j] -= float64(r.Dir(j)) * delta
			if w[j] <= 0 {
				continue
			}
			if r.Score(w) > s0+1e-12 {
				t.Logf("%s: improving attr %d worsened score: %v->%v", r.Name(), j, v, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAxisTransforms(t *testing.T) {
	s := schema2()
	r := MustLinear("l", []int{0, 1}, []float64{1, -1}) // prefer small a, large b
	ax := NewAxis(r, s)
	if ax.M() != 2 {
		t.Fatal("M wrong")
	}
	tp := types.Tuple{Ord: []float64{10, 20, 0}}
	z := ax.ToAxis(tp)
	if z[0] != 10 || z[1] != -20 {
		t.Errorf("ToAxis = %v", z)
	}
	if got := ax.ScoreAxis(z); math.Abs(got-ScoreTuple(r, tp)) > 1e-12 {
		t.Errorf("ScoreAxis = %g, want %g", got, ScoreTuple(r, tp))
	}
	// Axis domain of the Desc attribute b∈[0,50] is [-50, 0].
	if ax.Lo()[1] != -50 || ax.Hi()[1] != 0 {
		t.Errorf("axis domain = [%g,%g]", ax.Lo()[1], ax.Hi()[1])
	}
	// Interval round-trip: AxisInterval is an involution.
	iv := types.Interval{Lo: 5, Hi: 30, LoOpen: true}
	back := ax.RealInterval(1, ax.AxisInterval(1, iv))
	if back != iv {
		t.Errorf("interval round-trip: %v -> %v", iv, back)
	}
}

func TestBoxToQueryRoundTrip(t *testing.T) {
	s := schema2()
	r := MustLinear("l", []int{0, 1}, []float64{1, -1})
	ax := NewAxis(r, s)
	base := query.New()
	b := ax.DomainBox()
	b.Dims[0] = types.ClosedInterval(2, 7)   // a ∈ [2,7]
	b.Dims[1] = types.ClosedInterval(-30, 0) // b ∈ [0,30] in real space
	q := ax.BoxToQuery(base, b)
	if iv, _ := q.Range(0); iv.Lo != 2 || iv.Hi != 7 {
		t.Errorf("range a = %v", iv)
	}
	if iv, _ := q.Range(1); iv.Lo != 0 || iv.Hi != 30 {
		t.Errorf("range b = %v (desc flip broken)", iv)
	}
	// QueryToBox must invert BoxToQuery within the domain box.
	b2 := ax.QueryToBox(q)
	for j := range b.Dims {
		if b2.Dims[j].Lo != b.Dims[j].Lo || b2.Dims[j].Hi != b.Dims[j].Hi {
			t.Errorf("dim %d: %v -> %v", j, b.Dims[j], b2.Dims[j])
		}
	}
}

// TestContourMaxProperty: ContourMax returns the largest coordinate still
// compatible with beating θ; any point beyond it (others at the corner)
// must score above θ, any point at/below it at the corner scores ≤ θ.
func TestContourMaxProperty(t *testing.T) {
	s := schema2()
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		rng.Seed(seed)
		r := MustLinear("l", []int{0, 1, 2}, []float64{
			0.2 + rng.Float64(), -(0.2 + rng.Float64()), 0.2 + rng.Float64(),
		})
		ax := NewAxis(r, s)
		b := ax.DomainBox()
		theta := ax.ScoreAxis([]float64{
			b.Dims[0].Lo + rng.Float64()*(b.Dims[0].Hi-b.Dims[0].Lo),
			b.Dims[1].Lo + rng.Float64()*(b.Dims[1].Hi-b.Dims[1].Lo),
			b.Dims[2].Lo + rng.Float64()*(b.Dims[2].Hi-b.Dims[2].Lo),
		})
		for dim := 0; dim < 3; dim++ {
			v, ok := ax.ContourMax(b, dim, theta)
			corner := []float64{b.Dims[0].Lo, b.Dims[1].Lo, b.Dims[2].Lo}
			if !ok {
				// Even the best corner exceeds θ.
				if ax.ScoreAxis(corner) <= theta {
					return false
				}
				continue
			}
			at := append([]float64(nil), corner...)
			at[dim] = v
			if ax.ScoreAxis(at) > theta+1e-6 {
				return false
			}
			if v < b.Dims[dim].Hi {
				at[dim] = v + (b.Dims[dim].Hi-v)*0.01
				if ax.ScoreAxis(at) <= theta-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTightenSoundness: no point of the original box scoring strictly below
// θ may fall outside the tightened box.
func TestTightenSoundness(t *testing.T) {
	s := schema2()
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		rng.Seed(seed)
		r := MustLinear("l", []int{0, 1}, []float64{0.1 + rng.Float64(), 0.1 + rng.Float64()})
		ax := NewAxis(r, s)
		b := ax.DomainBox()
		theta := ax.ScoreAxis([]float64{rng.Float64() * 100, rng.Float64() * 50})
		tb, ok := ax.Tighten(b, theta)
		for trial := 0; trial < 60; trial++ {
			p := []float64{rng.Float64() * 100, rng.Float64() * 50}
			if ax.ScoreAxis(p) < theta-1e-9 && b.Contains(p) {
				if !ok || !tb.Contains(p) {
					t.Logf("lost point %v scoring %g < θ=%g (tb=%v ok=%v)", p, ax.ScoreAxis(p), theta, tb, ok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTupleOnContour: the virtual tuple must score ≥ θ (soundness of
// anti-dominance pruning) and lie inside the box.
func TestVirtualTupleOnContour(t *testing.T) {
	s := schema2()
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		rng.Seed(seed)
		w := []float64{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}
		if rng.Intn(2) == 0 {
			w[1] = -w[1]
		}
		r := MustLinear("l", []int{0, 1, 2}, w)
		ax := NewAxis(r, s)
		b := ax.DomainBox()
		lo, hi := ax.Lo(), ax.Hi()
		mid := make([]float64, 3)
		for j := range mid {
			mid[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		theta := ax.ScoreAxis(mid)
		vp, ok := ax.VirtualTuple(b, theta)
		if !ok {
			return true // box cannot straddle θ; nothing to check
		}
		if ax.ScoreAxis(vp) < theta-1e-6 {
			t.Logf("S(v')=%g < θ=%g", ax.ScoreAxis(vp), theta)
			return false
		}
		for j := range vp {
			if vp[j] < lo[j]-1e-9 || vp[j] > hi[j]+1e-9 {
				t.Logf("v' outside box: %v", vp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreTuple(t *testing.T) {
	r := MustLinear("l", []int{2, 0}, []float64{1, 10})
	tp := types.Tuple{Ord: []float64{3, 99, 5}}
	if got := ScoreTuple(r, tp); got != 35 {
		t.Errorf("ScoreTuple = %g, want 35", got)
	}
}
