package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

// linearMD is the pre-grid DenseMD reference: the same Insert semantics
// (absorb contained regions) with a plain linear-scan Lookup. The property
// tests cross-check the centroid grid against it.
type linearMD struct {
	regions []Region
}

func (l *linearMD) Insert(box query.Box, rows []uint32) {
	kept := l.regions[:0]
	for _, r := range l.regions {
		if box.ContainsBox(r.Box) {
			continue
		}
		kept = append(kept, r)
	}
	l.regions = append(kept, Region{Box: box, Rows: rows})
}

func (l *linearMD) Lookup(box query.Box) (Region, bool) {
	for _, r := range l.regions {
		if r.Box.ContainsBox(box) {
			return r, true
		}
	}
	return Region{}, false
}

// randBox generates a random finite box: usually small, sometimes
// point-sized on one or all dimensions, occasionally large (an absorber).
func randBox(rng *rand.Rand, m int) query.Box {
	b := query.Box{Dims: make([]types.Interval, m)}
	kind := rng.Intn(10)
	for j := 0; j < m; j++ {
		lo := rng.Float64() * 100
		var w float64
		switch {
		case kind == 0: // point region
			w = 0
		case kind == 1: // large absorber
			w = 5 + rng.Float64()*20
		default: // typical dense region
			w = rng.Float64() * 2
		}
		b.Dims[j] = types.Interval{
			Lo: lo, Hi: lo + w,
			LoOpen: w > 0 && rng.Intn(4) == 0,
			HiOpen: w > 0 && rng.Intn(4) == 0,
		}
	}
	return b
}

// subBoxOf returns a random box inside b (possibly b itself or a point).
func subBoxOf(rng *rand.Rand, b query.Box) query.Box {
	s := b.Clone()
	if rng.Intn(3) == 0 {
		return s
	}
	for j, iv := range s.Dims {
		w := iv.Hi - iv.Lo
		lo := iv.Lo + rng.Float64()*w/2
		hi := iv.Hi - rng.Float64()*w/2
		if hi < lo {
			lo, hi = hi, lo
		}
		s.Dims[j] = types.Interval{Lo: lo, Hi: hi}
		if iv.LoOpen && lo == iv.Lo {
			s.Dims[j].LoOpen = true
		}
		if iv.HiOpen && hi == iv.Hi {
			s.Dims[j].HiOpen = true
		}
	}
	return s
}

// TestDenseMDGridCrossCheck inserts randomized region streams — overlapping,
// nested, point-sized, and occasionally absorbing — into the grid index and
// the linear reference, and checks after every insert that lookups agree on
// hit/miss for guaranteed-inside boxes, random boxes, and regions inserted
// earlier (coverage monotonicity).
func TestDenseMDGridCrossCheck(t *testing.T) {
	for _, m := range []int{2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			d := NewDenseMD()
			ref := &linearMD{}
			var inserted []query.Box
			for step := 0; step < 120; step++ {
				box := randBox(rng, m)
				rows := []uint32{uint32(step)}
				d.Insert(box, rows, FirstEpoch)
				ref.Insert(box, rows)
				inserted = append(inserted, box)

				check := func(q query.Box, what string) {
					t.Helper()
					got, gok := d.Lookup(q)
					_, wok := ref.Lookup(q)
					if gok != wok {
						t.Fatalf("m=%d seed=%d step=%d %s: grid found=%v, linear found=%v (box %v)",
							m, seed, step, what, gok, wok, q)
					}
					if gok && !got.Box.ContainsBox(q) {
						t.Fatalf("m=%d seed=%d step=%d %s: grid returned non-covering region %v for %v",
							m, seed, step, what, got.Box, q)
					}
				}
				// A sub-box of the just-inserted region must hit.
				check(subBoxOf(rng, box), "sub-box of new region")
				// Every previously inserted box stays covered (coverage is
				// monotone even when absorbs compact the region array).
				check(inserted[rng.Intn(len(inserted))], "earlier region")
				// Random box: hit or miss, both must agree.
				check(randBox(rng, m), "random box")
			}
			if d.Len() != len(ref.regions) {
				t.Fatalf("m=%d seed=%d: grid holds %d regions, linear %d", m, seed, d.Len(), len(ref.regions))
			}
			st := d.Stats()
			if st.Regions != d.Len() {
				t.Fatalf("Stats.Regions=%d, Len=%d", st.Regions, d.Len())
			}
			if st.Buckets == 0 && st.Loose == 0 {
				t.Fatalf("grid never built: %+v", st)
			}
		}
	}
}

// TestDenseMDCellBoundaryLookup is the regression test for the
// float-boundary miss: deriving neighbor-cell keys by re-flooring perturbed
// float coordinates could skip the true ±1 cell when a lookup centroid sat
// within a few ulps of a cell boundary, so Lookup falsely missed a covered
// box. Regions are placed with centroids jittered tightly around cell
// boundaries (the adversarial regime); every inserted box and sub-box must
// hit.
func TestDenseMDCellBoundaryLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := NewDenseMD()
	w := 5.756163448430901 // awkward mantissa, as in the observed failure
	var boxes []query.Box
	for i := 0; i < 4000; i++ {
		b := query.Box{Dims: make([]types.Interval, 2)}
		for j := 0; j < 2; j++ {
			// Centroid within ±2 ulp-ish of a multiple of the region
			// width (≈ the cell width modulo slack).
			k := float64(rng.Intn(400) - 200)
			c := k*w + (rng.Float64()-0.5)*1e-12
			b.Dims[j] = types.Interval{Lo: c - w/2, Hi: c + w/2}
		}
		d.Insert(b, nil, FirstEpoch)
		boxes = append(boxes, b)
	}
	for i, b := range boxes {
		if _, ok := d.Lookup(b); !ok {
			t.Fatalf("box %d (%v) not found though inserted", i, b)
		}
		sub := b.Clone()
		for j, iv := range sub.Dims {
			sub.Dims[j] = types.ClosedInterval(iv.Lo+w/4, iv.Hi-w/4)
		}
		if _, ok := d.Lookup(sub); !ok {
			t.Fatalf("sub-box of %d (%v) not found", i, sub)
		}
	}
}

// TestDenseMDNonFiniteRegions exercises the loose path: regions with
// unbounded sides are not gridable but must stay findable.
func TestDenseMDNonFiniteRegions(t *testing.T) {
	d := NewDenseMD()
	inf := types.FullInterval()
	open := query.Box{Dims: []types.Interval{inf, {Lo: 0, Hi: 1}}}
	d.Insert(open, nil, FirstEpoch)
	d.Insert(query.Box{Dims: []types.Interval{{Lo: 5, Hi: 6}, {Lo: 5, Hi: 6}}}, nil, FirstEpoch)
	if _, ok := d.Lookup(query.Box{Dims: []types.Interval{{Lo: -1e9, Hi: 1e9}, {Lo: 0.2, Hi: 0.8}}}); !ok {
		t.Fatal("unbounded region not found for covered lookup")
	}
	if _, ok := d.Lookup(query.Box{Dims: []types.Interval{{Lo: 5.2, Hi: 5.8}, {Lo: 5.2, Hi: 5.8}}}); !ok {
		t.Fatal("finite region not found")
	}
	if st := d.Stats(); st.Loose != 1 {
		t.Fatalf("want 1 loose region, got %+v", st)
	}
}

// sortedRef is the pre-splice Dense1D reference Insert: merge by full scan
// and re-sort, as the index did before the sorted-run rewrite.
type sortedRef struct {
	regions []refRegion
}

type refRegion struct {
	Range types.Interval
	Rows  []uint32
}

func (s *sortedRef) Insert(v colstore.View, rng types.Interval, rows []uint32) {
	merged := refRegion{Range: rng, Rows: append([]uint32(nil), rows...)}
	var keep []refRegion
	for _, r := range s.regions {
		if r.Range.Hi < rng.Lo || r.Range.Lo > rng.Hi ||
			(r.Range.Hi == rng.Lo && r.Range.HiOpen && rng.LoOpen) ||
			(r.Range.Lo == rng.Hi && r.Range.LoOpen && rng.HiOpen) {
			keep = append(keep, r)
			continue
		}
		if r.Range.Lo < merged.Range.Lo || (r.Range.Lo == merged.Range.Lo && !r.Range.LoOpen) {
			merged.Range.Lo, merged.Range.LoOpen = r.Range.Lo, r.Range.LoOpen
		}
		if r.Range.Hi > merged.Range.Hi || (r.Range.Hi == merged.Range.Hi && !r.Range.HiOpen) {
			merged.Range.Hi, merged.Range.HiOpen = r.Range.Hi, r.Range.HiOpen
		}
		merged.Rows = append(merged.Rows, r.Rows...)
	}
	sort.Slice(merged.Rows, func(i, j int) bool {
		a, b := int(merged.Rows[i]), int(merged.Rows[j])
		if v.Ord(a, 0) != v.Ord(b, 0) {
			return v.Ord(a, 0) < v.Ord(b, 0)
		}
		return v.ID(a) < v.ID(b)
	})
	dedup := merged.Rows[:0]
	seen := map[int]bool{}
	for _, row := range merged.Rows {
		if id := v.ID(int(row)); !seen[id] {
			seen[id] = true
			dedup = append(dedup, row)
		}
	}
	merged.Rows = dedup
	keep = append(keep, merged)
	sort.Slice(keep, func(i, j int) bool { return keep[i].Range.Lo < keep[j].Range.Lo })
	s.regions = keep
}

// TestDense1DSpliceCrossCheck drives the splice-and-merge Insert against the
// full-re-sort reference on randomized interval streams (overlaps, touching
// endpoints with every open/closed combination, duplicate tuples) and
// requires bit-identical region arrays.
func TestDense1DSpliceCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		d := newStore1()
		ref := &sortedRef{}
		// A fixed corpus: an ID always carries the same value, as in the
		// real system (crawls observe one corpus). Crawling an interval
		// returns exactly the corpus members inside it, so overlapping
		// regions share duplicate tuples.
		corpus := make([]types.Tuple, 120)
		for i := range corpus {
			corpus[i] = types.Tuple{ID: i, Ord: []float64{rng.Float64() * 46}}
		}
		for step := 0; step < 150; step++ {
			// Coarse endpoints so exact touches happen often.
			lo := float64(rng.Intn(40))
			w := float64(rng.Intn(6))
			iv := types.Interval{
				Lo: lo, Hi: lo + w,
				LoOpen: w > 0 && rng.Intn(3) == 0,
				HiOpen: w > 0 && rng.Intn(3) == 0,
			}
			var tuples []types.Tuple
			for _, ct := range corpus {
				if iv.Contains(ct.Ord[0]) {
					tuples = append(tuples, ct)
				}
			}
			d.insert(iv, tuples)
			ref.Insert(d.hist.View(), iv, d.hist.AddRows(tuples))

			got, want := d.Export(0), ref.regions
			if len(got) != len(want) {
				t.Fatalf("seed=%d step=%d: %d regions, want %d\n got: %v\nwant: %v",
					seed, step, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].Range != want[i].Range {
					t.Fatalf("seed=%d step=%d region %d: range %v, want %v", seed, step, i, got[i].Range, want[i].Range)
				}
				if !slices.Equal(got[i].Run.Rows, want[i].Rows) {
					t.Fatalf("seed=%d step=%d region %d: rows %v, want %v", seed, step, i, got[i].Run.Rows, want[i].Rows)
				}
			}
		}
	}
}
