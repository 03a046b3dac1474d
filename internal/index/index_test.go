package index

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/types"
)

func mk(id int, v float64) types.Tuple {
	return types.Tuple{ID: id, Ord: []float64{v}}
}

// store1 is an index under test over a one-attribute tuple store, used as
// Knowledge uses the pair: tuples go into the arena first, the region is
// recorded over their rows.
type store1 struct{ *Dense1D }

func newStore1() store1 {
	schema := types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	return store1{NewDense1D(history.NewStore(schema))}
}

func (s store1) insert(rng types.Interval, tuples []types.Tuple) {
	s.Insert(0, rng, s.hist.AddRows(tuples), FirstEpoch)
}

// min is the 1D oracle's read of a region: the smallest stored value in iv.
func (s store1) min(reg Interval1D, q query.Query, iv types.Interval) (types.Tuple, bool) {
	return s.hist.ScanRun(q, reg.Run, iv, false)
}

func TestDense1DLookupAndInsert(t *testing.T) {
	d := newStore1()
	if _, ok := d.Lookup(0, types.OpenInterval(0, 1)); ok {
		t.Fatal("empty index claims coverage")
	}
	d.insert(types.ClosedInterval(0, 10), []types.Tuple{mk(1, 3), mk(2, 7)})
	if reg, ok := d.Lookup(0, types.OpenInterval(2, 8)); !ok || reg.Run.Len() != 2 {
		t.Fatal("covered lookup failed")
	}
	if _, ok := d.Lookup(0, types.OpenInterval(5, 12)); ok {
		t.Fatal("partially-covered interval must miss")
	}
	// Open/closed edge: region (0,10) does not cover [0, 5].
	d2 := newStore1()
	d2.insert(types.OpenInterval(0, 10), []types.Tuple{mk(1, 3)})
	if _, ok := d2.Lookup(0, types.ClosedInterval(0, 5)); ok {
		t.Fatal("open region covered closed endpoint")
	}
	if _, ok := d2.Lookup(0, types.OpenInterval(0, 5)); !ok {
		t.Fatal("open-in-open lookup failed")
	}
}

func TestDense1DMerge(t *testing.T) {
	d := newStore1()
	d.insert(types.ClosedInterval(0, 5), []types.Tuple{mk(1, 1)})
	d.insert(types.ClosedInterval(4, 9), []types.Tuple{mk(2, 6), mk(1, 1)})
	if d.Regions(0) != 1 {
		t.Fatalf("overlapping inserts left %d regions, want 1", d.Regions(0))
	}
	reg, ok := d.Lookup(0, types.ClosedInterval(1, 8))
	if !ok {
		t.Fatal("merged region does not cover the union")
	}
	if reg.Run.Len() != 2 {
		t.Fatalf("merged tuples = %d, want 2 (dedup)", reg.Run.Len())
	}
	// Disjoint insert stays separate.
	d.insert(types.ClosedInterval(20, 30), nil)
	if d.Regions(0) != 2 {
		t.Fatalf("disjoint insert merged: %d regions", d.Regions(0))
	}
}

// TestDense1DOpenAdjacentNotMerged pins the boundary-exactness rule: two
// crawled intervals both open at a shared endpoint b never saw tuples AT b,
// so merging them would authoritatively claim an uncrawled value. The 1D
// oracle produces exactly this shape — (a,b) then (b,c) around a tie value.
func TestDense1DOpenAdjacentNotMerged(t *testing.T) {
	d := newStore1()
	d.insert(types.OpenInterval(0, 5), []types.Tuple{mk(1, 2)})
	d.insert(types.OpenInterval(5, 10), []types.Tuple{mk(2, 7)})
	if d.Regions(0) != 2 {
		t.Fatalf("open-adjacent intervals merged: %d regions, want 2", d.Regions(0))
	}
	// An interval spanning the uncrawled boundary value must miss.
	if _, ok := d.Lookup(0, types.OpenInterval(4, 6)); ok {
		t.Fatal("index claims coverage of the uncrawled boundary value 5")
	}
	// Half-open adjacency IS contiguous: [5,10) supplies the boundary.
	d2 := newStore1()
	d2.insert(types.OpenInterval(0, 5), []types.Tuple{mk(1, 2)})
	d2.insert(types.Interval{Lo: 5, Hi: 10, HiOpen: true}, []types.Tuple{mk(3, 5), mk(2, 7)})
	if d2.Regions(0) != 1 {
		t.Fatalf("contiguous half-open adjacency not merged: %d regions", d2.Regions(0))
	}
	reg, ok := d2.Lookup(0, types.OpenInterval(4, 6))
	if !ok {
		t.Fatal("merged contiguous region does not cover the boundary span")
	}
	if got, ok := d2.min(reg, query.New(), types.OpenInterval(4, 6)); !ok || got.ID != 3 {
		t.Fatalf("boundary tuple lost in merge: %v %v", got, ok)
	}
}

// TestDense1DRegionKeepsItsRows: a region cites the row versions its crawl
// saw. A tuple edited in place afterwards is a new arena row the region does
// not hold, and merging an overlapping later crawl keeps one row per tuple —
// the later crawl's.
func TestDense1DRegionKeepsItsRows(t *testing.T) {
	d := newStore1()
	d.insert(types.ClosedInterval(0, 10), []types.Tuple{mk(1, 2), mk(2, 5), mk(3, 8)})
	d.hist.Add(mk(2, 90)) // edited out of the box
	reg, _ := d.Lookup(0, types.ClosedInterval(0, 10))
	q := query.New()
	if got, ok := d.min(reg, q, types.OpenInterval(2, 10)); !ok || got.ID != 2 || got.Ord[0] != 5 {
		t.Fatalf("region min over (2,10) = %v %v, want tuple 2 as crawled (5)", got, ok)
	}
	if got, ok := d.hist.ScanRun(q, reg.Run, types.ClosedInterval(0, 8), true); !ok || got.ID != 3 {
		t.Fatalf("region max = %v %v", got, ok)
	}
	if _, ok := d.min(reg, q, types.OpenInterval(8, 10)); ok {
		t.Fatal("empty sub-range matched")
	}
	d.insert(types.ClosedInterval(4, 12), []types.Tuple{mk(3, 8), mk(4, 11)})
	reg, _ = d.Lookup(0, types.ClosedInterval(0, 12))
	if reg.Run.Len() != 4 {
		t.Fatalf("merged region holds %d rows, want 4: tuple 3 once, tuple 2 as first crawled", reg.Run.Len())
	}
}

// TestDense1DConcurrentInserts (-race): writers that add tuples and insert
// overlapping regions concurrently end with one region citing every row once,
// in run order — Insert orders rows under a view taken inside its lock, which
// therefore covers the rows of every region inserted before it.
func TestDense1DConcurrentInserts(t *testing.T) {
	d := newStore1()
	const writers, each = 8, 700 // crosses an arena block boundary
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i += 50 {
				var ts []types.Tuple
				for j := i; j < i+50; j++ {
					ts = append(ts, mk(w*each+j, float64(w)+float64(j)/each))
				}
				d.insert(types.ClosedInterval(float64(w), float64(w+1)), ts)
			}
		}(w)
	}
	wg.Wait()
	reg, ok := d.Lookup(0, types.ClosedInterval(0, writers))
	if !ok || d.Regions(0) != 1 || reg.Run.Len() != writers*each {
		t.Fatalf("ok=%v, %d regions, %d rows; want one region of %d rows", ok, d.Regions(0), reg.Run.Len(), writers*each)
	}
	if !sort.Float64sAreSorted(reg.Run.Vals) {
		t.Fatal("merged run is not sorted")
	}
}

// TestDense1DMergeProperty: after arbitrary overlapping inserts, any lookup
// fully inside the union of inserted ranges answers with exactly the tuples
// whose values fall in the queried interval.
func TestDense1DMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		d := newStore1()
		var all []types.Tuple
		// Insert 3 overlapping chunks of one contiguous crawl [0, 30].
		bounds := []float64{0, 10 + rng.Float64()*5, 20 + rng.Float64()*5, 30}
		id := 0
		for c := 0; c < 3; c++ {
			lo, hi := bounds[c], bounds[c+1]
			var ts []types.Tuple
			for i := 0; i < 10; i++ {
				v := lo + rng.Float64()*(hi-lo)
				ts = append(ts, mk(id, v))
				id++
			}
			all = append(all, ts...)
			d.insert(types.ClosedInterval(lo, hi), ts)
		}
		if d.Regions(0) != 1 {
			return false
		}
		qlo := rng.Float64() * 15
		iv := types.ClosedInterval(qlo, qlo+rng.Float64()*14)
		reg, ok := d.Lookup(0, iv)
		if !ok {
			return false
		}
		want := map[int]bool{}
		for _, tp := range all {
			if iv.Contains(tp.Ord[0]) {
				want[tp.ID] = true
			}
		}
		got, okMin := d.min(reg, query.New(), iv)
		if len(want) == 0 {
			return !okMin
		}
		if !okMin || !want[got.ID] {
			return false
		}
		// The min must really be minimal.
		for _, tp := range all {
			if iv.Contains(tp.Ord[0]) && tp.Ord[0] < got.Ord[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseMD(t *testing.T) {
	d := NewDenseMD()
	box := func(l0, h0, l1, h1 float64) query.Box {
		return query.Box{Dims: []types.Interval{
			types.ClosedInterval(l0, h0), types.ClosedInterval(l1, h1),
		}}
	}
	if _, ok := d.Lookup(box(0, 1, 0, 1)); ok {
		t.Fatal("empty MD index claims coverage")
	}
	d.Insert(box(0, 10, 0, 10), []uint32{0}, FirstEpoch)
	if reg, ok := d.Lookup(box(2, 8, 2, 8)); !ok || len(reg.Rows) != 1 {
		t.Fatal("inner box lookup failed")
	}
	if _, ok := d.Lookup(box(5, 15, 2, 8)); ok {
		t.Fatal("straddling box covered")
	}
	// Inserting a superset absorbs the old region.
	d.Insert(box(-5, 20, -5, 20), []uint32{1}, FirstEpoch)
	if d.Len() != 1 {
		t.Fatalf("absorb failed: %d regions", d.Len())
	}
	d.AddCrawlCost(7)
	if d.CrawlCost() != 7 {
		t.Fatal("crawl ledger broken")
	}
}
