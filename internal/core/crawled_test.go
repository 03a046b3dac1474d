// Crawled-region tests: the insert rule (absorb what the new box contains or
// what joins it into a box), coverage lookups, the rows a region keeps, and
// concurrent inserts — each over 1D and 2D boxes.

package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/types"
)

// crawledExport returns the stored crawled facts, group by group in
// ascending lo order.
func crawledExport(c *crawledFacts) []*fact {
	var out []*fact
	c.count(func(f *fact) bool { out = append(out, f); return true })
	return out
}

// boxRanges is box over attrs (ascending) as a crawled box.
func boxRanges(attrs []int, box query.Box) query.Query {
	var q query.Query
	for i, a := range attrs {
		q.AddRange(a, box.Dims[i])
	}
	return q
}

// rangesBox is the box of a crawled box's ranges.
func rangesBox(q query.Query) query.Box {
	b := query.Box{Dims: make([]types.Interval, len(q.Ranges()))}
	for i, r := range q.Ranges() {
		b.Dims[i] = r.Iv
	}
	return b
}

// crawledWorld is an engine's arena and crawled set whose crawled boxes are intervals on
// attribute 0, widened in 2D by attribute 1's whole domain: every case reads
// the same in both, and the 2D one runs the m-attribute code.
type crawledWorld struct {
	k *Engine
	m int
}

func newCrawledWorld(m int) crawledWorld { return crawledWorld{newCrawledEngine(), m} }

// newCrawledEngine is an engine with only its history arena and crawled set,
// over a 2-attribute schema.
func newCrawledEngine() *Engine {
	hist := history.NewStore(testSchema(2))
	return &Engine{hist: hist, crawled: &crawledFacts{hist: hist}}
}

func mk(id int, v float64) types.Tuple {
	return types.Tuple{ID: id, Ord: []float64{v, 50}, Cat: map[string]string{"cat": "x"}}
}

func (w crawledWorld) box(iv types.Interval) query.Query {
	rs := query.New().WithRange(0, iv)
	if w.m == 2 {
		rs = rs.WithRange(1, types.ClosedInterval(0, 100))
	}
	return rs
}

func (w crawledWorld) insert(iv types.Interval, tuples []types.Tuple) {
	w.k.crawled.insert(w.box(iv), w.k.hist.AddRows(tuples), FirstEpoch)
}

func (w crawledWorld) lookup(iv types.Interval) *fact { return w.k.crawled.lookup(w.box(iv)) }

func (w crawledWorld) regions() int { return len(crawledExport(w.k.crawled)) }

// min is the 1D oracle's read of a region: the smallest stored value in iv.
func (w crawledWorld) min(f *fact, iv types.Interval) (types.Tuple, bool) {
	return w.k.hist.ScanRun(query.New(), f.run(), iv, false)
}

// crawledCases are the behaviours the crawled set keeps, run over 1D and 2D
// boxes by TestCrawledFacts.
var crawledCases = []struct {
	name string
	run  func(t *testing.T, w crawledWorld)
}{
	{"lookup-and-insert", func(t *testing.T, w crawledWorld) {
		if w.lookup(types.OpenInterval(0, 1)) != nil {
			t.Fatal("empty set claims coverage")
		}
		w.insert(types.ClosedInterval(0, 10), []types.Tuple{mk(1, 3), mk(2, 7)})
		if f := w.lookup(types.OpenInterval(2, 8)); f == nil || len(f.rows) != 2 {
			t.Fatal("covered lookup failed")
		}
		if w.lookup(types.OpenInterval(5, 12)) != nil {
			t.Fatal("partially-covered interval must miss")
		}
		// Open/closed edge: region (20,30) does not cover [20, 25].
		w.insert(types.OpenInterval(20, 30), []types.Tuple{mk(3, 23)})
		if w.lookup(types.ClosedInterval(20, 25)) != nil {
			t.Fatal("open region covered closed endpoint")
		}
		if w.lookup(types.OpenInterval(20, 25)) == nil {
			t.Fatal("open-in-open lookup failed")
		}
	}},
	{"merge", func(t *testing.T, w crawledWorld) {
		w.insert(types.ClosedInterval(0, 5), []types.Tuple{mk(1, 1)})
		w.insert(types.ClosedInterval(4, 9), []types.Tuple{mk(2, 6), mk(1, 1)})
		if w.regions() != 1 {
			t.Fatalf("overlapping inserts left %d regions, want 1", w.regions())
		}
		f := w.lookup(types.ClosedInterval(1, 8))
		if f == nil {
			t.Fatal("merged region does not cover the union")
		}
		if len(f.rows) != 2 {
			t.Fatalf("merged rows = %d, want 2 (dedup)", len(f.rows))
		}
		w.insert(types.ClosedInterval(20, 30), nil)
		if w.regions() != 2 {
			t.Fatalf("disjoint insert merged: %d regions", w.regions())
		}
	}},
	// Two crawled intervals both open at a shared endpoint b never saw
	// tuples AT b, so merging them would claim an uncrawled value. The 1D
	// oracle produces exactly this shape — (a,b) then (b,c) around a tie.
	{"open-adjacent-not-merged", func(t *testing.T, w crawledWorld) {
		w.insert(types.OpenInterval(0, 5), []types.Tuple{mk(1, 2)})
		w.insert(types.OpenInterval(5, 10), []types.Tuple{mk(2, 7)})
		if w.regions() != 2 {
			t.Fatalf("open-adjacent intervals merged: %d regions, want 2", w.regions())
		}
		if w.lookup(types.OpenInterval(4, 6)) != nil {
			t.Fatal("set claims coverage of the uncrawled boundary value 5")
		}
		// Half-open adjacency IS contiguous: [15,20) supplies the boundary.
		w.insert(types.OpenInterval(10, 15), []types.Tuple{mk(3, 12)})
		w.insert(types.Interval{Lo: 15, Hi: 20, HiOpen: true}, []types.Tuple{mk(4, 15), mk(5, 17)})
		if w.regions() != 3 {
			t.Fatalf("contiguous half-open adjacency not merged: %d regions, want 3", w.regions())
		}
		f := w.lookup(types.OpenInterval(14, 16))
		if f == nil {
			t.Fatal("merged contiguous region does not cover the boundary span")
		}
		if got, ok := w.min(f, types.OpenInterval(14, 16)); !ok || got.ID != 4 {
			t.Fatalf("boundary tuple lost in merge: %v %v", got, ok)
		}
	}},
	// A region cites the row versions its crawl saw. A tuple edited in
	// place afterwards is a new arena row the region does not hold, and
	// merging an overlapping later crawl keeps one row per tuple version.
	{"keeps-its-rows", func(t *testing.T, w crawledWorld) {
		w.insert(types.ClosedInterval(0, 10), []types.Tuple{mk(1, 2), mk(2, 5), mk(3, 8)})
		w.k.hist.Add(mk(2, 90)) // edited out of the box
		f := w.lookup(types.ClosedInterval(0, 10))
		if got, ok := w.min(f, types.OpenInterval(2, 10)); !ok || got.ID != 2 || got.Ord[0] != 5 {
			t.Fatalf("region min over (2,10) = %v %v, want tuple 2 as crawled (5)", got, ok)
		}
		if got, ok := w.k.hist.ScanRun(query.New(), f.run(), types.ClosedInterval(0, 8), true); !ok || got.ID != 3 {
			t.Fatalf("region max = %v %v", got, ok)
		}
		if _, ok := w.min(f, types.OpenInterval(8, 10)); ok {
			t.Fatal("empty sub-range matched")
		}
		w.insert(types.ClosedInterval(4, 12), []types.Tuple{mk(3, 8), mk(4, 11)})
		if f = w.lookup(types.ClosedInterval(0, 12)); f == nil || len(f.rows) != 4 {
			t.Fatalf("merged region does not hold 4 rows: tuple 3 once, tuple 2 as first crawled")
		}
	}},
	// After overlapping inserts of one contiguous crawl, any lookup inside
	// the union answers with exactly the tuples in the queried interval.
	{"merge-property", func(t *testing.T, w crawledWorld) {
		rng := rand.New(rand.NewSource(1))
		f := func(seed int64) bool {
			rng.Seed(seed)
			w := newCrawledWorld(w.m)
			var all []types.Tuple
			bounds := []float64{0, 10 + rng.Float64()*5, 20 + rng.Float64()*5, 30}
			id := 0
			for c := 0; c < 3; c++ {
				lo, hi := bounds[c], bounds[c+1]
				var ts []types.Tuple
				for i := 0; i < 10; i++ {
					ts = append(ts, mk(id, lo+rng.Float64()*(hi-lo)))
					id++
				}
				all = append(all, ts...)
				w.insert(types.ClosedInterval(lo, hi), ts)
			}
			if w.regions() != 1 {
				return false
			}
			qlo := rng.Float64() * 15
			iv := types.ClosedInterval(qlo, qlo+rng.Float64()*14)
			reg := w.lookup(iv)
			if reg == nil {
				return false
			}
			got, ok := w.min(reg, iv)
			var want *types.Tuple
			for i, tp := range all {
				if iv.Contains(tp.Ord[0]) && (want == nil || tp.Ord[0] < want.Ord[0]) {
					want = &all[i]
				}
			}
			return ok == (want != nil) && (!ok || got.ID == want.ID)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}},
	// Randomized interval streams (overlaps, touching endpoints with every
	// open/closed combination, duplicate tuples) against a reference that
	// merges by full scan and re-sorts: the same regions, the same rows.
	{"merge-matches-reference", func(t *testing.T, w crawledWorld) {
		type refRegion struct {
			iv   types.Interval
			rows []uint32
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(2000 + seed))
			w := newCrawledWorld(w.m)
			// A fixed corpus: crawling an interval returns exactly its
			// members, so overlapping regions share duplicate tuples.
			corpus := make([]types.Tuple, 120)
			for i := range corpus {
				corpus[i] = mk(i, rng.Float64()*46)
			}
			var ref []refRegion
			for step := 0; step < 150; step++ {
				lo, wd := float64(rng.Intn(40)), float64(rng.Intn(6))
				iv := types.Interval{Lo: lo, Hi: lo + wd, LoOpen: wd > 0 && rng.Intn(3) == 0, HiOpen: wd > 0 && rng.Intn(3) == 0}
				var tuples []types.Tuple
				for _, ct := range corpus {
					if iv.Contains(ct.Ord[0]) {
						tuples = append(tuples, ct)
					}
				}
				w.insert(iv, tuples)

				merged := refRegion{iv: iv, rows: w.k.hist.AddRows(tuples)}
				var keep []refRegion
				for _, r := range ref {
					if r.iv.Hi < iv.Lo || r.iv.Lo > iv.Hi ||
						(r.iv.Hi == iv.Lo && r.iv.HiOpen && iv.LoOpen) ||
						(r.iv.Lo == iv.Hi && r.iv.LoOpen && iv.HiOpen) {
						keep = append(keep, r)
						continue
					}
					if r.iv.Lo < merged.iv.Lo || (r.iv.Lo == merged.iv.Lo && !r.iv.LoOpen) {
						merged.iv.Lo, merged.iv.LoOpen = r.iv.Lo, r.iv.LoOpen
					}
					if r.iv.Hi > merged.iv.Hi || (r.iv.Hi == merged.iv.Hi && !r.iv.HiOpen) {
						merged.iv.Hi, merged.iv.HiOpen = r.iv.Hi, r.iv.HiOpen
					}
					merged.rows = append(merged.rows, r.rows...)
				}
				v := w.k.hist.View()
				sort.Slice(merged.rows, func(i, j int) bool {
					a, b := int(merged.rows[i]), int(merged.rows[j])
					if v.Ord(a, 0) != v.Ord(b, 0) {
						return v.Ord(a, 0) < v.Ord(b, 0)
					}
					return v.ID(a) < v.ID(b)
				})
				merged.rows = slices.CompactFunc(merged.rows, func(a, b uint32) bool { return v.ID(int(a)) == v.ID(int(b)) })
				ref = append(keep, merged)
				sort.Slice(ref, func(i, j int) bool { return ref[i].iv.Lo < ref[j].iv.Lo })

				got := crawledExport(w.k.crawled)
				if len(got) != len(ref) {
					t.Fatalf("seed=%d step=%d: %d regions, want %d", seed, step, len(got), len(ref))
				}
				for i := range got {
					if got[i].q.Ranges()[0].Iv != ref[i].iv || !slices.Equal(got[i].rows, ref[i].rows) {
						t.Fatalf("seed=%d step=%d region %d: %v rows %v, want %v rows %v",
							seed, step, i, got[i].q.Ranges()[0].Iv, got[i].rows, ref[i].iv, ref[i].rows)
					}
				}
			}
		}
	}},
	// Writers that add tuples and insert adjoining regions concurrently end
	// with one region citing every row once, in run order: insert orders
	// rows under a view taken inside its lock, which therefore covers the
	// rows of every fact inserted before it (run under -race).
	{"concurrent-inserts", func(t *testing.T, w crawledWorld) {
		const writers, each = 8, 700 // crosses an arena block boundary
		at := func(wr, j int) float64 { return float64(wr) + float64(j)/each }
		var wg sync.WaitGroup
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				for i := 0; i < each; i += 50 {
					var ts []types.Tuple
					for j := i; j < i+50; j++ {
						ts = append(ts, mk(wr*each+j, at(wr, j)))
					}
					w.insert(types.Interval{Lo: at(wr, i), Hi: at(wr, i+50), HiOpen: true}, ts)
				}
			}(wr)
		}
		wg.Wait()
		f := w.lookup(types.Interval{Lo: 0, Hi: writers, HiOpen: true})
		if f == nil || w.regions() != 1 || len(f.rows) != writers*each {
			t.Fatalf("found=%v, %d regions; want one region of %d rows", f != nil, w.regions(), writers*each)
		}
		v := w.k.hist.View()
		if !sort.SliceIsSorted(f.rows, func(i, j int) bool { return v.Ord(int(f.rows[i]), 0) < v.Ord(int(f.rows[j]), 0) }) {
			t.Fatal("merged rows are not in run order")
		}
	}},
	// A box containing stored ones absorbs them; boxes whose union is not a
	// box stay apart; a box that extends another along one attribute joins
	// it.
	{"absorb-and-union", func(t *testing.T, w crawledWorld) {
		sq := func(lo, hi float64) query.Query {
			rs := query.New().WithRange(0, types.ClosedInterval(lo, hi))
			if w.m == 2 {
				rs = rs.WithRange(1, types.ClosedInterval(lo, hi))
			}
			return rs
		}
		w.k.crawled.insert(sq(0, 10), nil, FirstEpoch)
		if w.k.crawled.lookup(sq(2, 8)) == nil || w.k.crawled.lookup(sq(5, 15)) != nil {
			t.Fatal("inner box missed, or a straddling box hit")
		}
		w.k.crawled.insert(sq(-5, 20), nil, FirstEpoch)
		if w.regions() != 1 {
			t.Fatalf("absorb failed: %d regions", w.regions())
		}
		w.k.crawled.insert(sq(15, 30), nil, FirstEpoch)
		want := 1 // intervals that overlap join
		if w.m == 2 {
			want = 2 // squares that overlap on both attributes do not
		}
		if w.regions() != want {
			t.Fatalf("overlapping insert left %d regions, want %d", w.regions(), want)
		}
		if w.m == 2 {
			ext := query.New().WithRange(0, types.ClosedInterval(20, 40)).WithRange(1, types.ClosedInterval(-5, 20))
			w.k.crawled.insert(ext, nil, FirstEpoch)
			if f := w.k.crawled.lookup(query.New().WithRange(0, types.ClosedInterval(-5, 40)).WithRange(1, types.ClosedInterval(-5, 20))); f == nil {
				t.Fatal("a box extending another along one attribute did not join it")
			}
		}
	}},
}

func TestCrawledFacts(t *testing.T) {
	for _, tc := range crawledCases {
		for _, m := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dD", tc.name, m), func(t *testing.T) { tc.run(t, newCrawledWorld(m)) })
		}
	}
}

// FuzzCrawledCoverage inserts arbitrary 1D or 2D boxes — half-unit
// coordinates, so bounds touch often, with every open/closed combination and
// empty boxes — each with the corpus tuples inside it, as a crawl would.
// Afterwards: a lookup hits iff a stored fact contains the box; no stored
// fact claims a point that no insert covered; and every fact's rows are
// exactly the corpus tuples inside its box, in run order.
func FuzzCrawledCoverage(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 10, 10, 3, 20, 6, 1, 30, 2, 2})
	f.Add([]byte{1, 0, 4, 0, 0, 4, 0, 8, 4, 0, 0, 4, 0, 0, 2, 3, 0, 6, 0})
	f.Add([]byte{0, 10, 0, 0, 10, 0, 3, 10, 0, 1, 10, 2, 2, 9, 2, 2})
	var corpus []types.Tuple
	for x := 0; x <= 22; x++ {
		for y := 0; y <= 22; y++ {
			corpus = append(corpus, types.Tuple{ID: len(corpus), Ord: []float64{float64(x) / 2, float64(y) / 2}, Cat: map[string]string{"cat": "x"}})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0]%2)
		data = data[1:]
		k := newCrawledEngine()
		k.hist.Add(corpus...)
		contains := func(rs query.Query, tp types.Tuple) bool {
			for _, r := range rs.Ranges() {
				if !r.Iv.Contains(tp.Ord[r.Attr]) {
					return false
				}
			}
			return true
		}
		var inserted []query.Query
		for len(data) >= 3*m && len(inserted) < 40 {
			var rs query.Query
			for j := 0; j < m; j++ {
				lo, w, fl := float64(data[0]%21)/2, float64(data[1]%7)/2, data[2]
				rs.AddRange(j, types.Interval{Lo: lo, Hi: lo + w, LoOpen: fl&1 != 0, HiOpen: fl&2 != 0})
				data = data[3:]
			}
			var in []types.Tuple
			for _, tp := range corpus {
				if contains(rs, tp) {
					in = append(in, tp)
				}
			}
			k.crawled.insert(rs, k.hist.AddRows(in), FirstEpoch)
			inserted = append(inserted, rs)
		}
		stored := crawledExport(k.crawled)
		v := k.hist.View()
		for _, sf := range stored {
			var want []uint32
			for _, tp := range corpus {
				if contains(sf.q, tp) {
					want = append(want, uint32(tp.ID)) // the corpus went in first: row = ID
				}
			}
			slices.SortFunc(want, func(a, b uint32) int {
				return cmp.Or(cmp.Compare(v.Ord(int(a), 0), v.Ord(int(b), 0)), cmp.Compare(a, b))
			})
			if !slices.Equal(sf.rows, want) {
				t.Fatalf("fact %v holds rows %v, want the corpus inside it %v", rangesBox(sf.q), sf.rows, want)
			}
			for i, row := range sf.rows {
				if sf.vals[i] != v.Ord(int(row), 0) {
					t.Fatalf("fact %v row %d carries value %v, want %v", rangesBox(sf.q), row, sf.vals[i], v.Ord(int(row), 0))
				}
			}
			// Every point of the fact — probed on the quarter-unit grid,
			// which puts a point on every bound and between any two — lies
			// in some inserted box.
			var walk func(j int, pt []float64)
			walk = func(j int, pt []float64) {
				if j == m {
					probe := types.Tuple{Ord: pt}
					if !contains(sf.q, probe) {
						return
					}
					for _, rs := range inserted {
						if contains(rs, probe) {
							return
						}
					}
					t.Fatalf("fact %v claims %v, which no insert covered", rangesBox(sf.q), pt)
				}
				for x := -1; x <= 54; x++ {
					pt[j] = float64(x) / 4
					walk(j+1, pt)
				}
			}
			walk(0, make([]float64, 2))
		}
		queries := slices.Clone(inserted)
		for _, sf := range stored {
			queries = append(queries, sf.q)
		}
		for _, q := range queries {
			var sub query.Query // a proper sub-box too
			for i, r := range q.Ranges() {
				if i == 0 {
					r.Iv.Lo, r.Iv.LoOpen = r.Iv.Lo+0.25, false
				}
				sub.AddRange(r.Attr, r.Iv)
			}
			for _, probe := range []query.Query{q, sub} {
				hit := k.crawled.lookup(probe)
				want := slices.ContainsFunc(stored, func(sf *fact) bool { return boxCovers(sf.q, probe) })
				if (hit != nil) != want || (hit != nil && !boxCovers(hit.q, probe)) {
					t.Fatalf("lookup %v: hit=%v, a stored fact contains it: %v", rangesBox(probe), hit != nil, want)
				}
			}
		}
	})
}
