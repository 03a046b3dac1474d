// Package index implements the on-the-fly dense-region indexes of §3.2.2
// (1D) and §4.4 (MD).
//
// A dense region is a small interval (or box) packed with many tuples;
// binary-search-style probing degenerates there, and the same region tends
// to be revisited by many different user queries. The index records regions
// that have been *fully crawled*: once crawled, any future visit inside a
// recorded region is answered locally with zero database queries.
//
// The crawl itself is generic — it deliberately ignores the user query's
// selection condition (Algorithm 4's design note) so the work amortizes
// across all future user queries.
//
// A region holds no tuple of its own. Every tuple a crawl returns is already
// a row of the history arena (the engine's only tuple store), so a region is
// what a probe fact is: a box, an epoch and the arena rows inside the box.
// Rows never change — a tuple the upstream edits in place becomes a new row —
// so a region keeps citing exactly what its crawl saw.
//
// Both index types are safe for concurrent use: lookups take a read lock,
// inserts a write lock, and crawl-cost ledgers are atomic. Region coverage
// is monotone — once an interval or box is covered it stays covered — and
// the row lists inside recorded regions are immutable once inserted, so
// returned regions may be read without further synchronization.
//
// Both lookups are sub-linear in the number of recorded regions. Dense1D
// keeps its per-attribute regions as a sorted array probed by binary search,
// and Insert splices the merged region into place with a linear merge of the
// affected sorted runs (colstore.Run, the history shards' own run type) —
// never a full re-sort. DenseMD buckets regions by the grid cell of their
// box centroid: because every region recorded so far is at most maxW wide
// per dimension, any region containing a lookup box has its centroid within
// one cell of the lookup centroid, so a lookup inspects at most 3^m buckets
// instead of every region. The grid grows incrementally on Insert and is
// rebuilt (amortized, like a sorted-run flush) only when a new region
// exceeds the cell size or an absorb invalidates stored indices.
package index

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/types"
)

// FirstEpoch is the knowledge epoch every region starts in. Epochs only
// move forward; a region whose Epoch trails the owner's current epoch is
// *stale* — still authoritative about what the upstream looked like when it
// was crawled, but requiring one confirming probe before it may answer
// again (see internal/core's lazy re-validation).
const FirstEpoch int64 = 1

// Interval1D is one fully-crawled value interval on a single attribute,
// together with the arena row of every tuple of the *entire database* whose
// attribute value lies inside it.
type Interval1D struct {
	Range types.Interval
	Run   colstore.Run // ascending by (attribute value, tuple ID); immutable
	Epoch int64        // knowledge epoch the interval was crawled under
}

// Dense1D is the per-attribute dense index: a set of disjoint fully-crawled
// intervals per ordinal attribute.
type Dense1D struct {
	hist *history.Store // the store whose rows the regions cite
	mu   sync.RWMutex
	// regions[attr] is sorted by Range.Lo and pairwise disjoint.
	regions map[int][]Interval1D
	// crawlCost counts database queries spent building the index,
	// reported separately by the experiments (Theorem 3 accounting).
	crawlCost atomic.Int64
}

// NewDense1D returns an empty 1D dense index over rows of hist.
func NewDense1D(hist *history.Store) *Dense1D {
	return &Dense1D{hist: hist, regions: make(map[int][]Interval1D)}
}

// AddCrawlCost accumulates queries spent crawling into the index's ledger.
func (d *Dense1D) AddCrawlCost(n int64) { d.crawlCost.Add(n) }

// CrawlCost returns the total queries charged to index construction.
func (d *Dense1D) CrawlCost() int64 { return d.crawlCost.Load() }

// Lookup returns the crawled interval covering [iv] on attr, if any. The
// requested interval must be entirely inside a recorded region for the
// answer to be authoritative.
func (d *Dense1D) Lookup(attr int, iv types.Interval) (Interval1D, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	regs := d.regions[attr]
	// Regions are sorted by Lo and interior-disjoint, but two of them may
	// touch at a both-open boundary point, so more than one candidate can
	// satisfy Hi >= iv.Lo at that point — scan until Lo passes iv.Lo.
	i := sort.Search(len(regs), func(i int) bool { return regs[i].Range.Hi >= iv.Lo })
	for ; i < len(regs) && regs[i].Range.Lo <= iv.Lo; i++ {
		if regs[i].Range.Covers(iv) {
			return regs[i], true
		}
	}
	return Interval1D{}, false
}

// Insert records a fully-crawled interval under the given knowledge epoch.
// rows are the arena rows of every database tuple whose attr value falls
// inside rng. Overlapping or adjacent existing regions are merged, keeping
// one row per tuple ID. A merge takes the *minimum* epoch of its
// constituents: the merged region's old rows were not re-verified by the new
// crawl, so the combined region is only as fresh as its oldest part.
//
// The region array stays sorted by Range.Lo without ever being re-sorted:
// overlapping regions are contiguous in the sorted array, so Insert binary
// searches for the overlap window, merges the window's (already sorted) runs
// with the freshly sorted incoming run via linear merges, and splices the
// merged region into place.
func (d *Dense1D) Insert(attr int, rng types.Interval, rows []uint32, epoch int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The view that orders the rows is taken under the lock, so it covers
	// every row a region inserted before this one cites.
	v := d.hist.View()
	regs := d.regions[attr]
	merged := Interval1D{Range: rng, Run: dedupRun(v, colstore.NewRun(v, attr, rows)), Epoch: epoch}
	// Overlap window: regions are sorted by Lo and interior-disjoint, so
	// every region mergeable with rng lies in one contiguous span. Regions
	// touching rng at an endpoint excluded by BOTH sides — (a,b) then
	// (b,c) — must stay separate: neither was crawled at b, so a merged
	// (a,c) would authoritatively claim tuples at b that the index never
	// saw. Such regions sit at the window's edges and are kept.
	lo := sort.Search(len(regs), func(i int) bool { return regs[i].Range.Hi >= rng.Lo })
	hi := lo
	var keepInWindow []Interval1D // both-open-touch neighbors, ≤ 2 of them
	for ; hi < len(regs) && regs[hi].Range.Lo <= rng.Hi; hi++ {
		r := regs[hi]
		if (r.Range.Hi == rng.Lo && r.Range.HiOpen && rng.LoOpen) ||
			(r.Range.Lo == rng.Hi && r.Range.LoOpen && rng.HiOpen) {
			keepInWindow = append(keepInWindow, r)
			continue
		}
		if r.Range.Lo < merged.Range.Lo || (r.Range.Lo == merged.Range.Lo && !r.Range.LoOpen) {
			merged.Range.Lo, merged.Range.LoOpen = r.Range.Lo, r.Range.LoOpen
		}
		if r.Range.Hi > merged.Range.Hi || (r.Range.Hi == merged.Range.Hi && !r.Range.HiOpen) {
			merged.Range.Hi, merged.Range.HiOpen = r.Range.Hi, r.Range.HiOpen
		}
		if r.Epoch < merged.Epoch {
			merged.Epoch = r.Epoch
		}
		merged.Run = dedupRun(v, colstore.MergeRuns(v, merged.Run, r.Run))
	}
	// Splice: prefix, kept touch-neighbors below, merged, kept above, suffix.
	out := make([]Interval1D, 0, lo+len(keepInWindow)+1+len(regs)-hi)
	out = append(out, regs[:lo]...)
	for _, r := range keepInWindow {
		if r.Range.Lo < merged.Range.Lo {
			out = append(out, r)
		}
	}
	out = append(out, merged)
	for _, r := range keepInWindow {
		if r.Range.Lo >= merged.Range.Lo {
			out = append(out, r)
		}
	}
	out = append(out, regs[hi:]...)
	d.regions[attr] = out
}

// Promote raises the epoch of the region whose Range is exactly rng to
// epoch (a re-validation confirmed its contents are still current). It
// reports whether the region was found; an already-newer epoch is kept.
func (d *Dense1D) Promote(attr int, rng types.Interval, epoch int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	regs := d.regions[attr]
	i := sort.Search(len(regs), func(i int) bool { return regs[i].Range.Hi >= rng.Lo })
	for ; i < len(regs) && regs[i].Range.Lo <= rng.Lo; i++ {
		if regs[i].Range == rng {
			if regs[i].Epoch < epoch {
				regs[i].Epoch = epoch
			}
			return true
		}
	}
	return false
}

// Remove evicts the region whose Range is exactly rng (a re-validation
// found its contents drifted). Coverage of that interval reverts to
// unknown; the next visit re-crawls it. Reports whether a region was
// removed.
func (d *Dense1D) Remove(attr int, rng types.Interval) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	regs := d.regions[attr]
	i := sort.Search(len(regs), func(i int) bool { return regs[i].Range.Hi >= rng.Lo })
	for ; i < len(regs) && regs[i].Range.Lo <= rng.Lo; i++ {
		if regs[i].Range == rng {
			d.regions[attr] = append(regs[:i:i], regs[i+1:]...)
			return true
		}
	}
	return false
}

// StaleCount returns the number of recorded regions across all attributes
// whose epoch trails cur.
func (d *Dense1D) StaleCount(cur int64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, regs := range d.regions {
		for _, r := range regs {
			if r.Epoch < cur {
				n++
			}
		}
	}
	return n
}

// Regions returns the number of recorded regions for attr.
func (d *Dense1D) Regions(attr int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.regions[attr])
}

// Export returns a copy of the recorded regions for attr (for inspection).
// Region runs are shared and must not be modified.
func (d *Dense1D) Export(attr int) []Interval1D {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Interval1D(nil), d.regions[attr]...)
}

// dedupRun drops every entry whose (value, tuple ID) repeats the entry before
// it: overlapping crawls both list the tuples of the overlap, and the earlier
// entry — MergeRuns puts its first argument's first — is kept. r is written
// only from the first repeat on, so a run without repeats may be shared.
func dedupRun(v colstore.View, r colstore.Run) colstore.Run {
	w := 0
	for i, row := range r.Rows {
		if w > 0 && r.Vals[i] == r.Vals[w-1] && v.ID(int(row)) == v.ID(int(r.Rows[w-1])) {
			continue
		}
		if w != i {
			r.Vals[w], r.Rows[w] = r.Vals[i], row
		}
		w++
	}
	return colstore.Run{Vals: r.Vals[:w], Rows: r.Rows[:w]}
}

// Region is one fully-crawled box with the arena row of every database tuple
// inside it, used by the MD dense index (Algorithm 6).
type Region struct {
	Box   query.Box
	Rows  []uint32 // immutable once inserted
	Epoch int64    // knowledge epoch the box was crawled under
}

// DenseMD records fully-crawled boxes in the axis space of one ranker.
// Lookups go through a uniform-grid bucket index over box centroids, so the
// §4.4 oracle stays O(3^m · bucket) as knowledge grows instead of paying a
// scan over every recorded region.
type DenseMD struct {
	mu        sync.RWMutex
	regions   []Region
	crawlCost atomic.Int64
	grid      mdGrid
}

// mdGrid buckets region indices by the grid cell of their box centroid.
//
// Invariant: every bucketed region is at most cell[j] wide on dimension j
// (cell widths are set to the maximum region width at build time). A region
// R containing a lookup box q also contains q's centroid, so the two
// centroids differ by at most width(R) ≤ cell[j] per dimension — R's bucket
// is within one cell of q's centroid cell, and a lookup needs only the 3^m
// neighboring buckets. Inserts are incremental (append to one bucket); the
// grid is rebuilt only when a new region is wider than the current cells or
// an absorb compacts the region array — the amortized rebuild discipline of
// the history store's sorted-run flushes.
type mdGrid struct {
	built bool
	cell  []float64        // per-dimension cell width (max gridable width × slack)
	seen  []float64        // per-dimension max width over gridable (finite) regions
	cells map[string][]int // centroid cell key -> indices into regions
	loose []int            // regions the grid can't bucket (non-finite boxes)
}

// gridCellSlack inflates cell widths above the maximum region width, so the
// real centroid-distance ratio |cR−cq|/cell stays strictly below 1 even for
// the widest region; float division rounding (~1 ulp) then cannot push two
// cell boundaries between the two centroids, making the ±1 integer-cell
// neighborhood in Lookup provably sufficient.
const gridCellSlack = 1 + 1e-6

// NewDenseMD returns an empty MD dense index.
func NewDenseMD() *DenseMD { return &DenseMD{} }

// AddCrawlCost accumulates queries spent crawling.
func (d *DenseMD) AddCrawlCost(n int64) { d.crawlCost.Add(n) }

// CrawlCost returns queries charged to MD index construction.
func (d *DenseMD) CrawlCost() int64 { return d.crawlCost.Load() }

// cellOf returns the integer cell coordinates of point z under the grid's
// cell widths. All key derivation goes through this single floor, so
// neighbor enumeration can work on exact integers (re-flooring perturbed
// float coordinates can skip a cell at boundaries).
func (g *mdGrid) cellOf(z []float64) []int64 {
	c := make([]int64, len(z))
	for j, v := range z {
		c[j] = int64(math.Floor(v / g.cell[j]))
	}
	return c
}

// cellKey encodes integer cell coordinates as a map key.
func cellKey(coords []int64) string {
	var buf [8]byte
	key := make([]byte, 0, len(coords)*8)
	for _, c := range coords {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		key = append(key, buf[:]...)
	}
	return string(key)
}

// centroid returns the box's per-dimension midpoints. Finite boxes only.
func centroid(b query.Box) []float64 {
	z := make([]float64, len(b.Dims))
	for j, iv := range b.Dims {
		z[j] = iv.Lo + (iv.Hi-iv.Lo)/2
	}
	return z
}

// gridable reports whether the box can live in a centroid bucket.
func gridable(b query.Box) bool { return b.IsFinite() }

// place adds region idx to its centroid bucket (or the loose list).
func (g *mdGrid) place(idx int, b query.Box) {
	if !gridable(b) {
		g.loose = append(g.loose, idx)
		return
	}
	key := cellKey(g.cellOf(centroid(b)))
	g.cells[key] = append(g.cells[key], idx)
}

// rebuild reconstructs the grid over the current region array. Cell widths
// are the maximum region width per dimension (minimum 1 so point-sized
// regions still hash; the containment check keeps correctness regardless of
// cell size — widths only bound how far a containing region's bucket can be).
func (d *DenseMD) rebuild() {
	if len(d.regions) == 0 {
		d.grid = mdGrid{}
		return
	}
	m := len(d.regions[0].Box.Dims)
	g := mdGrid{
		built: true,
		cell:  make([]float64, m),
		seen:  make([]float64, m),
		cells: make(map[string][]int, len(d.regions)),
	}
	for _, r := range d.regions {
		if !gridable(r.Box) {
			continue
		}
		for j, iv := range r.Box.Dims {
			if w := iv.Hi - iv.Lo; w > g.seen[j] {
				g.seen[j] = w
			}
		}
	}
	for j := range g.cell {
		g.cell[j] = math.Max(g.seen[j], 1) * gridCellSlack
	}
	for i, r := range d.regions {
		g.place(i, r.Box)
	}
	d.grid = g
}

// Lookup returns a recorded region fully covering box, if any.
func (d *DenseMD) Lookup(box query.Box) (Region, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.grid.built {
		for _, r := range d.regions {
			if r.Box.ContainsBox(box) {
				return r, true
			}
		}
		return Region{}, false
	}
	for _, i := range d.grid.loose {
		if d.regions[i].Box.ContainsBox(box) {
			return d.regions[i], true
		}
	}
	if !gridable(box) {
		// A non-finite box fits only inside a non-finite region, and those
		// all live in the loose list scanned above.
		return Region{}, false
	}
	// Walk the 3^m cells around the lookup centroid: a containing region's
	// centroid lies within one (slack-inflated) cell width on every
	// dimension, so its integer cell index differs by at most 1. One
	// backing array serves both coordinate slices (base stays fixed while
	// coords varies during the walk).
	m := len(box.Dims)
	backing := make([]int64, 2*m)
	base, coords := backing[:m], backing[m:]
	for j, iv := range box.Dims {
		base[j] = int64(math.Floor((iv.Lo + (iv.Hi-iv.Lo)/2) / d.grid.cell[j]))
	}
	var found Region
	ok := d.walkCells(box, base, coords, 0, &found)
	return found, ok
}

// walkCells recurses over the ±1 integer-cell neighborhood of base,
// checking each visited bucket's regions for containment of box. It reports
// whether a containing region was found (written to found).
func (d *DenseMD) walkCells(box query.Box, base, coords []int64, j int, found *Region) bool {
	if j == len(base) {
		for _, i := range d.grid.cells[cellKey(coords)] {
			if d.regions[i].Box.ContainsBox(box) {
				*found = d.regions[i]
				return true
			}
		}
		return false
	}
	for _, off := range [3]int64{0, -1, 1} {
		coords[j] = base[j] + off
		if d.walkCells(box, base, coords, j+1, found) {
			return true
		}
	}
	return false
}

// Insert records a fully-crawled box, with the arena rows of every database
// tuple inside it, under the given knowledge epoch; the index keeps the
// slice. Regions contained in the new box are absorbed (their tuples are a subset
// of the fresh crawl, so the absorbing region carries the *new* epoch — the
// crawl just re-verified everything inside it).
func (d *DenseMD) Insert(box query.Box, rows []uint32, epoch int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := make([]Region, 0, len(d.regions)+1)
	for _, r := range d.regions {
		if box.ContainsBox(r.Box) {
			continue
		}
		kept = append(kept, r)
	}
	absorbed := len(kept) != len(d.regions)
	d.regions = append(kept, Region{Box: box, Rows: rows, Epoch: epoch})
	switch {
	case !d.grid.built, absorbed, d.widerThanCells(box):
		// Stored bucket indices shifted (absorb) or the cell-width
		// invariant broke (a wider region arrived): rebuild, amortized.
		d.rebuild()
	default:
		d.grid.place(len(d.regions)-1, box)
	}
}

// widerThanCells reports whether box breaks the grid's cell-width invariant
// on some dimension: every bucketed width must stay at most cell/slack,
// preserving the strict ratio bound the ±1 lookup neighborhood relies on.
// A true return triggers rebuild, which recomputes widths from scratch.
func (d *DenseMD) widerThanCells(box query.Box) bool {
	if !gridable(box) {
		return false // goes to the loose list; widths don't matter
	}
	for j, iv := range box.Dims {
		if (iv.Hi-iv.Lo)*gridCellSlack > d.grid.cell[j] {
			return true
		}
	}
	return false
}

// Promote raises the epoch of the region whose Box equals box exactly (a
// re-validation confirmed its contents). Reports whether the region was
// found; an already-newer epoch is kept.
func (d *DenseMD) Promote(box query.Box, epoch int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.regions {
		if sameBox(d.regions[i].Box, box) {
			if d.regions[i].Epoch < epoch {
				d.regions[i].Epoch = epoch
			}
			return true
		}
	}
	return false
}

// Remove evicts the region whose Box equals box exactly (a re-validation
// found drift). The grid is rebuilt since stored bucket indices shift.
// Reports whether a region was removed.
func (d *DenseMD) Remove(box query.Box) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.regions {
		if sameBox(d.regions[i].Box, box) {
			d.regions = append(d.regions[:i:i], d.regions[i+1:]...)
			d.rebuild()
			return true
		}
	}
	return false
}

// StaleCount returns the number of recorded regions whose epoch trails cur.
func (d *DenseMD) StaleCount(cur int64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, r := range d.regions {
		if r.Epoch < cur {
			n++
		}
	}
	return n
}

// sameBox reports exact (dimension-wise) box equality.
func sameBox(a, b query.Box) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for j := range a.Dims {
		if a.Dims[j] != b.Dims[j] {
			return false
		}
	}
	return true
}

// Len returns the number of recorded regions.
func (d *DenseMD) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.regions)
}

// GridStats describes the centroid grid's shape for observability.
type GridStats struct {
	Regions   int // recorded regions
	Buckets   int // occupied grid cells
	MaxBucket int // largest bucket population (lookup worst case × 3^m)
	Loose     int // regions outside the grid (non-finite boxes)
}

// Stats returns the index's current grid statistics.
func (d *DenseMD) Stats() GridStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st := GridStats{Regions: len(d.regions), Loose: len(d.grid.loose)}
	st.Buckets = len(d.grid.cells)
	for _, b := range d.grid.cells {
		if len(b) > st.MaxBucket {
			st.MaxBucket = len(b)
		}
	}
	return st
}

// Export returns a copy of the recorded regions (for inspection). Region row
// lists are shared and must not be modified.
func (d *DenseMD) Export() []Region {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Region(nil), d.regions...)
}
