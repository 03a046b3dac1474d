// The probe layer's memory: coverage facts over the history arena.
//
// Every probe answer is remembered as a fact
//
//	{query box + categorical predicates, epoch, arena rows in rank order}
//
// which stores no tuple payload of its own — the history arena already holds
// every tuple any probe ever returned, and a fact only cites rows of it.
// There are two kinds, told apart by what the upstream said (§2.1):
//
//   - A COMPLETE answer (valid or underflow) is authoritative for its whole
//     box: the upstream returned EVERY tuple matching the query, in its own
//     rank order. Such a fact answers the identical probe (exact
//     canonical-key match) and, at the current epoch only, every probe its
//     box CONTAINS (outer ranges ⊇ inner ranges, outer categorical
//     predicates ⊆ inner ones): the answer is the fact's rows filtered by
//     the inner query, order kept, which is exactly what the upstream would
//     say, because the upstream's ranking is one static order and a complete
//     answer lists all of the box in that order.
//   - An OVERFLOW page is the exact top-k of its box and proves nothing
//     about the rest of it. It is kept as a PARTIAL fact, filed under its
//     exact key only and never in the containment index: it replays, flagged
//     as overflowing, for the identical probe and contains nothing.
//
// Either kind answers its own probe at any epoch — a stale one after one
// confirming probe (see Session.fetch).
//
// # Finding a containing fact without scanning every fact
//
// A complete fact can only contain a probe that constrains at least the
// attributes the fact constrains, with the same categorical values. Complete
// facts are therefore grouped by the exact set of range-constrained
// attributes (few distinct sets exist; a bit mask rejects most groups in one
// AND) and, inside a group, bucketed by a hash of their categorical
// predicates; a probe with c categorical predicates visits the 2^c
// sub-signatures it can be contained under (or every bucket of the group,
// when that is fewer). A bucket keeps its facts ordered by the lower bound on
// the group's first attribute, with a running maximum of the upper bounds
// beside it — a binary search plus a short scan over overlapping intervals:
// candidates are the facts that start at or before the probe, walked nearest
// first, and the walk stops as soon as nothing further left reaches the
// probe's upper bound. Every candidate is verified in full, so hash
// collisions cost time, never correctness.
//
// # Crawled regions
//
// A crawled region — Algorithm 4's interval, Algorithm 6's box — is a fact
// too: a box over one or more ordinal attributes, the epoch it was crawled
// under, and the arena row of every tuple of the whole database inside it
// (the crawl drops the user's selection condition, so the region serves every
// later query). Its rows ascend by (value on the box's first attribute, tuple
// ID) beside their values, a history run the 1D oracle binary-searches.
// crawledFacts holds these facts for every attribute count, 1D being m = 1,
// in the fact index's lo-ordered buckets, one per attribute set (a crawl has
// no categorical predicates to sign). Unlike the fact index it is
// pinned and unbounded, and it exists whatever ProbeCacheSize says: a box crawled a moment ago must still be covered when
// its crawler looks it up. A crawled fact never changes once stored; a
// re-validation that confirms it swaps in a re-stamped copy.

package core

import (
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/colstore"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/types"
)

// defaultProbeCacheSize bounds the fact index when Options.ProbeCacheSize is
// zero. A fact is a query, an epoch and 4 bytes per answered tuple, so the
// worst-case footprint is a few hundred bytes per fact.
const defaultProbeCacheSize = 16384

// fact is one probe answer, or one crawled region (q of ranges only; key,
// group and the LRU links unset). Everything but epoch and the LRU links is immutable once
// the fact is admitted, so rows may be read after the index lock is
// released; a changed answer is a new fact.
type fact struct {
	key     string      // canonical query string: the exact-match key
	q       query.Query // the probe, or a crawled region's box (ranges only)
	rows    []uint32    // history arena rows, upstream rank order (run order for a crawled region)
	vals    []float64   // a crawled region's: each row's value on its first attribute
	epoch   int64       // knowledge epoch the answer was learned or last confirmed under
	partial bool        // an overflow page: answers its own key only

	// group is where the containment index filed a complete fact (nil for a
	// partial one); lo, hi its extent on the group's first attribute — what
	// its bucket is ordered on (never NaN).
	group  *factGroup
	lo, hi float64

	newer, older *fact // LRU list
}

// newFact builds the fact for q's answer, holding its own copy of q. Ranges
// spanning the whole real line stay in the fact (the canonical key must
// round-trip through the journal) but constrain nothing, so attrs — the
// fact's group signature — leaves them out.
func newFact(key string, q query.Query, rows []uint32, partial bool, epoch int64) (f *fact, attrs []int) {
	f = &fact{key: key, q: q.Clone(), rows: rows, partial: partial, epoch: epoch, lo: math.Inf(-1), hi: math.Inf(1)}
	for _, r := range q.Ranges() {
		if math.IsInf(r.Iv.Lo, -1) && math.IsInf(r.Iv.Hi, 1) {
			continue
		}
		if len(attrs) == 0 {
			// A NaN bound keeps the widest extent: ordering only narrows
			// the candidates, covers decides.
			if !math.IsNaN(r.Iv.Lo) {
				f.lo = r.Iv.Lo
			}
			if !math.IsNaN(r.Iv.Hi) {
				f.hi = r.Iv.Hi
			}
		}
		attrs = append(attrs, r.Attr)
	}
	return f, attrs
}

// covers reports whether every tuple matching q also matches the fact's own
// query: each of the fact's ranges contains q's range on that attribute (a
// missing range is the full interval) and each of its categorical
// predicates is one of q's.
func (f *fact) covers(q query.Query) bool {
	for _, r := range f.q.Ranges() {
		iv, ok := q.Range(r.Attr)
		if !ok {
			iv = types.FullInterval()
		}
		if !r.Iv.Covers(iv) {
			return false
		}
	}
	for _, c := range f.q.Cats() {
		if v, ok := q.Cat(c.Name); !ok || v != c.Value {
			return false
		}
	}
	return true
}

// factOverhead approximates what the index itself holds per fact beyond the
// fact's own allocations: the key-map entry, the bucket slot and its maxHi.
const factOverhead = 64

// size approximates the fact's resident bytes.
func (f *fact) size() int64 {
	n := int64(unsafe.Sizeof(*f)) + factOverhead + int64(len(f.key)) +
		int64(len(f.q.Ranges()))*int64(unsafe.Sizeof(query.Range{})) +
		int64(len(f.q.Cats()))*int64(unsafe.Sizeof(query.Cat{})) + 4*int64(len(f.rows))
	for _, c := range f.q.Cats() {
		n += int64(len(c.Name) + len(c.Value))
	}
	return n
}

// factBucket holds the facts of one group that share a categorical
// signature (hash), ascending by lo; maxHi[i] is the largest hi among
// facts[:i+1].
type factBucket struct {
	facts []*fact
	maxHi []float64
}

// resetMaxHi recomputes the running maximum from index i on.
func (b *factBucket) resetMaxHi(i int) {
	b.maxHi = b.maxHi[:len(b.facts)]
	for ; i < len(b.facts); i++ {
		b.maxHi[i] = b.facts[i].hi
		if i > 0 && b.maxHi[i-1] > b.maxHi[i] {
			b.maxHi[i] = b.maxHi[i-1]
		}
	}
}

func (b *factBucket) insert(f *fact) {
	i := sort.Search(len(b.facts), func(i int) bool { return b.facts[i].lo > f.lo })
	b.facts = slices.Insert(b.facts, i, f)
	b.maxHi = append(b.maxHi, 0)
	b.resetMaxHi(i)
}

// at returns f's position in the bucket, or -1 when it is not there.
func (b *factBucket) at(f *fact) int {
	i := sort.Search(len(b.facts), func(i int) bool { return b.facts[i].lo >= f.lo })
	for ; i < len(b.facts) && b.facts[i].lo == f.lo; i++ {
		if b.facts[i] == f {
			return i
		}
	}
	return -1
}

// remove takes f out of the bucket if it is there.
func (b *factBucket) remove(f *fact) {
	if i := b.at(f); i >= 0 {
		b.facts = slices.Delete(b.facts, i, i+1)
		b.resetMaxHi(i)
	}
}

// find returns the first fact satisfying ok among those starting at or before
// start on the group's first attribute, walked nearest first; the walk stops
// once nothing further left reaches reach.
func (b *factBucket) find(start, reach float64, ok func(*fact) bool) *fact {
	i := sort.Search(len(b.facts), func(i int) bool { return b.facts[i].lo > start })
	for i--; i >= 0 && b.maxHi[i] >= reach; i-- {
		if ok(b.facts[i]) {
			return b.facts[i]
		}
	}
	return nil
}

// factGroup holds the facts constraining exactly the attributes attrs.
type factGroup struct {
	attrs   []int  // ascending; nil for facts with categorical predicates only
	mask    uint64 // bit attr&63 per attribute: the cheap subset pre-test
	buckets map[uint64]*factBucket
}

func attrMask(attrs []int) uint64 {
	var m uint64
	for _, a := range attrs {
		m |= 1 << (uint(a) & 63)
	}
	return m
}

// factIndex is the bounded LRU of coverage facts. It is safe for concurrent
// use; entries and bytes are maintained on admit and evict so that reading
// them — every /v1/stats and /metrics scrape does — takes no lock and walks
// nothing.
type factIndex struct {
	mu         sync.Mutex
	cap        int
	byKey      map[string]*fact
	head, tail *fact // LRU: head is the most recently used
	groups     []*factGroup
	seed       maphash.Seed

	entries atomic.Int64
	bytes   atomic.Int64
}

func newFactIndex(capacity int) *factIndex {
	if capacity <= 0 {
		return nil
	}
	return &factIndex{cap: capacity, byKey: make(map[string]*fact), seed: maphash.MakeSeed()}
}

func (x *factIndex) catHash(name, value string) uint64 {
	return maphash.String(x.seed, name)*0x9e3779b97f4a7c15 + maphash.String(x.seed, value)
}

func (x *factIndex) catsHash(f *fact) uint64 {
	var h uint64
	for _, c := range f.q.Cats() {
		h ^= x.catHash(c.Name, c.Value)
	}
	return h
}

// touch marks f most recently used.
func (x *factIndex) touch(f *fact) {
	if x.head == f {
		return
	}
	x.unlink(f)
	x.pushFront(f)
}

func (x *factIndex) pushFront(f *fact) {
	f.newer, f.older = nil, x.head
	if x.head != nil {
		x.head.newer = f
	} else {
		x.tail = f
	}
	x.head = f
}

func (x *factIndex) unlink(f *fact) {
	if f.newer != nil {
		f.newer.older = f.older
	} else {
		x.head = f.older
	}
	if f.older != nil {
		f.older.newer = f.newer
	} else {
		x.tail = f.newer
	}
	f.newer, f.older = nil, nil
}

// groupOf returns the group for attrs, creating it on first use.
func (x *factIndex) groupOf(attrs []int) *factGroup {
	for _, g := range x.groups {
		if slices.Equal(g.attrs, attrs) {
			return g
		}
	}
	g := &factGroup{attrs: attrs, mask: attrMask(attrs), buckets: make(map[uint64]*factBucket)}
	x.groups = append(x.groups, g)
	return g
}

// admit indexes f (whose group signature is attrs), replacing any fact
// under the same key and evicting the least recently used beyond capacity.
// A partial fact is filed under its key only: it contains nothing.
func (x *factIndex) admit(f *fact, attrs []int) {
	if old := x.byKey[f.key]; old != nil {
		x.drop(old)
	}
	x.byKey[f.key] = f
	x.pushFront(f)
	if !f.partial {
		f.group = x.groupOf(attrs)
		h := x.catsHash(f)
		b := f.group.buckets[h]
		if b == nil {
			b = &factBucket{}
			f.group.buckets[h] = b
		}
		b.insert(f)
	}
	x.entries.Add(1)
	x.bytes.Add(f.size())
	for len(x.byKey) > x.cap {
		x.drop(x.tail)
	}
}

// drop removes f from every structure.
func (x *factIndex) drop(f *fact) {
	delete(x.byKey, f.key)
	x.unlink(f)
	if g := f.group; g != nil {
		h := x.catsHash(f)
		b := g.buckets[h]
		b.remove(f)
		if len(b.facts) == 0 {
			delete(g.buckets, h)
			if len(g.buckets) == 0 {
				x.groups = slices.DeleteFunc(x.groups, func(o *factGroup) bool { return o == g })
			}
		}
	}
	x.entries.Add(-1)
	x.bytes.Add(-f.size())
}

// hitKind says how a lookup was answered.
type hitKind int

const (
	hitNone      hitKind = iota // no usable fact (an exact but stale one included)
	hitExact                    // a complete fact answers q itself
	hitPartial                  // a partial fact answers q itself: the rows are an overflow page
	hitContained                // the fact's box contains q: filter its rows by q
)

// lookup returns the rows of a fact of epoch ≥ cur that answers q — the one
// stored under q's own key (the canonical string, as bytes), else (when
// contained is set) a complete one whose box contains q. A stale fact under
// q's own key makes the lookup a miss without consulting containment: its
// owner re-validates it with one confirming probe.
func (x *factIndex) lookup(key []byte, q query.Query, cur int64, contained bool) ([]uint32, hitKind) {
	if x == nil {
		return nil, hitNone
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if f := x.byKey[string(key)]; f != nil { // no allocation: a map index by converted bytes
		if f.epoch < cur {
			return nil, hitNone
		}
		x.touch(f)
		if f.partial {
			return f.rows, hitPartial
		}
		return f.rows, hitExact
	}
	if !contained {
		return nil, hitNone
	}
	if f := x.containing(q, cur); f != nil {
		x.touch(f)
		return f.rows, hitContained
	}
	return nil, hitNone
}

// containing returns a fact of epoch ≥ cur whose box contains q. Callers
// hold x.mu.
func (x *factIndex) containing(q query.Query, cur int64) *fact {
	var buf [8]uint64
	hs := buf[:0]
	for _, c := range q.Cats() {
		hs = append(hs, x.catHash(c.Name, c.Value))
	}
	var mask uint64
	for _, r := range q.Ranges() {
		mask |= 1 << (uint(r.Attr) & 63)
	}
	covers := func(f *fact) bool { return f.epoch >= cur && f.covers(q) }
	for _, g := range x.groups {
		if g.mask&^mask != 0 {
			continue
		}
		span := types.FullInterval()
		if len(g.attrs) > 0 {
			var ok bool
			if span, ok = q.Range(g.attrs[0]); !ok {
				continue // mask bits alias above 63 attributes
			}
		}
		if len(hs) < 30 && 1<<len(hs) <= len(g.buckets) {
			for sub := 0; sub < 1<<len(hs); sub++ {
				var h uint64
				for i, hc := range hs {
					if sub>>i&1 == 1 {
						h ^= hc
					}
				}
				if b := g.buckets[h]; b != nil {
					if f := b.find(span.Lo, span.Hi, covers); f != nil {
						return f
					}
				}
			}
			continue
		}
		for _, b := range g.buckets {
			if f := b.find(span.Lo, span.Hi, covers); f != nil {
				return f
			}
		}
	}
	return nil
}

// learnOutcome says what learn did with a fresh upstream answer.
type learnOutcome struct {
	fact *fact // the fact now holding the answer at epoch cur
	// A fact older than cur sat under the key: promoted when the fresh answer
	// is the same (same rows, still complete or still overflowing), evicted
	// when it is not and the fresh fact replaced it.
	promoted, evicted bool
}

// learn records the upstream's fresh answer to q — rows, complete or an
// overflow page — as of epoch cur. An unchanged answer keeps its fact and
// moves it to cur; a changed one becomes a new fact of its own kind, so a box
// that starts or stops overflowing swaps a complete fact for a partial one
// or back.
func (x *factIndex) learn(key string, q query.Query, rows []uint32, overflow bool, cur int64) (out learnOutcome) {
	if x == nil {
		return out
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	old := x.byKey[key]
	stale := old != nil && old.epoch < cur
	if old != nil && old.partial == overflow && slices.Equal(old.rows, rows) {
		if stale {
			old.epoch = cur
		}
		x.touch(old)
		out.fact, out.promoted = old, stale
		return out
	}
	f, attrs := newFact(key, q, rows, overflow, cur)
	x.admit(f, attrs)
	out.fact, out.evicted = f, stale
	return out
}

// crawledFacts is the set of crawled regions (see "Crawled regions" above).
// It is safe for concurrent use: lookups take a read lock, inserts and
// re-validations a write lock, and a stored fact is never written, so the
// rows a lookup returns may be read after the lock is released.
type crawledFacts struct {
	hist   *history.Store // the store whose rows the facts cite
	mu     sync.RWMutex
	groups []*crawledGroup
}

// crawledGroup holds the crawled facts over exactly the attributes attrs
// (ascending).
type crawledGroup struct {
	attrs []int
	b     factBucket
}

// bucket returns the bucket of the facts over exactly the attributes of box,
// creating it when create is set (nil otherwise). Callers hold c.mu.
func (c *crawledFacts) bucket(box query.Query, create bool) *factBucket {
	rs := box.Ranges()
	for _, g := range c.groups {
		if len(g.attrs) == len(rs) && sameAttrs(g.attrs, rs) {
			return &g.b
		}
	}
	if !create {
		return nil
	}
	g := &crawledGroup{}
	for _, r := range rs {
		g.attrs = append(g.attrs, r.Attr)
	}
	c.groups = append(c.groups, g)
	return &g.b
}

func sameAttrs(attrs []int, rs []query.Range) bool {
	for i, r := range rs {
		if attrs[i] != r.Attr {
			return false
		}
	}
	return true
}

// boxCovers reports whether the box outer contains the box inner, both over
// the same attributes.
func boxCovers(outer, inner query.Query) bool {
	in := inner.Ranges()
	for i, r := range outer.Ranges() {
		if !r.Iv.Covers(in[i].Iv) {
			return false
		}
	}
	return true
}

// joins reports whether the union of boxes a and b, both over the same
// attributes, is itself a box: they differ on at most one attribute and meet
// there, or one contains the other. Two intervals meet when they overlap or
// touch at a point one of them holds: (a,b) and (b,c) stay apart, since
// neither was crawled at b.
func joins(a, b query.Query) bool {
	ar, br := a.Ranges(), b.Ranges()
	differ := -1
	for i := range ar {
		if ar[i].Iv != br[i].Iv {
			if differ >= 0 {
				return boxCovers(a, b) || boxCovers(b, a)
			}
			differ = i
		}
	}
	if differ < 0 {
		return true
	}
	x, y := ar[differ].Iv, br[differ].Iv
	return x.Hi >= y.Lo && x.Lo <= y.Hi &&
		!(x.Hi == y.Lo && x.HiOpen && y.LoOpen) && !(y.Hi == x.Lo && y.HiOpen && x.LoOpen)
}

// hull returns the smallest box holding both a and b.
func hull(a, b query.Query) query.Query {
	var h query.Query
	br := b.Ranges()
	for i, r := range a.Ranges() {
		iv, o := r.Iv, br[i].Iv
		if o.Lo < iv.Lo || (o.Lo == iv.Lo && !o.LoOpen) {
			iv.Lo, iv.LoOpen = o.Lo, o.LoOpen
		}
		if o.Hi > iv.Hi || (o.Hi == iv.Hi && !o.HiOpen) {
			iv.Hi, iv.HiOpen = o.Hi, o.HiOpen
		}
		h.AddRange(r.Attr, iv)
	}
	return h
}

// lookup returns a stored fact, of any epoch, over exactly the attributes of
// box whose box contains it, or nil.
func (c *crawledFacts) lookup(box query.Query) *fact {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := c.bucket(box, false)
	if b == nil {
		return nil
	}
	first := box.Ranges()[0].Iv
	return b.find(first.Lo, first.Hi, func(f *fact) bool { return boxCovers(f.q, box) })
}

// insert records the crawled box (ranges only) with rows, the
// arena rows of every database tuple inside it, learned under epoch. A
// stored fact over the same attributes that the new box contains is dropped,
// whatever its epoch: the new crawl re-read every tuple in it. One of the
// same epoch is absorbed when their union is itself a box (they meet along
// one attribute, or it contains the new box): the merged fact covers the
// union and keeps one row per (value, tuple ID) of both. A fact of another
// epoch that the new box does not contain stays apart — merging it would
// stamp rows the crawl did not re-read with the wrong epoch, or re-validate
// the new rows with its stale ones.
func (c *crawledFacts) insert(box query.Query, rows []uint32, epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The view that orders the rows is taken under the lock, so it covers
	// every row a fact inserted before this one cites.
	v := c.hist.View()
	run := dedupRun(v, colstore.NewRun(v, box.Ranges()[0].Attr, rows))
	f := &fact{q: box.Clone(), epoch: epoch}
	b := c.bucket(box, true)
	for {
		cur := f.q
		first := cur.Ranges()[0].Iv
		old := b.find(first.Hi, first.Lo, func(o *fact) bool {
			return boxCovers(cur, o.q) || (o.epoch == epoch && joins(cur, o.q))
		})
		if old == nil {
			break
		}
		b.remove(old)
		if boxCovers(cur, old.q) {
			continue
		}
		f.q = hull(cur, old.q)
		run = dedupRun(v, colstore.MergeRuns(v, run, old.run()))
	}
	first := f.q.Ranges()[0].Iv
	f.vals, f.rows, f.lo, f.hi = run.Vals, run.Rows, first.Lo, first.Hi
	b.insert(f)
}

// run is a crawled fact's rows as the history run they are.
func (f *fact) run() colstore.Run { return colstore.Run{Vals: f.vals, Rows: f.rows} }

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

// promote re-stamps f at epoch (a confirming probe found it unchanged) and
// returns the re-stamped copy, which replaces f unless f was absorbed or
// removed meanwhile.
func (c *crawledFacts) promote(f *fact, epoch int64) *fact {
	nf := *f
	nf.epoch = epoch
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucket(f.q, false)
	if i := b.at(f); i >= 0 {
		b.facts[i] = &nf
	}
	return &nf
}

// remove drops f (a confirming probe found drift): coverage of its box
// reverts to unknown, and the next visit crawls it again.
func (c *crawledFacts) remove(f *fact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucket(f.q, false).remove(f)
}

// count returns how many stored facts satisfy ok, calling it for every fact,
// group by group in ascending lo order.
func (c *crawledFacts) count(ok func(*fact) bool) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, g := range c.groups {
		for _, f := range g.b.facts {
			if ok(f) {
				n++
			}
		}
	}
	return n
}

// maxBucket returns the population of the largest bucket: the most facts
// one lookup may walk.
func (c *crawledFacts) maxBucket() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, g := range c.groups {
		n = max(n, len(g.b.facts))
	}
	return n
}
