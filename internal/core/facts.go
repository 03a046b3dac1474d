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
// confirming probe (see coalescer.fetch).
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
// beside it — the same binary search plus short scan index.Dense1D.Lookup
// does, generalised to overlapping intervals: candidates are the facts that
// start at or before the probe, walked nearest first, and the walk stops as
// soon as nothing further left reaches the probe's upper bound. Every
// candidate is verified in full, so hash collisions cost time, never
// correctness.

package core

import (
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/query"
	"repro/internal/types"
)

// defaultProbeCacheSize bounds the fact index when Options.ProbeCacheSize is
// zero. A fact is a query, an epoch and 4 bytes per answered tuple, so the
// worst-case footprint is a few hundred bytes per fact.
const defaultProbeCacheSize = 16384

type factRange struct {
	attr int
	iv   types.Interval
}

type factCat struct{ name, value string }

// fact is one probe answer. Everything but epoch and the LRU links is
// immutable once the fact is admitted, so rows may be read after the index
// lock is released; a changed answer is a new fact.
type fact struct {
	key     string      // canonical query string: the exact-match key
	ranges  []factRange // ascending attr
	cats    []factCat   // ascending name
	rows    []uint32    // history arena rows, upstream rank order
	epoch   int64       // knowledge epoch the answer was learned or last confirmed under
	partial bool        // an overflow page: answers its own key only

	// group is where the containment index filed a complete fact (nil for a
	// partial one); lo, hi its extent on the group's first attribute — what
	// its bucket is ordered on (never NaN).
	group  *factGroup
	lo, hi float64

	newer, older *fact // LRU list
}

// newFact builds the structured form of q. Ranges spanning the whole real
// line stay in the fact (the canonical key must round-trip through the
// journal) but constrain nothing, so attrs — the fact's group signature —
// leaves them out.
func newFact(key string, q query.Query, rows []uint32, partial bool, epoch int64) (f *fact, attrs []int) {
	f = &fact{key: key, rows: rows, partial: partial, epoch: epoch, lo: math.Inf(-1), hi: math.Inf(1)}
	if len(q.Ranges) > 0 {
		f.ranges = make([]factRange, 0, len(q.Ranges))
		for attr, iv := range q.Ranges {
			f.ranges = append(f.ranges, factRange{attr, iv})
		}
		sort.Slice(f.ranges, func(i, j int) bool { return f.ranges[i].attr < f.ranges[j].attr })
		for _, r := range f.ranges {
			if !math.IsInf(r.iv.Lo, -1) || !math.IsInf(r.iv.Hi, 1) {
				attrs = append(attrs, r.attr)
			}
		}
		if len(attrs) > 0 {
			// A NaN bound keeps the widest extent: ordering only narrows
			// the candidates, covers decides.
			first := q.Ranges[attrs[0]]
			if !math.IsNaN(first.Lo) {
				f.lo = first.Lo
			}
			if !math.IsNaN(first.Hi) {
				f.hi = first.Hi
			}
		}
	}
	if len(q.Cats) > 0 {
		f.cats = make([]factCat, 0, len(q.Cats))
		for name, value := range q.Cats {
			f.cats = append(f.cats, factCat{name, value})
		}
		sort.Slice(f.cats, func(i, j int) bool { return f.cats[i].name < f.cats[j].name })
	}
	return f, attrs
}

// covers reports whether every tuple matching q also matches the fact's own
// query: each of the fact's ranges contains q's range on that attribute (a
// missing range is the full interval) and each of its categorical
// predicates is one of q's.
func (f *fact) covers(q query.Query) bool {
	for _, r := range f.ranges {
		iv, ok := q.Ranges[r.attr]
		if !ok {
			iv = types.FullInterval()
		}
		if !r.iv.Covers(iv) {
			return false
		}
	}
	for _, c := range f.cats {
		if v, ok := q.Cats[c.name]; !ok || v != c.value {
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
		int64(len(f.ranges))*int64(unsafe.Sizeof(factRange{})) +
		int64(len(f.cats))*int64(unsafe.Sizeof(factCat{})) + 4*int64(len(f.rows))
	for _, c := range f.cats {
		n += int64(len(c.name) + len(c.value))
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

func (b *factBucket) remove(f *fact) {
	i := sort.Search(len(b.facts), func(i int) bool { return b.facts[i].lo >= f.lo })
	for b.facts[i] != f {
		i++
	}
	b.facts = slices.Delete(b.facts, i, i+1)
	b.resetMaxHi(i)
}

// find returns a fact of epoch ≥ cur covering q, whose range on the group's
// first attribute is span.
func (b *factBucket) find(q query.Query, span types.Interval, cur int64) *fact {
	i := sort.Search(len(b.facts), func(i int) bool { return b.facts[i].lo > span.Lo })
	for i--; i >= 0 && b.maxHi[i] >= span.Hi; i-- {
		if f := b.facts[i]; f.epoch >= cur && f.covers(q) {
			return f
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
	for _, c := range f.cats {
		h ^= x.catHash(c.name, c.value)
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
	for name, value := range q.Cats {
		hs = append(hs, x.catHash(name, value))
	}
	var mask uint64
	for attr := range q.Ranges {
		mask |= 1 << (uint(attr) & 63)
	}
	for _, g := range x.groups {
		if g.mask&^mask != 0 {
			continue
		}
		span := types.FullInterval()
		if len(g.attrs) > 0 {
			var ok bool
			if span, ok = q.Ranges[g.attrs[0]]; !ok {
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
					if f := b.find(q, span, cur); f != nil {
						return f
					}
				}
			}
			continue
		}
		for _, b := range g.buckets {
			if f := b.find(q, span, cur); f != nil {
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
