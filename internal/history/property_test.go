package history

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/types"
)

// referenceStore is the brute-force oracle for the sharded store: a plain
// linear-scan implementation with no indexes and the same tie-break rules
// (min: smallest ID, max: largest ID, best: smallest ID). Like the store it
// keeps every VERSION of a tuple: all holds one entry per distinct value set
// an ID was added with, in insertion order, and byID the latest.
type referenceStore struct {
	byID map[int]types.Tuple
	all  []types.Tuple
}

func newReferenceStore() *referenceStore {
	return &referenceStore{byID: make(map[int]types.Tuple)}
}

func (r *referenceStore) Add(tuples ...types.Tuple) int {
	added := 0
	for _, t := range tuples {
		if cur, seen := r.byID[t.ID]; seen && cur.Equal(t) {
			continue
		}
		c := t.Clone()
		r.byID[t.ID] = c
		r.all = append(r.all, c)
		added++
	}
	return added
}

func (r *referenceStore) MinMatching(q query.Query, attr int, iv types.Interval) (types.Tuple, bool) {
	var best types.Tuple
	found := false
	for _, t := range r.all {
		if !q.Matches(t) || !iv.Contains(t.Ord[attr]) {
			continue
		}
		if !found || t.Ord[attr] < best.Ord[attr] ||
			(t.Ord[attr] == best.Ord[attr] && t.ID < best.ID) {
			best, found = t, true
		}
	}
	return best, found
}

func (r *referenceStore) MaxMatching(q query.Query, attr int, iv types.Interval) (types.Tuple, bool) {
	var best types.Tuple
	found := false
	for _, t := range r.all {
		if !q.Matches(t) || !iv.Contains(t.Ord[attr]) {
			continue
		}
		if !found || t.Ord[attr] > best.Ord[attr] ||
			(t.Ord[attr] == best.Ord[attr] && t.ID > best.ID) {
			best, found = t, true
		}
	}
	return best, found
}

func (r *referenceStore) CountMatching(q query.Query) int {
	n := 0
	for _, t := range r.all {
		if q.Matches(t) {
			n++
		}
	}
	return n
}

func (r *referenceStore) Matching(q query.Query) []types.Tuple {
	var out []types.Tuple
	for _, t := range r.all {
		if q.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

// gridValue draws attribute values from a coarse grid so that duplicates and
// exact interval-endpoint hits are common — the cases where open/closed
// endpoint handling and tie-breaking actually matter.
func gridValue(rng *rand.Rand) float64 { return float64(rng.Intn(21)) * 5 }

// randomInterval builds intervals whose endpoints frequently coincide with
// grid values, with independently open/closed (and occasionally unbounded or
// empty) sides.
func randomInterval(rng *rand.Rand) types.Interval {
	switch rng.Intn(10) {
	case 0:
		return types.FullInterval()
	case 1: // point interval, possibly degenerate-empty when a side is open
		v := gridValue(rng)
		return types.Interval{Lo: v, Hi: v, LoOpen: rng.Intn(3) == 0, HiOpen: rng.Intn(3) == 0}
	case 2: // half-unbounded
		v := gridValue(rng)
		if rng.Intn(2) == 0 {
			return types.Interval{Lo: math.Inf(-1), Hi: v, LoOpen: true, HiOpen: rng.Intn(2) == 0}
		}
		return types.Interval{Lo: v, Hi: math.Inf(1), LoOpen: rng.Intn(2) == 0, HiOpen: true}
	default:
		lo, hi := gridValue(rng), gridValue(rng)
		if lo > hi {
			lo, hi = hi, lo
		}
		return types.Interval{Lo: lo, Hi: hi, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
	}
}

// randomQuery mixes categorical filters and range predicates on either
// ordinal attribute (including the one being scanned).
func randomQuery(rng *rand.Rand) query.Query {
	q := query.New()
	if rng.Intn(2) == 0 {
		q = q.WithCat("c", []string{"x", "y"}[rng.Intn(2)])
	}
	if rng.Intn(3) == 0 {
		q = q.WithRange(rng.Intn(2), randomInterval(rng))
	}
	return q
}

func randomTuple(rng *rand.Rand, id int) types.Tuple {
	return types.Tuple{
		ID:  id,
		Ord: []float64{gridValue(rng), gridValue(rng), 0},
		Cat: map[string]string{"c": []string{"x", "y"}[rng.Intn(2)]},
	}
}

// TestShardedStoreMatchesReference interleaves Add / MinMatching /
// MaxMatching / CountMatching / ScanMatching / Get calls
// against the columnar store and the brute-force row-struct reference,
// asserting identical results throughout (including categorical predicates
// and open/closed interval endpoints, via randomQuery/randomInterval). The
// flush threshold is shrunk so buffer merges happen constantly, and tuple
// IDs are drawn from a small range so duplicate Adds — which store a new row
// version, the values being redrawn — are exercised too.
func TestShardedStoreMatchesReference(t *testing.T) {
	defer func(old int) { maxBufferLen = old }(maxBufferLen)
	maxBufferLen = 8

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(schema())
		ref := newReferenceStore()
		for op := 0; op < 400; op++ {
			switch rng.Intn(7) {
			case 0, 1: // Add a batch, IDs from a small range to force dups
				batch := make([]types.Tuple, 1+rng.Intn(5))
				for i := range batch {
					batch[i] = randomTuple(rng, rng.Intn(200))
				}
				if got, want := s.Add(batch...), ref.Add(batch...); got != want {
					t.Fatalf("seed %d op %d: Add returned %d, reference %d", seed, op, got, want)
				}
			case 2:
				q, attr, iv := randomQuery(rng), rng.Intn(2), randomInterval(rng)
				got, gok := s.MinMatching(q, attr, iv)
				want, wok := ref.MinMatching(q, attr, iv)
				if gok != wok || (gok && got.ID != want.ID) {
					t.Fatalf("seed %d op %d: MinMatching(%s, A%d, %s) = (%v,%v), reference (%v,%v)",
						seed, op, q, attr, iv, got, gok, want, wok)
				}
			case 3:
				q, attr, iv := randomQuery(rng), rng.Intn(2), randomInterval(rng)
				got, gok := s.MaxMatching(q, attr, iv)
				want, wok := ref.MaxMatching(q, attr, iv)
				if gok != wok || (gok && got.ID != want.ID) {
					t.Fatalf("seed %d op %d: MaxMatching(%s, A%d, %s) = (%v,%v), reference (%v,%v)",
						seed, op, q, attr, iv, got, gok, want, wok)
				}
			case 4:
				q := randomQuery(rng)
				if got, want := s.CountMatching(q), ref.CountMatching(q); got != want {
					t.Fatalf("seed %d op %d: CountMatching(%s) = %d, reference %d", seed, op, q, got, want)
				}
			case 5: // ScanMatching visits exactly the matching versions, in insertion order
				q := randomQuery(rng)
				want := ref.Matching(q)
				n := 0
				v := s.View()
				s.ScanMatching(q, v, 0, func(row int) {
					if tp := v.Tuple(row); n >= len(want) || !tp.Equal(want[n]) {
						t.Fatalf("seed %d op %d: ScanMatching(%s) visit %d = %v, reference %v", seed, op, q, n, tp, want[n:])
					}
					n++
				})
				if n != len(want) {
					t.Fatalf("seed %d op %d: ScanMatching(%s) visited %d, reference %d", seed, op, q, n, len(want))
				}
			case 6: // Get / Has round-trip through the columnar arena
				id := rng.Intn(200)
				got, gok := s.Get(id)
				want, wok := ref.byID[id]
				if gok != wok || s.Has(id) != wok {
					t.Fatalf("seed %d op %d: Get(%d) ok=%v, reference %v", seed, op, id, gok, wok)
				}
				if gok && (got.ID != want.ID || got.Ord[0] != want.Ord[0] || got.Cat["c"] != want.Cat["c"]) {
					t.Fatalf("seed %d op %d: Get(%d) = %v, reference %v", seed, op, id, got, want)
				}
			}
		}
		if s.Size() != len(ref.byID) || s.Rows() != len(ref.all) {
			t.Fatalf("seed %d: Size = %d Rows = %d, reference %d IDs in %d versions", seed, s.Size(), s.Rows(), len(ref.byID), len(ref.all))
		}
	}
}
