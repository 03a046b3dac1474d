package history

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/query"
	"repro/internal/types"
)

// TestScanMatchingReentrant is the regression test for the old design's
// self-deadlock: a whole-store scan used to hold the store's read lock for
// the whole user callback, so a callback that called back into the store (an
// Add taking the write lock, or a read racing a blocked writer) wedged
// forever. Iteration now runs over an immutable snapshot, so re-entry —
// including mutation — is legal; and a scan from a row on visits only the
// rows after it.
func TestScanMatchingReentrant(t *testing.T) {
	s := NewStore(schema())
	s.Add(
		types.Tuple{ID: 1, Ord: []float64{10, 0, 0}, Cat: map[string]string{"c": "x"}},
		types.Tuple{ID: 2, Ord: []float64{20, 0, 0}, Cat: map[string]string{"c": "x"}},
	)
	visited := 0
	v := s.View()
	s.ScanMatching(query.New(), v, 0, func(row int) {
		tp := v.Tuple(row)
		visited++
		// Re-enter with reads of every flavor.
		if n := s.CountMatching(query.New()); n < 2 {
			t.Errorf("re-entrant CountMatching = %d, want ≥ 2", n)
		}
		if _, ok := s.MinMatching(query.New(), 0, types.FullInterval()); !ok {
			t.Error("re-entrant MinMatching found nothing")
		}
		if _, ok := s.Get(tp.ID); !ok {
			t.Errorf("re-entrant Get(%d) missed", tp.ID)
		}
		// Re-enter with a write: tuples added mid-iteration must not be
		// visited (the snapshot is immutable) and must not deadlock.
		s.Add(types.Tuple{ID: 100 + tp.ID, Ord: []float64{5, 0, 0}, Cat: map[string]string{"c": "x"}})
	})
	if visited != 2 {
		t.Fatalf("visited %d tuples, want exactly the 2 present at iteration start", visited)
	}
	if s.Size() != 4 {
		t.Fatalf("Size = %d after re-entrant Adds, want 4", s.Size())
	}
	var rows []int
	s.ScanMatching(query.New(), s.View(), 1, func(row int) { rows = append(rows, row) })
	if len(rows) != 3 || rows[0] != 1 || rows[2] != 3 {
		t.Fatalf("scan from row 1 visited rows %v of 4, want [1 2 3]", rows)
	}
}

// TestConcurrentAddAcrossBlockBoundaries: writers racing over many arena
// block boundaries. A shard merge orders rows through a view, and a view
// taken before the shard lock can predate a row — and the block holding it —
// that a faster writer already slipped into the shard (index out of range in
// the merge, about one run in eight of BenchmarkHistoryWriteMix/write-heavy).
// The view is now taken under the shard lock, so it covers whatever the
// shard holds.
func TestConcurrentAddAcrossBlockBoundaries(t *testing.T) {
	defer func(old int) { maxBufferLen = old }(maxBufferLen)
	maxBufferLen = 64

	s := NewStore(schema())
	const writers, perW = 8, 4096 + 512
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.Add(types.Tuple{ID: w*perW + i, Ord: []float64{float64(i % 97), float64(w), 0}})
			}
		}(w)
	}
	wg.Wait()
	if s.Rows() != writers*perW || s.CountMatching(query.New()) != writers*perW {
		t.Fatalf("stored %d rows, counted %d, want %d", s.Rows(), s.CountMatching(query.New()), writers*perW)
	}
}

// TestConcurrentAddReadStress hammers one store from many goroutines under
// -race: writers stream batches in (crossing the flush threshold many times
// on every shard), while readers run indexed lookups across all attributes
// and whole-store scans, asserting only invariants that hold mid-write (a
// returned tuple must really match, monotone growth, snapshot consistency).
func TestConcurrentAddReadStress(t *testing.T) {
	defer func(old int) { maxBufferLen = old }(maxBufferLen)
	maxBufferLen = 32

	s := NewStore(schema())
	const (
		writers = 4
		readers = 4
		perW    = 2000
	)
	var writeWG, readWG sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				id := w*perW + i
				s.Add(types.Tuple{
					ID:  id,
					Ord: []float64{rng.Float64() * 100, rng.Float64() * 100, 0},
					Cat: map[string]string{"c": []string{"x", "y"}[rng.Intn(2)]},
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for !stop.Load() {
				attr := rng.Intn(2)
				lo := rng.Float64() * 80
				iv := types.Interval{Lo: lo, Hi: lo + 20, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
				q := query.New()
				if rng.Intn(2) == 0 {
					q = q.WithCat("c", "x")
				}
				if tp, ok := s.MinMatching(q, attr, iv); ok {
					if !q.Matches(tp) || !iv.Contains(tp.Ord[attr]) {
						t.Errorf("MinMatching returned non-qualifying tuple %v for %s ∩ %s", tp, q, iv)
						return
					}
				}
				if tp, ok := s.MaxMatching(q, attr, iv); ok {
					if !q.Matches(tp) || !iv.Contains(tp.Ord[attr]) {
						t.Errorf("MaxMatching returned non-qualifying tuple %v for %s ∩ %s", tp, q, iv)
						return
					}
				}
				before := s.Size()
				n := s.CountMatching(query.New())
				if n < before {
					t.Errorf("CountMatching(TRUE) = %d below earlier Size %d: snapshot shrank", n, before)
					return
				}
				v := s.View()
				s.ScanMatching(q, v, 0, func(row int) {
					if tp := v.Tuple(row); !q.Matches(tp) {
						t.Errorf("ScanMatching yielded non-matching tuple %v", tp)
					}
				})
			}
		}(r)
	}
	// Readers overlap the whole write phase, then are released.
	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()

	if s.Size() != writers*perW {
		t.Fatalf("Size = %d, want %d", s.Size(), writers*perW)
	}
	// Post-stress serial sanity: indexed lookups agree with brute force.
	ref := newReferenceStore()
	v := s.View()
	s.ScanMatching(query.New(), v, 0, func(row int) { ref.Add(v.Tuple(row)) })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q, attr, iv := randomQuery(rng), rng.Intn(2), randomInterval(rng)
		got, gok := s.MinMatching(q, attr, iv)
		want, wok := ref.MinMatching(q, attr, iv)
		if gok != wok || (gok && got.ID != want.ID) {
			t.Fatalf("post-stress MinMatching mismatch: (%v,%v) vs reference (%v,%v)", got, gok, want, wok)
		}
	}
}
