package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "c", Kind: types.Categorical, Values: []string{"x", "y"}},
	})
}

func tuples(rng *rand.Rand, n int) []types.Tuple {
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100, 0},
			Cat: map[string]string{"c": []string{"x", "y"}[rng.Intn(2)]},
		}
	}
	return out
}

func TestAddDeduplicates(t *testing.T) {
	s := NewStore(schema())
	tp := types.Tuple{ID: 1, Ord: []float64{1, 2, 0}}
	if got := s.Add(tp, tp); got != 1 {
		t.Fatalf("Add returned %d, want 1", got)
	}
	if got := s.Add(tp); got != 0 {
		t.Fatalf("re-Add returned %d, want 0", got)
	}
	if s.Size() != 1 || !s.Has(1) || s.Has(2) {
		t.Fatal("membership broken")
	}
	got, ok := s.Get(1)
	if !ok || got.Ord[0] != 1 {
		t.Fatal("Get broken")
	}
}

// TestAddRowsVersionsChangedTuples pins what probe facts build on: AddRows
// names the row holding each tuple — the same row whenever the values are
// the same, a new row version (which the ID then resolves to) when the
// upstream changed the tuple in place — so two answers cite equal rows
// exactly when they are equal; rows replay to the same numbers; and
// RowTuples / RowTuplesMatching read cited rows back, in order, as shared
// row forms.
func TestAddRowsVersionsChangedTuples(t *testing.T) {
	s := NewStore(schema())
	a := types.Tuple{ID: 1, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x"}}
	b := types.Tuple{ID: 2, Ord: []float64{3, 4, 0}, Cat: map[string]string{"c": "y"}}
	first := s.AddRows([]types.Tuple{a, b})
	if again := s.AddRows([]types.Tuple{b.Clone(), a.Clone()}); again[0] != first[1] || again[1] != first[0] || s.Rows() != 2 {
		t.Fatalf("unchanged tuples got rows %v after %v (%d rows stored)", again, first, s.Rows())
	}
	a2 := a.Clone()
	a2.Ord[1] = 9
	changed := s.AddRows([]types.Tuple{a2, b, a2})
	if changed[0] == first[0] || changed[1] != first[1] || changed[2] != changed[0] || s.Rows() != 3 || s.Size() != 2 {
		t.Fatalf("changed tuple: rows %v after %v (%d rows, %d IDs), want one new version", changed, first, s.Rows(), s.Size())
	}
	if got, _ := s.Get(1); got.Ord[1] != 9 {
		t.Fatalf("ID 1 resolves to %v, want the new version", got)
	}
	// Back to the old values is yet another version: rows compare against
	// the current one only.
	if back := s.AddRows([]types.Tuple{a}); back[0] == first[0] || back[0] == changed[0] {
		t.Fatalf("reverted tuple reused row %d", back[0])
	}

	// The old answer still reads what the upstream said at the time.
	old := s.RowTuples(first)
	if len(old) != 2 || !old[0].Equal(a) || !old[1].Equal(b) {
		t.Fatalf("RowTuples(%v) = %v", first, old)
	}
	if twice := s.RowTuples(first); &twice[0].Ord[0] != &old[0].Ord[0] {
		t.Fatal("RowTuples materialized a row twice")
	}
	if s.RowTuples(nil) != nil {
		t.Fatal("RowTuples(nil) is not nil")
	}
	onlyY := s.RowTuplesMatching(query.New().WithCat("c", "y"), []uint32{changed[0], first[1], first[0]})
	if len(onlyY) != 1 || !onlyY[0].Equal(b) {
		t.Fatalf("RowTuplesMatching(c=y) = %v, want just %v", onlyY, b)
	}
	inOrder := s.RowTuplesMatching(query.New().WithRange(0, types.ClosedInterval(0, 5)), []uint32{first[1], changed[0]})
	if len(inOrder) != 2 || !inOrder[0].Equal(b) || !inOrder[1].Equal(a2) {
		t.Fatalf("RowTuplesMatching kept order %v, want [%v %v]", inOrder, b, a2)
	}

	// Exported rows replay to identical row numbers, versions included.
	replay := NewStore(schema())
	if n := replay.Add(s.ExportRows(0, s.Rows())...); n != s.Rows() {
		t.Fatalf("replay appended %d rows, want %d", n, s.Rows())
	}
	for row, want := range s.ExportRows(0, s.Rows()) {
		if got := replay.RowTuples([]uint32{uint32(row)}); !got[0].Equal(want) {
			t.Fatalf("replayed row %d = %v, want %v", row, got[0], want)
		}
	}
}

// TestMinMaxMatchingProperty compares the indexed lookups against a brute
// force scan across random stores, queries, and intervals.
func TestMinMaxMatchingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		s := NewStore(schema())
		all := tuples(rng, 30+rng.Intn(100))
		s.Add(all...)
		q := query.New()
		if rng.Intn(2) == 0 {
			q = q.WithCat("c", "x")
		}
		attr := rng.Intn(2)
		lo := rng.Float64() * 90
		iv := types.Interval{
			Lo: lo, Hi: lo + rng.Float64()*30,
			LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
		}
		// Brute force.
		var wantMin, wantMax *types.Tuple
		for i := range all {
			tp := all[i]
			if !q.Matches(tp) || !iv.Contains(tp.Ord[attr]) {
				continue
			}
			if wantMin == nil || tp.Ord[attr] < wantMin.Ord[attr] {
				wantMin = &all[i]
			}
			if wantMax == nil || tp.Ord[attr] > wantMax.Ord[attr] {
				wantMax = &all[i]
			}
		}
		gotMin, okMin := s.MinMatching(q, attr, iv)
		gotMax, okMax := s.MaxMatching(q, attr, iv)
		if (wantMin != nil) != okMin || (wantMax != nil) != okMax {
			return false
		}
		if okMin && gotMin.Ord[attr] != wantMin.Ord[attr] {
			return false
		}
		if okMax && gotMax.Ord[attr] != wantMax.Ord[attr] {
			return false
		}
		// A run the caller holds over the same rows (a crawled region's)
		// answers exactly as the shard does, tie-breaks included.
		run := colstore.NewRun(s.View(), attr, s.AddRows(all))
		runMin, runOKMin := s.ScanRun(q, run, iv, false)
		runMax, runOKMax := s.ScanRun(q, run, iv, true)
		if runOKMin != okMin || runOKMax != okMax ||
			(okMin && !runMin.Equal(gotMin)) || (okMax && !runMax.Equal(gotMax)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexRebuildAfterAdd ensures lookups stay correct as tuples stream in
// (the index is rebuilt lazily).
func TestIndexRebuildAfterAdd(t *testing.T) {
	s := NewStore(schema())
	s.Add(types.Tuple{ID: 1, Ord: []float64{50, 0, 0}})
	if got, ok := s.MinMatching(query.New(), 0, types.FullInterval()); !ok || got.ID != 1 {
		t.Fatal("initial lookup broken")
	}
	s.Add(types.Tuple{ID: 2, Ord: []float64{10, 0, 0}})
	if got, ok := s.MinMatching(query.New(), 0, types.FullInterval()); !ok || got.ID != 2 {
		t.Fatal("lookup after Add did not see the new minimum")
	}
}
