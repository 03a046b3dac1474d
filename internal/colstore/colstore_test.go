package colstore

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "c", Kind: types.Categorical, Values: []string{"x", "y"}},
	})
}

func newTestArena() *Arena {
	return NewArena(NewLayout(testSchema()), NewDict())
}

func TestRoundTrip(t *testing.T) {
	a := newTestArena()
	in := []types.Tuple{
		{ID: 1, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x"}},
		{ID: 2, Ord: []float64{3, 4, 0}},
		{ID: 3, Ord: []float64{5, 6, 7}, Cat: map[string]string{"c": "y"}},
		{ID: 0, Ord: []float64{0, 0, 0}, Cat: map[string]string{"c": ""}},
	}
	for _, tp := range in {
		a.Append(tp)
	}
	v := a.View()
	if v.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(in))
	}
	for i, want := range in {
		got := v.Tuple(i)
		if got.ID != want.ID || !reflect.DeepEqual(got.Ord, want.Ord) {
			t.Fatalf("row %d: got %+v, want %+v", i, got, want)
		}
		for k, val := range want.Cat {
			if got.Cat[k] != val {
				t.Fatalf("row %d: Cat[%q] = %q, want %q", i, k, got.Cat[k], val)
			}
		}
		if v.ID(i) != want.ID {
			t.Fatalf("row %d: ID = %d, want %d", i, v.ID(i), want.ID)
		}
		for p := range want.Ord {
			if v.Ord(i, p) != want.Ord[p] {
				t.Fatalf("row %d pos %d: Ord = %g, want %g", i, p, v.Ord(i, p), want.Ord[p])
			}
		}
	}
}

// TestOverflowRows exercises every column-escape path: short and long Ord
// slices, categorical names outside the schema, and IDs outside int32.
func TestOverflowRows(t *testing.T) {
	a := newTestArena()
	in := []types.Tuple{
		{ID: 1, Ord: []float64{1, 2}},                                                 // short Ord
		{ID: 2, Ord: []float64{1, 2, 3, 4}},                                           // long Ord
		{ID: 3, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x", "zz": "w"}}, // extra cat
		{ID: math.MaxInt32 + 7, Ord: []float64{9, 9, 0}},                              // big ID
		{ID: math.MinInt32, Ord: []float64{8, 8, 0}},                                  // sentinel collision
		{ID: 5, Ord: nil}, // nil Ord
	}
	for _, tp := range in {
		a.Append(tp)
	}
	v := a.View()
	for i, want := range in {
		got := v.Tuple(i)
		if got.ID != want.ID {
			t.Fatalf("row %d: ID = %d, want %d", i, got.ID, want.ID)
		}
		if len(got.Ord) != len(want.Ord) || !reflect.DeepEqual(append([]float64{}, got.Ord...), append([]float64{}, want.Ord...)) {
			t.Fatalf("row %d: Ord = %v, want %v", i, got.Ord, want.Ord)
		}
		if !reflect.DeepEqual(got.Cat, want.Cat) && len(got.Cat)+len(want.Cat) > 0 {
			t.Fatalf("row %d: Cat = %v, want %v", i, got.Cat, want.Cat)
		}
		if v.ID(i) != want.ID {
			t.Fatalf("row %d: view ID = %d, want %d", i, v.ID(i), want.ID)
		}
	}
}

func TestViewSnapshotIsolation(t *testing.T) {
	a := newTestArena()
	a.Append(types.Tuple{ID: 1, Ord: []float64{1, 1, 0}})
	v := a.View()
	a.Append(types.Tuple{ID: 2, Ord: []float64{2, 2, 0}})
	if v.Len() != 1 {
		t.Fatalf("old view Len = %d, want 1", v.Len())
	}
	if a.View().Len() != 2 {
		t.Fatalf("new view Len = %d, want 2", a.View().Len())
	}
}

func TestBlockBoundary(t *testing.T) {
	a := newTestArena()
	n := BlockSize + 17
	for i := 0; i < n; i++ {
		a.Append(types.Tuple{ID: i, Ord: []float64{float64(i), 0, 0}})
	}
	v := a.View()
	if v.Len() != n {
		t.Fatalf("Len = %d, want %d", v.Len(), n)
	}
	st := a.Stats()
	if st.Blocks != 2 || st.Rows != n {
		t.Fatalf("Stats = %+v, want 2 blocks / %d rows", st, n)
	}
	for _, row := range []int{0, BlockSize - 1, BlockSize, n - 1} {
		if v.ID(row) != row || v.Ord(row, 0) != float64(row) {
			t.Fatalf("row %d: ID=%d Ord=%g", row, v.ID(row), v.Ord(row, 0))
		}
	}
}

func TestMaterializeIntoReuses(t *testing.T) {
	a := newTestArena()
	a.Append(types.Tuple{ID: 1, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x"}})
	a.Append(types.Tuple{ID: 2, Ord: []float64{3, 4, 0}, Cat: map[string]string{"c": "y"}})
	v := a.View()
	var scratch types.Tuple
	v.MaterializeInto(0, &scratch)
	ordPtr := &scratch.Ord[0]
	v.MaterializeInto(1, &scratch)
	if &scratch.Ord[0] != ordPtr {
		t.Fatal("MaterializeInto reallocated the Ord scratch")
	}
	if scratch.ID != 2 || scratch.Cat["c"] != "y" {
		t.Fatalf("scratch after second materialize: %+v", scratch)
	}
	allocs := testing.AllocsPerRun(100, func() { v.MaterializeInto(0, &scratch) })
	if allocs > 0 {
		t.Fatalf("MaterializeInto allocates %.1f/op, want 0", allocs)
	}
}

// TestMatcherAgainstQueryMatches cross-checks symbol-level matching against
// query.Query.Matches on the materialized tuples across random stores and
// queries.
func TestMatcherAgainstQueryMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := newTestArena()
		var tuples []types.Tuple
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			tp := types.Tuple{
				ID:  i,
				Ord: []float64{float64(rng.Intn(20)) * 5, float64(rng.Intn(20)) * 5, 0},
			}
			if rng.Intn(4) > 0 {
				tp.Cat = map[string]string{"c": []string{"x", "y", ""}[rng.Intn(3)]}
			}
			tuples = append(tuples, tp)
			a.Append(tp)
		}
		for qi := 0; qi < 20; qi++ {
			q := query.New()
			if rng.Intn(2) == 0 {
				lo := float64(rng.Intn(20)) * 5
				q = q.WithRange(rng.Intn(2), types.Interval{
					Lo: lo, Hi: lo + float64(rng.Intn(10))*5,
					LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
				})
			}
			switch rng.Intn(5) {
			case 0:
				q = q.WithCat("c", []string{"x", "y"}[rng.Intn(2)])
			case 1:
				q = q.WithCat("c", "") // matches absent and explicitly-empty
			case 2:
				q = q.WithCat("c", "never-interned")
			case 3:
				q = q.WithCat("zz", "w") // out-of-schema name
			}
			v := a.View()
			var m Matcher
			m.Reset(v, q)
			for row := 0; row < v.Len(); row++ {
				want := q.Matches(tuples[row])
				if got := m.Match(row); got != want {
					t.Fatalf("trial %d query %s row %d: Match = %v, Query.Matches = %v (tuple %+v)",
						trial, q, row, got, want, tuples[row])
				}
			}
		}
	}
}

func TestMatcherExtraPredOnOverflowRow(t *testing.T) {
	a := newTestArena()
	a.Append(types.Tuple{ID: 1, Ord: []float64{1, 1, 0}, Cat: map[string]string{"zz": "w"}})
	a.Append(types.Tuple{ID: 2, Ord: []float64{2, 2, 0}})
	v := a.View()
	var m Matcher
	m.Reset(v, query.New().WithCat("zz", "w"))
	if !m.Match(0) || m.Match(1) {
		t.Fatal("out-of-schema categorical predicate broken")
	}
	m.Reset(v, query.New().WithCat("zz", ""))
	if m.Match(0) || !m.Match(1) {
		t.Fatal(`out-of-schema want="" predicate broken`)
	}
}

func TestRunScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := newTestArena()
	n := 200
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = float64(rng.Intn(25)) * 4
		a.Append(types.Tuple{ID: i, Ord: []float64{vals[i], 0, 0}, Cat: map[string]string{"c": []string{"x", "y"}[i%2]}})
	}
	v := a.View()
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(i)
	}
	run := NewRun(v, 0, rows)
	if !sort.SliceIsSorted(run.Vals, func(i, j int) bool { return run.Vals[i] < run.Vals[j] }) {
		t.Fatal("run values not sorted")
	}
	for trial := 0; trial < 200; trial++ {
		lo := float64(rng.Intn(25)) * 4
		iv := types.Interval{Lo: lo, Hi: lo + float64(rng.Intn(8))*4,
			LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		q := query.New()
		if rng.Intn(2) == 0 {
			q = q.WithCat("c", "x")
		}
		var m Matcher
		m.Reset(v, q)
		// Brute force with the same (value, ID) tie-break.
		wantMinRow, wantMaxRow, found := -1, -1, false
		for i := 0; i < n; i++ {
			if !iv.Contains(vals[i]) || !m.Match(i) {
				continue
			}
			if !found {
				wantMinRow, wantMaxRow, found = i, i, true
				continue
			}
			if vals[i] < vals[wantMinRow] || (vals[i] == vals[wantMinRow] && i < wantMinRow) {
				wantMinRow = i
			}
			if vals[i] > vals[wantMaxRow] || (vals[i] == vals[wantMaxRow] && i > wantMaxRow) {
				wantMaxRow = i
			}
		}
		gotMin, _, okMin := run.ScanMin(&m, iv)
		gotMax, _, okMax := run.ScanMax(&m, iv)
		if okMin != found || okMax != found {
			t.Fatalf("trial %d iv %s: ok = (%v,%v), want %v", trial, iv, okMin, okMax, found)
		}
		if found && (int(gotMin) != wantMinRow || int(gotMax) != wantMaxRow) {
			t.Fatalf("trial %d iv %s: rows (%d,%d), want (%d,%d)", trial, iv, gotMin, gotMax, wantMinRow, wantMaxRow)
		}
	}
}

func TestRunInsertAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := newTestArena()
	n := 120
	for i := 0; i < n; i++ {
		a.Append(types.Tuple{ID: i, Ord: []float64{float64(rng.Intn(10)), 0, 0}})
	}
	v := a.View()
	var incr Run
	var batchRows []uint32
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			incr.Insert(v, v.Ord(i, 0), uint32(i))
		} else {
			batchRows = append(batchRows, uint32(i))
		}
	}
	merged := MergeRuns(v, incr, NewRun(v, 0, batchRows))
	if merged.Len() != n {
		t.Fatalf("merged Len = %d, want %d", merged.Len(), n)
	}
	for i := 1; i < merged.Len(); i++ {
		if runLess(v, merged.Vals[i], merged.Rows[i], merged.Vals[i-1], merged.Rows[i-1]) {
			t.Fatalf("merged run out of order at %d", i)
		}
	}
}

// TestSharedRowIsMaterializedOnce pins the row memo: every Shared call for a
// row returns the same materialization (one Ord slice, one Cat map, however
// many answers cite the row), equal to a private Tuple copy — regular and
// overflow rows alike — and a block nobody asked a shared row of carries no
// memo table.
func TestSharedRowIsMaterializedOnce(t *testing.T) {
	a := newTestArena()
	in := []types.Tuple{
		{ID: 1, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x"}},
		{ID: math.MaxInt32 + 1, Ord: []float64{3}, Cat: map[string]string{"zz": "w"}},
	}
	for _, tp := range in {
		a.Append(tp)
	}
	v := a.View()
	if v.blocks[0].memo.Load() != nil {
		t.Fatal("memo table allocated before any Shared call")
	}
	for row, want := range in {
		first, again := v.Shared(row), a.View().Shared(row)
		if !first.Equal(want) || !first.Equal(v.Tuple(row)) {
			t.Fatalf("row %d: Shared = %+v, want %+v", row, first, want)
		}
		if &first.Ord[0] != &again.Ord[0] {
			t.Fatalf("row %d: second Shared call re-materialized the row", row)
		}
		if priv := v.Tuple(row); &priv.Ord[0] == &first.Ord[0] {
			t.Fatalf("row %d: Tuple handed out the shared row form", row)
		}
	}
}

// TestEqualMatchesTupleEqual checks View.Equal's column fast path against
// types.Tuple.Equal on the materialized row, over regular and overflow rows
// and every kind of single-field difference.
func TestEqualMatchesTupleEqual(t *testing.T) {
	a := newTestArena()
	stored := []types.Tuple{
		{ID: 1, Ord: []float64{1, 2, 0}, Cat: map[string]string{"c": "x"}},
		{ID: 2, Ord: []float64{3, math.NaN(), 0}},
		{ID: 3, Ord: []float64{5, 6, 0}, Cat: map[string]string{"c": ""}},
		{ID: 4, Ord: []float64{7, 8}, Cat: map[string]string{"zz": "w"}},
	}
	for _, tp := range stored {
		a.Append(tp)
	}
	v := a.View()
	probes := append([]types.Tuple(nil), stored...)
	for _, tp := range stored {
		id, ord, cat, nocat, newcat, short := tp.Clone(), tp.Clone(), tp.Clone(), tp.Clone(), tp.Clone(), tp.Clone()
		id.ID += 100
		ord.Ord[0] += 0.5
		cat.Cat = map[string]string{"c": "never-interned"}
		nocat.Cat = nil
		newcat.Cat = map[string]string{"c": "x", "zz": "w"}
		short.Ord = short.Ord[:1]
		probes = append(probes, id, ord, cat, nocat, newcat, short)
	}
	for row := range stored {
		for _, p := range probes {
			if got, want := v.Equal(row, p), v.Tuple(row).Equal(p); got != want {
				t.Fatalf("row %d vs %+v: Equal = %v, Tuple.Equal = %v", row, p, got, want)
			}
		}
		if !v.Equal(row, stored[row]) {
			t.Fatalf("row %d does not equal the tuple it stores", row)
		}
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	x := d.Intern("x")
	if x == 0 {
		t.Fatal("Intern returned the absent sentinel")
	}
	if again := d.Intern("x"); again != x {
		t.Fatal("Intern not stable")
	}
	if d.Value(x) != "x" || d.Value(0) != "" {
		t.Fatal("Value broken")
	}
	if _, ok := d.Lookup("y"); ok {
		t.Fatal("Lookup found an uninterned value")
	}
	d.Intern("hello")
	if d.Len() != 2 || d.Bytes() != int64(len("x")+len("hello")) {
		t.Fatalf("Len=%d Bytes=%d", d.Len(), d.Bytes())
	}
}

// TestNewRunOrderMatchesInsert: rows that share a value and a tuple ID
// (versions of one tuple) come oldest row first whichever way a run is
// built — sorted whole by NewRun, one row at a time by Insert, or merged by
// MergeRuns — so no reader sees an order among them that depends on the
// path that built the run. (MergeRuns puts its first run's rows first among
// equals, and its callers pass the older run first.)
func TestNewRunOrderMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := newTestArena()
	n := 300
	for i := 0; i < n; i++ {
		a.Append(types.Tuple{ID: rng.Intn(40), Ord: []float64{float64(rng.Intn(6)), float64(i), 0}})
	}
	v := a.View()
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(i)
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	whole := NewRun(v, 0, rows)
	var inserted Run
	for row := uint32(0); row < uint32(n); row++ {
		inserted.Insert(v, v.Ord(int(row), 0), row)
	}
	var older, newer []uint32 // as a history shard merges: its run, then a batch of new rows
	for _, row := range rows {
		if row < uint32(n/2) {
			older = append(older, row)
		} else {
			newer = append(newer, row)
		}
	}
	merged := MergeRuns(v, NewRun(v, 0, older), NewRun(v, 0, newer))
	if !reflect.DeepEqual(whole, inserted) {
		t.Fatalf("NewRun and Insert order the rows differently:\n%v\n%v", whole.Rows, inserted.Rows)
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatalf("NewRun and MergeRuns order the rows differently:\n%v\n%v", whole.Rows, merged.Rows)
	}
}
