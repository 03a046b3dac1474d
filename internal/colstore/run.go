package colstore

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/types"
)

// Run is one sorted run of rows: parallel slices ordered ascending by
// (value, tuple ID). Keeping the sort key in its own contiguous float slice
// makes the binary searches and range walks of Min/Max lookups cache-local —
// no tuple is touched until a row actually matches.
type Run struct {
	Vals []float64
	Rows []uint32
}

// Len returns the number of entries.
func (r Run) Len() int { return len(r.Vals) }

// runLess orders run entries by (value, ID), the canonical order of every
// sorted run in the system.
func runLess(v View, aVal float64, aRow uint32, bVal float64, bRow uint32) bool {
	if aVal != bVal {
		return aVal < bVal
	}
	return v.ID(int(aRow)) < v.ID(int(bRow))
}

// Insert places (val, row) into the run, preserving order.
func (r *Run) Insert(v View, val float64, row uint32) {
	i := sort.Search(len(r.Vals), func(i int) bool {
		return runLess(v, val, row, r.Vals[i], r.Rows[i])
	})
	r.Vals = append(r.Vals, 0)
	r.Rows = append(r.Rows, 0)
	copy(r.Vals[i+1:], r.Vals[i:])
	copy(r.Rows[i+1:], r.Rows[i:])
	r.Vals[i], r.Rows[i] = val, row
}

// NewRun builds a sorted run over rows, keyed by schema position pos. The
// entries sort on the total order (value, ID, row): rows that share a value
// and an ID (versions of one tuple) come oldest first, as Insert and
// MergeRuns leave them, so a run's order does not depend on the algorithm
// or the path that built it.
func NewRun(v View, pos int, rows []uint32) Run {
	type entry struct {
		val float64
		row uint32
	}
	es := make([]entry, len(rows))
	for i, row := range rows {
		es[i] = entry{v.Ord(int(row), pos), row}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := cmp.Compare(a.val, b.val); c != 0 {
			return c
		}
		if c := cmp.Compare(v.ID(int(a.row)), v.ID(int(b.row))); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	r := Run{Vals: make([]float64, len(es)), Rows: make([]uint32, len(es))}
	for i, e := range es {
		r.Vals[i], r.Rows[i] = e.val, e.row
	}
	return r
}

// MergeRuns linearly merges two sorted runs into a new one.
func MergeRuns(v View, a, b Run) Run {
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	out := Run{
		Vals: make([]float64, 0, a.Len()+b.Len()),
		Rows: make([]uint32, 0, a.Len()+b.Len()),
	}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		if runLess(v, b.Vals[j], b.Rows[j], a.Vals[i], a.Rows[i]) {
			out.Vals = append(out.Vals, b.Vals[j])
			out.Rows = append(out.Rows, b.Rows[j])
			j++
		} else {
			out.Vals = append(out.Vals, a.Vals[i])
			out.Rows = append(out.Rows, a.Rows[i])
			i++
		}
	}
	out.Vals = append(out.Vals, a.Vals[i:]...)
	out.Rows = append(out.Rows, a.Rows[i:]...)
	out.Vals = append(out.Vals, b.Vals[j:]...)
	out.Rows = append(out.Rows, b.Rows[j:]...)
	return out
}

// ScanMin returns the first entry with value inside iv whose row matches m:
// binary-search to the first value >= iv.Lo, then walk forward skipping
// excluded endpoints until the value exceeds iv.Hi.
func (r Run) ScanMin(m *Matcher, iv types.Interval) (row uint32, val float64, ok bool) {
	i := sort.Search(len(r.Vals), func(i int) bool { return r.Vals[i] >= iv.Lo })
	for ; i < len(r.Vals); i++ {
		v := r.Vals[i]
		if !iv.Contains(v) {
			if v > iv.Hi {
				break
			}
			continue
		}
		if m.Match(int(r.Rows[i])) {
			return r.Rows[i], v, true
		}
	}
	return 0, 0, false
}

// ScanMax is ScanMin from the high end: binary-search past iv.Hi, then walk
// backward until the value drops below iv.Lo.
func (r Run) ScanMax(m *Matcher, iv types.Interval) (row uint32, val float64, ok bool) {
	i := sort.Search(len(r.Vals), func(i int) bool { return r.Vals[i] > iv.Hi })
	for i--; i >= 0; i-- {
		v := r.Vals[i]
		if !iv.Contains(v) {
			if v < iv.Lo {
				break
			}
			continue
		}
		if m.Match(int(r.Rows[i])) {
			return r.Rows[i], v, true
		}
	}
	return 0, 0, false
}
