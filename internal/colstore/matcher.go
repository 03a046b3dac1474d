package colstore

import (
	"repro/internal/query"
	"repro/internal/types"
)

// missSym is the compiled form of a categorical predicate whose wanted value
// has never been interned: no stored row can carry it.
const missSym = ^uint32(0)

type rangePred struct {
	pos int
	iv  types.Interval
}

type catPred struct {
	col      int
	sym      uint32 // wanted symbol, or missSym when the value is unknown
	alsoZero bool   // want == "": absent attributes (sym 0) also match
}

// extraPred handles categorical predicates on names outside the schema; the
// values, if any, live only in the overflow map. Mirrors
// query.Query.Matches, where a missing map key compares as "".
type extraPred struct {
	name, want string
}

// Matcher is a query compiled against one View for symbol-level row
// filtering: range predicates compare column floats directly and
// categorical predicates compare interned symbols, so matching a row never
// touches a map or a string.
//
// A Matcher must be compiled (Reset) AFTER taking the view it filters: any
// categorical value carried by a visible row was interned before the row
// was published, so a dictionary miss at compile time proves no visible row
// matches. Reset reuses the matcher's slices, making pooled matchers
// allocation-free after warm-up. A Matcher is not safe for concurrent use.
type Matcher struct {
	v      View
	ranges []rangePred
	cats   []catPred
	extra  []extraPred
	never  bool
}

// View returns the view the matcher was compiled against.
func (m *Matcher) View() View { return m.v }

// Reset compiles q against view v, reusing m's storage.
func (m *Matcher) Reset(v View, q query.Query) {
	m.v = v
	m.ranges = m.ranges[:0]
	m.cats = m.cats[:0]
	m.extra = m.extra[:0]
	m.never = false
	for _, r := range q.Ranges() {
		m.ranges = append(m.ranges, rangePred{pos: r.Attr, iv: r.Iv})
	}
	for _, c := range q.Cats() {
		name, want := c.Name, c.Value
		col, inSchema := v.a.layout.colOf[name]
		if !inSchema {
			m.extra = append(m.extra, extraPred{name: name, want: want})
			continue
		}
		p := catPred{col: col, sym: missSym, alsoZero: want == ""}
		if sym, ok := v.a.dict.Lookup(want); ok {
			p.sym = sym
		}
		if p.sym == missSym && !p.alsoZero {
			m.never = true
		}
		m.cats = append(m.cats, p)
	}
}

// Match reports whether the row satisfies every predicate. Semantics are
// identical to query.Query.Matches on the materialized tuple. Rows outside
// the compiled view's snapshot (published after the view was taken — a
// shard's sorted run may already contain them) never match: the matcher
// answers as of its view.
func (m *Matcher) Match(row int) bool {
	if m.never || row >= m.v.n {
		return false
	}
	b := m.v.blocks[row>>blockShift]
	off := row & blockMask
	for i := range m.ranges {
		if !m.ranges[i].iv.Contains(b.ord[m.ranges[i].pos][off]) {
			return false
		}
	}
	for i := range m.cats {
		sym := b.cat[m.cats[i].col][off]
		if sym == m.cats[i].sym || (m.cats[i].alsoZero && sym == 0) {
			continue
		}
		return false
	}
	if len(m.extra) > 0 {
		ov, ok := m.v.overflow(row)
		for i := range m.extra {
			val := ""
			if ok {
				val = ov.cat[m.extra[i].name]
			}
			if val != m.extra[i].want {
				return false
			}
		}
	}
	return true
}
