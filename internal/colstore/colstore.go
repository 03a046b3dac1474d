package colstore

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

const (
	blockShift = 12
	// BlockSize is the fixed row capacity of one column block.
	BlockSize = 1 << blockShift
	blockMask = BlockSize - 1
)

// idSentinel marks an ids cell whose real ID does not fit int32 and lives in
// the overflow map instead.
const idSentinel = math.MinInt32

// Layout maps a schema onto column storage: one float64 column per schema
// position (categorical positions included, so a tuple's full Ord slice
// round-trips exactly) plus one symbol column per categorical attribute.
type Layout struct {
	schema   *types.Schema
	catPos   []int          // schema positions of categorical attrs, declaration order
	catNames []string       // attribute names, same order as catPos
	colOf    map[string]int // categorical attribute name -> symbol column index
}

// NewLayout builds the column layout for schema.
func NewLayout(schema *types.Schema) *Layout {
	l := &Layout{schema: schema, colOf: make(map[string]int)}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		if a.Kind == types.Categorical {
			l.colOf[a.Name] = len(l.catPos)
			l.catPos = append(l.catPos, i)
			l.catNames = append(l.catNames, a.Name)
		}
	}
	return l
}

// block is one fixed-capacity slab of columns. Cells are written exactly
// once (the store is append-only) and the column slices never grow, so a
// published row can be read without locks.
type block struct {
	ids []int32
	ord [][]float64 // one column per schema position
	cat [][]uint32  // one symbol column per categorical attribute

	// memo holds the block's shared row forms (see View.Shared). Both the
	// table and its slots fill lazily, so a block no consumer ever asked a
	// shared row of costs one nil pointer.
	memo atomic.Pointer[[BlockSize]atomic.Pointer[types.Tuple]]
}

func newBlock(l *Layout) *block {
	b := &block{
		ids: make([]int32, BlockSize),
		ord: make([][]float64, l.schema.Len()),
		cat: make([][]uint32, len(l.catPos)),
	}
	for i := range b.ord {
		b.ord[i] = make([]float64, BlockSize)
	}
	for i := range b.cat {
		b.cat[i] = make([]uint32, BlockSize)
	}
	return b
}

// overflowRow preserves the parts of a tuple the columns cannot encode
// exactly: an Ord slice whose length differs from the schema width,
// categorical values under names outside the schema, or an ID outside
// int32 range. Overflow rows are rare (malformed or adversarial input);
// regular rows never touch the map.
type overflowRow struct {
	id     int
	hasID  bool
	ord    []float64         // full Ord copy, valid when hasOrd
	hasOrd bool              // set when len(Ord) != schema.Len() (including nil Ord)
	cat    map[string]string // out-of-schema categorical entries
}

// Arena is an append-only columnar tuple store. Appends are serialized by an
// internal mutex; reads are lock-free through a View. The row count is
// published with release semantics after all cells of the row are written,
// so any row visible through a View is fully initialized.
type Arena struct {
	layout *Layout
	dict   *Dict

	mu     sync.Mutex
	blocks atomic.Pointer[[]*block] // copy-on-write, grows one block at a time
	count  atomic.Int64             // published row count

	overMu  sync.RWMutex
	over    map[uint32]overflowRow
	hasOver atomic.Bool // fast path: no row has ever overflowed
}

// NewArena builds an empty arena over layout, interning categorical values
// into dict.
func NewArena(layout *Layout, dict *Dict) *Arena {
	a := &Arena{layout: layout, dict: dict}
	empty := []*block{}
	a.blocks.Store(&empty)
	return a
}

// Dict returns the shared string dictionary.
func (a *Arena) Dict() *Dict { return a.dict }

// Len returns the number of published rows.
func (a *Arena) Len() int { return int(a.count.Load()) }

// Append stores t and returns its row number. The tuple's values are copied
// into columns; t's slices and maps are not retained.
func (a *Arena) Append(t types.Tuple) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	row := uint32(a.count.Load())
	bi := int(row >> blockShift)
	off := int(row & blockMask)
	blocks := *a.blocks.Load()
	if bi == len(blocks) {
		grown := make([]*block, len(blocks)+1)
		copy(grown, blocks)
		grown[bi] = newBlock(a.layout)
		a.blocks.Store(&grown)
		blocks = grown
	}
	b := blocks[bi]

	var ov overflowRow
	if int(int32(t.ID)) == t.ID && int32(t.ID) != idSentinel {
		b.ids[off] = int32(t.ID)
	} else {
		b.ids[off] = idSentinel
		ov.id, ov.hasID = t.ID, true
	}
	m := a.layout.schema.Len()
	n := len(t.Ord)
	if n > m {
		n = m
	}
	for p := 0; p < n; p++ {
		b.ord[p][off] = t.Ord[p]
	}
	if len(t.Ord) != m {
		ov.ord = append([]float64(nil), t.Ord...)
		ov.hasOrd = true
	}
	for name, val := range t.Cat {
		if c, ok := a.layout.colOf[name]; ok {
			b.cat[c][off] = a.dict.Intern(val)
		} else {
			if ov.cat == nil {
				ov.cat = make(map[string]string)
			}
			ov.cat[name] = val
		}
	}
	if ov.hasID || ov.hasOrd || ov.cat != nil {
		a.overMu.Lock()
		if a.over == nil {
			a.over = make(map[uint32]overflowRow)
		}
		a.over[row] = ov
		a.overMu.Unlock()
		a.hasOver.Store(true)
	}
	// Publish: every cell of the row is written before the count moves, so
	// readers that observe count > row see a complete row.
	a.count.Store(int64(row) + 1)
	return row
}

// Stats describes the arena's storage footprint.
type Stats struct {
	Rows   int
	Blocks int
	// Bytes approximates the column storage resident for the blocks
	// (allocated capacity, not just used rows).
	Bytes int64
}

// Stats returns the arena's current storage counters.
func (a *Arena) Stats() Stats {
	n := int(a.count.Load())
	blocks := len(*a.blocks.Load())
	perBlock := int64(BlockSize) * int64(4+8*a.layout.schema.Len()+4*len(a.layout.catPos))
	return Stats{Rows: n, Blocks: blocks, Bytes: int64(blocks) * perBlock}
}

// View is an immutable point-in-time snapshot of the arena: rows [0, Len())
// existed when the view was taken and never change afterwards. Views are
// cheap values (three words); take one per operation. Rows appended after
// the view is taken are not visible through it, and a View is never
// invalidated — blocks are append-only and shared.
type View struct {
	a      *Arena
	blocks []*block
	n      int
}

// View snapshots the arena's currently published rows.
func (a *Arena) View() View {
	// Order matters: load the published count first, then the block list.
	// The block covering row count-1 is stored before the count, so the
	// list loaded afterwards always covers every visible row.
	n := int(a.count.Load())
	return View{a: a, blocks: *a.blocks.Load(), n: n}
}

// Len returns the number of rows visible through the view.
func (v View) Len() int { return v.n }

// ID returns the tuple ID of a row.
func (v View) ID(row int) int {
	id := v.blocks[row>>blockShift].ids[row&blockMask]
	if id == idSentinel && v.a.hasOver.Load() {
		v.a.overMu.RLock()
		ov, ok := v.a.over[uint32(row)]
		v.a.overMu.RUnlock()
		if ok && ov.hasID {
			return ov.id
		}
	}
	return int(id)
}

// Ord returns the ordinal value at schema position pos of a row.
func (v View) Ord(row, pos int) float64 {
	return v.blocks[row>>blockShift].ord[pos][row&blockMask]
}

func (v View) overflow(row int) (overflowRow, bool) {
	if !v.a.hasOver.Load() {
		return overflowRow{}, false
	}
	v.a.overMu.RLock()
	ov, ok := v.a.over[uint32(row)]
	v.a.overMu.RUnlock()
	return ov, ok
}

// Tuple materializes a row into a fresh types.Tuple that shares no storage
// with the arena or other materializations — safe to retain and hand across
// API boundaries.
func (v View) Tuple(row int) types.Tuple {
	var t types.Tuple
	v.MaterializeInto(row, &t)
	return t
}

// Shared returns the row as a tuple materialized at most once per row and
// shared by every caller: rows are immutable, so one row form serves all
// consumers that only read it (probe answers assembled from row references).
// Callers must not modify the tuple's Ord slice or Cat map; use Tuple for a
// private copy.
func (v View) Shared(row int) types.Tuple {
	b := v.blocks[row>>blockShift]
	memo := b.memo.Load()
	if memo == nil {
		b.memo.CompareAndSwap(nil, new([BlockSize]atomic.Pointer[types.Tuple]))
		memo = b.memo.Load()
	}
	slot := &memo[row&blockMask]
	t := slot.Load()
	if t == nil {
		fresh := v.Tuple(row)
		slot.CompareAndSwap(nil, &fresh)
		t = slot.Load()
	}
	return *t
}

// Equal reports whether the row stores exactly t: same ID, ordinal values
// and categorical values (types.Tuple.Equal on the materialized row).
// Regular rows compare straight from the columns.
func (v View) Equal(row int, t types.Tuple) bool {
	l := v.a.layout
	if _, irregular := v.overflow(row); irregular || len(t.Ord) != l.schema.Len() {
		return v.Tuple(row).Equal(t)
	}
	b := v.blocks[row>>blockShift]
	off := row & blockMask
	if int(b.ids[off]) != t.ID {
		return false
	}
	for p, x := range t.Ord {
		if y := b.ord[p][off]; x != y && (x == x || y == y) {
			return false
		}
	}
	stored := 0
	for _, col := range b.cat {
		if col[off] != 0 {
			stored++
		}
	}
	if stored != len(t.Cat) {
		return false
	}
	for name, val := range t.Cat {
		c, ok := l.colOf[name]
		if !ok {
			return false
		}
		if sym, ok := v.a.dict.Lookup(val); !ok || b.cat[c][off] != sym {
			return false
		}
	}
	return true
}

// TupleRange materializes rows [lo, hi) into fresh tuples, clamping the
// range to the view. It is the bulk-export path for incremental persistence:
// because the arena is append-only, a row range exported once never changes,
// so persisted ranges can be laid down contiguously without re-reading old
// rows.
func (v View) TupleRange(lo, hi int) []types.Tuple {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n {
		hi = v.n
	}
	if lo >= hi {
		return nil
	}
	out := make([]types.Tuple, 0, hi-lo)
	for row := lo; row < hi; row++ {
		out = append(out, v.Tuple(row))
	}
	return out
}

// MaterializeInto reconstructs a row into dst, reusing dst's Ord slice and
// Cat map when their capacity allows — the zero-steady-state-alloc path for
// scan loops that inspect one tuple at a time. The result aliases dst's own
// storage only; do not retain dst across iterations without copying.
func (v View) MaterializeInto(row int, dst *types.Tuple) {
	b := v.blocks[row>>blockShift]
	off := row & blockMask
	ov, hasOv := v.overflow(row)

	if hasOv && ov.hasID {
		dst.ID = ov.id
	} else {
		dst.ID = int(b.ids[off])
	}

	if hasOv && ov.hasOrd {
		if ov.ord == nil {
			dst.Ord = nil
		} else {
			dst.Ord = append(dst.Ord[:0], ov.ord...)
		}
	} else {
		m := v.a.layout.schema.Len()
		if cap(dst.Ord) < m {
			dst.Ord = make([]float64, m)
		} else {
			dst.Ord = dst.Ord[:m]
		}
		for p := 0; p < m; p++ {
			dst.Ord[p] = b.ord[p][off]
		}
	}

	nCat := 0
	for c := range b.cat {
		if b.cat[c][off] != 0 {
			nCat++
		}
	}
	if hasOv {
		nCat += len(ov.cat)
	}
	if nCat == 0 {
		dst.Cat = nil
		return
	}
	if dst.Cat == nil {
		dst.Cat = make(map[string]string, nCat)
	} else {
		clear(dst.Cat)
	}
	for c, col := range b.cat {
		if sym := col[off]; sym != 0 {
			dst.Cat[v.a.layout.catNames[c]] = v.a.dict.Value(sym)
		}
	}
	if hasOv {
		for k, val := range ov.cat {
			dst.Cat[k] = val
		}
	}
}
